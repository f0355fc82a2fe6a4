"""Command-line front end for reproducible batch runs.

Three subcommands cover the whole pipeline:

* ``fit``       ingest an edge list (plus optional attribute tables and a
                match-covariate mapping), optionally filter by degree,
                fit the model, and write the inference report.
* ``simulate``  run a Monte-Carlo scenario file and write the summary
                table and QQ-sample files.
* ``test``      run Wald tests against a fit report's sidecar.

Each command only computes: it returns ``(outputs, inputs, seed,
message)``, where ``outputs`` maps a file name to its text (``fit.json``
to a dict), and writes nothing.  ``main`` is the one place that touches
the output directory: once the command has returned, it makes
``--out-dir``, writes each output and a ``manifest.json`` recording the
command, the resolved options, SHA-256 digests of all inputs, the seed
(``null`` for ``fit`` and ``test``, which draw no random numbers), the
tool version and the command's wall-clock time, then prints the message.
So a command that fails leaves no output directory behind, and ``test``
without ``--out-dir`` writes no file.  Tables go through ``_table``
(tab-separated, floats to 10 significant digits) and JSON through
``_write_json`` (indent 2, sorted keys), so re-running a command
reproduces its outputs byte for byte.

``fit`` reads the edge list in the mode the family's support sets:
under a binary family (``logistic``) weights must be 0 or 1 and a
repeated pair is an error (whose message says, when ``--sum-duplicates``
is set, that summing applies only to counts); under a count family
(``poisson``) weights are kept as given, and ``--sum-duplicates`` sums
repeated pairs.
It solves to ``--tol`` within ``--max-iter`` Newton steps, whose
defaults are those of ``FitOptions`` (1e-8 and 50).  It writes
``trace.tsv`` with one row per step of the joint Newton solver (one
``IterationRecord`` each): ``step`` is the step index, 0 for the
starting point; ``halvings`` is the number of step halvings the step
needed; ``degree_norm`` and ``covariate_norm`` are the sup norms of the
degree and covariate residuals after the step; ``linear_iterations`` is
the number of preconditioned conjugate-gradient iterations of the step's
degree solve, 0 for the starting point and for a step that factored the
Schur complement instead (node sets where min(m, n-1) is below
``fitter.PCG_MIN_KEPT``).  ``fit`` writes only converged estimates, so
``fit.json`` carries no convergence flag; ``test`` still reads a
``fit.json`` written with the former ``"converged": true`` key.

Exit codes: 0 success, 2 config/parse error (including an unknown
``--family``, checked before any input is read, an input file that is
not valid UTF-8, an empty delimiter, a ``--tol`` that is not finite and
positive, a ``--max-iter`` below 1, a ``--threads`` below 1, a malformed
scenario field (among them an ``L`` whose truth or largest predictor
is not finite), a fit report missing a Wald component or whose
``gamma_covariance`` diagonal is not positive, a null value that is not
finite, an environment override that does not parse, ``--actor-attrs``
or ``--event-attrs`` without ``--mapping``, or a mapping file that is
not a list of well-typed match mappings), 3 fitting failure (any
``FitError``: no finite solution or no convergence), 4 ill-posed
inference, 5 internal error.  Every ``fit`` flag but ``--actor-attrs``,
``--event-attrs`` and ``--mapping``, and ``simulate --threads`` and
``--out-dir``, can be supplied via an environment variable with the
``BIMOMENT_`` prefix (dashes become underscores, e.g.
``BIMOMENT_MIN_DEGREE=40``; booleans take ``1/true/yes/on`` or
``0/false/no/off``); no other flag reads one.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import operator
import os
import sys
import time
from pathlib import Path

from . import __version__
from .data import (
    MatchMapping,
    build_match_covariates,
    filter_by_degree,
    load_attribute_table,
    load_edge_list,
)
from .errors import (
    BimomentError,
    ConfigError,
    DataError,
    FitError,
    IllPosedError,
)
from .families import get_family
from .fitter import FitOptions, fit
from .inference import (
    InferenceComponents,
    ReportRow,
    coefficient_inference,
    components_from_fit,
    report_rows,
    wald_from_components,
)
from .simlab import Scenario, run_scenario

ENV_PREFIX = "BIMOMENT_"
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONEXISTENT = 3
EXIT_ILL_POSED = 4
EXIT_INTERNAL = 5

# report.tsv's columns are ReportRow's fields; trace.tsv names its own
# columns, which are not IterationRecord's field names
REPORT_HEADER = tuple(f.name for f in dataclasses.fields(ReportRow))
TRACE_HEADER = ("step", "halvings", "degree_norm", "covariate_norm", "linear_iterations")


def _env_default(flag: str, fallback):
    """Environment override for a flag: ``--min-degree`` reads
    ``BIMOMENT_MIN_DEGREE``.  The raw string is returned so that argparse
    converts it with the flag's ``type`` and reports a bad value as a
    usage error."""
    return os.environ.get(_env_name(flag), fallback)


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.replace("-", "_").upper()


def _env_flag(flag: str, fallback: bool) -> bool:
    """Environment override for a boolean flag: a key of ``_BOOLEANS``,
    in any case; any other value raises ``ConfigError``."""
    raw = _env_default(flag, None)
    if raw is None:
        return fallback
    value = _BOOLEANS.get(raw.strip().lower())
    if value is None:
        raise ConfigError(f"{_env_name(flag)} must be one of 1/true/yes/on or "
                          f"0/false/no/off, got {raw!r}")
    return value


def _table(rows, header=None, comment=None) -> str:
    """Tab-separated text: an optional ``# comment`` line, an optional
    header, then one line per row.  A float is written to 10 significant
    digits and any other value as ``str`` gives it, so identical values
    give identical bytes."""
    lines = [] if comment is None else [f"# {comment}"]
    if header is not None:
        lines.append("\t".join(header))
    lines += ["\t".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "".join(line + "\n" for line in lines)


def _write_json(path: Path, obj):
    # streamed: json.dumps would hold all of fit.json's ~7000 pieces at once
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_outputs(out_dir: Path, outputs: dict, args, inputs, seed,
                   wall_clock_s: float):
    """Make ``out_dir`` and write each output into it, then
    ``manifest.json``: a text output as it is, a dict through
    ``_write_json``."""
    outputs = {**outputs, "manifest.json": {
        "command": args.command,
        "options": {k: (str(v) if isinstance(v, Path) else v)
                    for k, v in sorted(vars(args).items())
                    if k not in ("func", "command")},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "wall_clock_s": round(wall_clock_s, 3),
    }}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, body in outputs.items():
        if isinstance(body, str):
            (out_dir / name).write_text(body, encoding="utf-8")
        else:
            _write_json(out_dir / name, body)


def _load_json(path, what: str):
    """Parse a JSON input; malformed JSON or text that is not UTF-8 is a
    ``ConfigError`` naming the file and where it fails."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what} {path}: {exc}") from None


def _load_mappings(path) -> list:
    raw = _load_json(path, "mapping file")
    entries = raw.get("mappings") if isinstance(raw, dict) else None
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ConfigError(f"mapping file {path} must contain a 'mappings' list "
                          "of JSON objects")
    mappings = []
    for entry in entries:
        try:
            mappings.append(
                MatchMapping(
                    name=entry["name"],
                    actor_attr=entry["actor_attr"],
                    event_attr=entry["event_attr"],
                    groups=entry["groups"],
                )
            )
        except KeyError as exc:
            raise ConfigError(f"bad mapping entry {entry!r}: {exc}") from None
    return mappings


def cmd_fit(args) -> tuple:
    options = FitOptions(tol=args.tol, max_iter=args.max_iter)
    family = get_family(args.family)
    if args.mapping and not (args.actor_attrs and args.event_attrs):
        raise ConfigError("--mapping requires --actor-attrs and --event-attrs")
    if not args.mapping and (args.actor_attrs or args.event_attrs):
        raise ConfigError("--actor-attrs and --event-attrs require --mapping")
    inputs = [args.edge_list]

    graph = load_edge_list(
        args.edge_list,
        delimiter=args.delimiter,
        mode="binary" if family.support == "binary" else "count",
        sum_duplicates=args.sum_duplicates,
        binarize=args.binarize,
        strict=not args.permissive,
    )
    if args.min_degree is not None:
        graph = filter_by_degree(graph, args.min_degree, mode=args.filter_mode)

    if args.mapping:
        actor_attrs = load_attribute_table(args.actor_attrs, delimiter=args.delimiter)
        event_attrs = load_attribute_table(args.event_attrs, delimiter=args.delimiter)
        mappings = _load_mappings(args.mapping)
        covariates = build_match_covariates(graph, actor_attrs, event_attrs, mappings)
        inputs += [args.actor_attrs, args.event_attrs, args.mapping]
    else:
        covariates = None

    result = fit(graph, covariates, family, options)

    rows = report_rows(result, method=args.method, bias_correct=args.bias_correct)
    sidecar = {
        **components_from_fit(result, method=args.method).to_json(),
        "family": family.name,
        "p": result.covariates.p,
        "actor_labels": list(graph.actor_labels),
        "event_labels": list(graph.event_labels),
        "covariate_names": list(result.covariates.names),
        "alpha": result.params.alpha.tolist(),
        "beta": result.params.beta.tolist(),
        "method": args.method,
        "jacobian_summary": result.jacobian.summary(),
        "version": __version__,
    }
    if result.covariates.p and args.bias_correct:
        ci = coefficient_inference(result, method=args.method)
        sidecar["gamma_bc"] = ci.estimate_bc.tolist()
        sidecar["bias_term"] = ci.b_star.tolist()
    outputs = {
        "report.tsv": _table(
            map(operator.attrgetter(*REPORT_HEADER), rows), REPORT_HEADER,
            comment=f"beta:{graph.n} ({graph.event_labels[-1]}) pinned to 0"),
        "trace.tsv": _table(
            ((rec.outer_iteration, rec.inner_iterations, rec.degree_norm,
              rec.covariate_norm, rec.linear_iterations) for rec in result.trace),
            TRACE_HEADER),
        "fit.json": sidecar,
    }

    message = (f"fit: {result.m} actors x {result.n} events, "
               f"{result.covariates.p} covariates\n")
    if result.covariates.p:
        message += f"gamma: [{', '.join(f'{g:.4g}' for g in result.params.gamma)}]\n"
    message += f"wrote {Path(args.out_dir) / 'report.tsv'}\n"
    return outputs, inputs, None, message


def cmd_simulate(args) -> tuple:
    scenario = Scenario.from_dict(_load_json(args.scenario, "scenario file"))
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    summary = run_scenario(scenario, workers=args.threads)
    outputs = {"summary.tsv": _table(summary.rows(), ("metric", "key", "value"))}
    # one file of normalized statistics per tracked parameter, one value a line
    for key, samples in summary.zeta_samples.items():
        outputs[f"qq_{key.replace(':', '_')}.txt"] = _table((value,) for value in samples)
    message = (f"simulate: {scenario.replications} replications at "
               f"({scenario.m}, {scenario.n}), L={scenario.L:.4g}, "
               f"nonconvergence={summary.nonconvergence_rate:.2%}\n"
               f"wrote {Path(args.out_dir) / 'summary.tsv'} and "
               f"{len(summary.zeta_samples)} QQ files\n")
    return outputs, [args.scenario], scenario.seed, message


def cmd_test(args) -> tuple:
    comp = InferenceComponents.from_json(_load_json(args.fit_report, "fit report"))
    tests = [wald_from_components(comp, spec, args.null) for spec in args.contrast]
    body = _table(
        ((t.description, t.estimate, t.standard_error, t.statistic, t.p_value)
         for t in tests),
        ("contrast", "estimate", "se", "statistic", "p_value"),
    )
    return {"tests.tsv": body}, [args.fit_report], None, body


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimoment",
        description="Moment-based fitting and inference for covariate-adjusted "
                    "bipartite network models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to an edge list")
    p_fit.add_argument("edge_list", help="delimited edge list (actor, event[, weight])")
    p_fit.add_argument("--family", default=_env_default("family", "logistic"),
                       help="edge-weight family: logistic | poisson")
    p_fit.add_argument("--delimiter", default=_env_default("delimiter", "\t"))
    p_fit.add_argument("--sum-duplicates", action="store_true",
                       default=_env_flag("sum-duplicates", False),
                       help="sum duplicate edges under a count family")
    p_fit.add_argument("--binarize", action="store_true",
                       default=_env_flag("binarize", False),
                       help="coerce positive weights to 1 before anything else")
    p_fit.add_argument("--permissive", action="store_true",
                       default=_env_flag("permissive", False),
                       help="skip malformed rows instead of failing")
    p_fit.add_argument("--actor-attrs", default=None)
    p_fit.add_argument("--event-attrs", default=None)
    p_fit.add_argument("--mapping", default=None,
                       help="JSON mapping spec for match covariates")
    p_fit.add_argument("--min-degree", type=float,
                       default=_env_default("min-degree", None),
                       help="drop nodes whose degree is not above this")
    p_fit.add_argument("--filter-mode", choices=("once", "iterate"),
                       default=_env_default("filter-mode", "once"))
    p_fit.add_argument("--tol", type=float, default=_env_default("tol", FitOptions.tol))
    p_fit.add_argument("--max-iter", type=int,
                       default=_env_default("max-iter", FitOptions.max_iter))
    p_fit.add_argument("--method", choices=("fisher", "sandwich"),
                       default=_env_default("method", "fisher"))
    p_fit.add_argument("--bias-correct", action=argparse.BooleanOptionalAction,
                       default=_env_flag("bias-correct", True))
    p_fit.add_argument("--out-dir", default=_env_default("out-dir", "."),
                       help="directory for report.tsv, trace.tsv, fit.json, manifest.json")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo scenario file")
    p_sim.add_argument("scenario", help="JSON scenario file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario's master seed")
    p_sim.add_argument("--threads", type=int,
                       default=_env_default("threads", 1),
                       help="worker processes, at least 1")
    p_sim.add_argument("--out-dir", default=_env_default("out-dir", "."))
    p_sim.set_defaults(func=cmd_simulate)

    p_test = sub.add_parser("test", help="Wald tests against a fit report")
    p_test.add_argument("fit_report", help="fit.json sidecar from a fit run")
    p_test.add_argument("--contrast", action="append", required=True,
                        help="e.g. alpha:1-alpha:2, gamma:1=0 (repeatable)")
    p_test.add_argument("--null", type=float, default=None,
                        help="override the null value for every contrast")
    p_test.add_argument("--out-dir", default=None,
                        help="also write tests.tsv and a manifest here")
    p_test.set_defaults(func=cmd_test)
    return parser


def main(argv=None) -> int:
    try:
        # the parser reads the environment overrides, so it is built here
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        outputs, inputs, seed, message = args.func(args)
        if args.out_dir is not None:
            _write_outputs(Path(args.out_dir), outputs, args, inputs, seed,
                           time.perf_counter() - started)
        sys.stdout.write(message)
        return EXIT_OK
    except (DataError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONEXISTENT
    except IllPosedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED
    except BimomentError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
