"""Command-line front end for reproducible batch runs.

Three subcommands cover the whole pipeline:

* ``fit``       ingest an edge list (plus optional attribute tables and a
                match-covariate mapping), optionally filter by degree,
                fit the model, and write the inference report.
* ``simulate``  run a Monte-Carlo scenario file and write the summary
                table and QQ-sample files.
* ``test``      run Wald tests against a fit report's sidecar.

Every run writes a ``manifest.json`` recording the command, the resolved
options, SHA-256 digests of all inputs, the seed, the tool version, and
the wall-clock time.  Outputs are plain delimited text with stable
formatting: re-running a command reproduces them byte for byte.

``fit`` writes ``trace.tsv`` with one row per step of the joint Newton
solver (one ``IterationRecord`` each): ``outer_iteration`` is the step
index, 0 for the starting point; ``inner_iterations`` is the number of
step halvings the step needed; ``degree_norm`` and ``covariate_norm``
are the sup norms of the degree and covariate residuals after the step.

Exit codes: 0 success, 2 config/parse error, 3 nonexistent solution,
4 ill-posed inference, 5 internal error.  Every flag can be supplied via
an environment variable with the ``BIMOMENT_`` prefix (dashes become
underscores, e.g. ``BIMOMENT_MIN_DEGREE=40``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

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
    IllPosedError,
    MaxIterationsError,
    NonExistenceError,
    SingularJacobianError,
)
from .families import get_family
from .fitter import FitOptions, fit
from .inference import (
    InferenceComponents,
    coefficient_inference,
    components_from_fit,
    report_rows,
    wald_from_components,
    write_report,
)
from .simlab import Scenario, run_scenario, write_qq_samples, write_summary_table

ENV_PREFIX = "BIMOMENT_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONEXISTENT = 3
EXIT_ILL_POSED = 4
EXIT_INTERNAL = 5


def _env_default(flag: str, fallback):
    """Environment override for a flag: ``--min-degree`` reads
    ``BIMOMENT_MIN_DEGREE``.  The raw string is returned so that argparse
    converts it with the flag's ``type`` and reports a bad value as a
    usage error."""
    return os.environ.get(ENV_PREFIX + flag.replace("-", "_").upper(), fallback)


def _env_flag(flag: str, fallback: bool) -> bool:
    raw = _env_default(flag, None)
    if raw is None:
        return fallback
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, options: dict, inputs, seed,
                    started: float):
    manifest = {
        "command": command,
        "options": {k: (str(v) if isinstance(v, Path) else v)
                    for k, v in sorted(options.items())
                    if k not in ("func", "command")},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "wall_clock_s": round(time.perf_counter() - started, 3),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_mappings(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"mapping file {path}: {exc}") from None
    if not isinstance(raw, dict) or "mappings" not in raw:
        raise ConfigError(f"mapping file {path} must contain a 'mappings' list")
    mappings = []
    for entry in raw["mappings"]:
        try:
            mappings.append(
                MatchMapping(
                    name=entry["name"],
                    actor_attr=entry["actor_attr"],
                    event_attr=entry["event_attr"],
                    groups=entry["groups"],
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad mapping entry {entry!r}: {exc}") from None
    return mappings


def _fit_options(args) -> FitOptions:
    return FitOptions(
        tol_inner=args.tol,
        tol_outer=args.tol,
        max_inner=args.max_iter,
        max_outer=args.max_iter,
    )


def cmd_fit(args) -> int:
    started = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = [args.edge_list]

    graph = load_edge_list(
        args.edge_list,
        delimiter=args.delimiter,
        mode="count" if args.count_mode else "binary",
        sum_duplicates=args.sum_duplicates,
        binarize=args.binarize,
        strict=not args.permissive,
    )
    if args.min_degree is not None:
        graph = filter_by_degree(graph, args.min_degree, mode=args.filter_mode)

    if args.mapping:
        if not (args.actor_attrs and args.event_attrs):
            raise ConfigError("--mapping requires --actor-attrs and --event-attrs")
        actor_attrs = load_attribute_table(args.actor_attrs, delimiter=args.delimiter)
        event_attrs = load_attribute_table(args.event_attrs, delimiter=args.delimiter)
        mappings = _load_mappings(args.mapping)
        covariates = build_match_covariates(graph, actor_attrs, event_attrs, mappings)
        inputs += [args.actor_attrs, args.event_attrs, args.mapping]
    else:
        covariates = None

    family = get_family(args.family)
    result = fit(graph, covariates, family, _fit_options(args))

    rows = report_rows(result, method=args.method, bias_correct=args.bias_correct)
    write_report(
        rows,
        out_dir / "report.tsv",
        pinned_note=f"beta:{graph.n} ({graph.event_labels[-1]}) pinned to 0",
    )
    with open(out_dir / "trace.tsv", "w", encoding="utf-8") as fh:
        fh.write("outer_iteration\tinner_iterations\tdegree_norm\tcovariate_norm\n")
        for rec in result.trace:
            fh.write(
                f"{rec.outer_iteration}\t{rec.inner_iterations}\t"
                f"{rec.degree_norm:.10g}\t{rec.covariate_norm:.10g}\n"
            )

    comp = components_from_fit(result, method=args.method)
    sidecar = {
        "family": family.name,
        "m": result.m,
        "n": result.n,
        "p": result.covariates.p,
        "converged": result.converged,
        "actor_labels": list(graph.actor_labels),
        "event_labels": list(graph.event_labels),
        "covariate_names": list(result.covariates.names),
        "alpha": result.params.alpha.tolist(),
        "beta": result.params.beta.tolist(),
        "gamma": result.params.gamma.tolist(),
        "theta": comp.theta.tolist(),
        "v_diag": comp.v_diag.tolist(),
        "v_tail": comp.v_tail,
        "u_diag": comp.u_diag.tolist(),
        "u_tail": comp.u_tail,
        "gamma_covariance": comp.gamma_covariance.tolist(),
        "method": args.method,
        "jacobian_summary": result.jacobian_summary,
        "version": __version__,
    }
    if result.covariates.p and args.bias_correct:
        ci = coefficient_inference(result, method=args.method)
        sidecar["gamma_bc"] = ci.estimate_bc.tolist()
        sidecar["bias_term"] = ci.b_star.tolist()
    with open(out_dir / "fit.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_manifest(out_dir, "fit", vars(args), inputs, args.seed, started)
    print(f"fit: {result.m} actors x {result.n} events, "
          f"{result.covariates.p} covariates, converged={result.converged}")
    if result.covariates.p:
        gam = ", ".join(f"{g:.4g}" for g in result.params.gamma)
        print(f"gamma: [{gam}]")
    print(f"wrote {out_dir / 'report.tsv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.scenario, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {args.scenario}: {exc}") from None
    if args.seed is not None:
        raw["seed"] = args.seed
    scenario = Scenario.from_dict(raw)
    summary = run_scenario(scenario, workers=args.threads)
    write_summary_table(summary, out_dir / "summary.tsv")
    qq_paths = write_qq_samples(summary, out_dir)
    _write_manifest(out_dir, "simulate", vars(args), [args.scenario],
                    scenario.seed, started)
    print(f"simulate: {scenario.replications} replications at "
          f"({scenario.m}, {scenario.n}), L={scenario.L:.4g}, "
          f"nonconvergence={summary.nonconvergence_rate:.2%}")
    print(f"wrote {out_dir / 'summary.tsv'} and {len(qq_paths)} QQ files")
    return EXIT_OK


def cmd_test(args) -> int:
    started = time.perf_counter()
    with open(args.fit_report, "r", encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fit report {args.fit_report}: {exc}") from None
    try:
        comp = InferenceComponents(
            m=sidecar["m"],
            n=sidecar["n"],
            theta=sidecar["theta"],
            gamma=sidecar["gamma"],
            v_diag=sidecar["v_diag"],
            v_tail=sidecar["v_tail"],
            u_diag=sidecar["u_diag"],
            u_tail=sidecar["u_tail"],
            gamma_covariance=sidecar["gamma_covariance"],
        )
    except KeyError as exc:
        raise ConfigError(f"fit report is missing field {exc}") from None

    lines = ["contrast\testimate\tse\tstatistic\tp_value"]
    for spec in args.contrast:
        result = wald_from_components(comp, spec, args.null)
        lines.append(
            f"{result.description}\t{result.estimate:.10g}\t"
            f"{result.standard_error:.10g}\t{result.statistic:.10g}\t"
            f"{result.p_value:.10g}"
        )
    body = "\n".join(lines) + "\n"
    sys.stdout.write(body)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "tests.tsv", "w", encoding="utf-8") as fh:
            fh.write(body)
        _write_manifest(out_dir, "test", vars(args), [args.fit_report],
                        None, started)
    return EXIT_OK


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
    p_fit.add_argument("--count-mode", action="store_true",
                       default=_env_flag("count-mode", False),
                       help="treat weights as counts instead of binary")
    p_fit.add_argument("--sum-duplicates", action="store_true",
                       default=_env_flag("sum-duplicates", False),
                       help="sum duplicate edges in count mode")
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
    p_fit.add_argument("--tol", type=float, default=_env_default("tol", 1e-8))
    p_fit.add_argument("--max-iter", type=int, default=_env_default("max-iter", 100))
    p_fit.add_argument("--method", choices=("fisher", "sandwich"),
                       default=_env_default("method", "fisher"))
    p_fit.add_argument("--bias-correct", action=argparse.BooleanOptionalAction,
                       default=_env_flag("bias-correct", True))
    p_fit.add_argument("--seed", type=int, default=_env_default("seed", 0))
    p_fit.add_argument("--threads", type=int,
                       default=_env_default("threads", 1),
                       help="recorded for reproducibility; fitting is single-threaded")
    p_fit.add_argument("--out-dir", default=_env_default("out-dir", "."),
                       help="directory for report.tsv, trace.tsv, fit.json, manifest.json")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo scenario file")
    p_sim.add_argument("scenario", help="JSON scenario file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario's master seed")
    p_sim.add_argument("--threads", type=int,
                       default=_env_default("threads", 1))
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "min_degree", None) is not None:
        args.min_degree = float(args.min_degree)
    try:
        return args.func(args)
    except (DataError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonExistenceError, MaxIterationsError, SingularJacobianError) as exc:
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
