"""Totality of the error taxonomy on random small instances: ``fit``
either returns or raises one of the documented error classes, and the
``fit`` command on the same instance saved to disk, under valid and
invalid ``--tol``/``--max-iter`` values, returns a documented exit code
without a traceback and makes its output directory only when it
succeeds.  The ``test`` command, on mutated ``fit.json`` sidecars and
generated contrast strings, and the ``simulate`` command, on small
scenario files with ill-typed, extreme and non-finite values, do the
same."""

import contextlib
import dataclasses
import io
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimoment import (
    BipartiteGraph,
    DataError,
    FitError,
    InferenceComponents,
    IllPosedError,
    MatchMapping,
    NodeAttributeTable,
    build_match_covariates,
    cli,
    fit,
    get_family,
    save_edge_list,
)

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NONEXISTENT,
              cli.EXIT_ILL_POSED, cli.EXIT_INTERNAL}


@st.composite
def instances(draw):
    """A graph of at most 8 x 8 with up to two match covariates: actor
    class ``c<l>`` and event group ``g<l>`` each ``x`` or ``y``, so
    ``z_ijl`` is 1 where they agree."""
    family = draw(st.sampled_from(("logistic", "poisson")))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    p = draw(st.integers(0, 2))
    top = 1 if family == "logistic" else 4
    cells = draw(st.lists(st.integers(0, top), min_size=m * n, max_size=m * n))
    classes = st.lists(st.sampled_from("xy"), min_size=p, max_size=p)
    actor_rows = {f"a{i}": draw(classes) for i in range(m)}
    event_rows = {f"e{j}": draw(classes) for j in range(n)}
    graph = BipartiteGraph(np.reshape(np.array(cells, dtype=float), (m, n)),
                           tuple(actor_rows), tuple(event_rows))
    return family, graph, p, actor_rows, event_rows


def write_table(path, key, columns, rows):
    lines = ["\t".join((key,) + columns)]
    lines += ["\t".join([label] + values) for label, values in rows.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Half the examples run the command with its default solver options; the
# other half pass a ``--tol`` and a ``--max-iter`` drawn from these, where
# any pair with a bad value must be refused as a configuration error.
SOLVER_OPTIONS = st.one_of(st.none(), st.tuples(
    st.sampled_from((1e-8, 0.0, -1.0, float("nan"), float("inf"))),
    st.sampled_from((1, 100, 0))))


@settings(max_examples=150, deadline=None)
@given(instances(), SOLVER_OPTIONS)
# two identical covariates whose information matrix is exactly singular,
# though its Cholesky factorization passes on a pivot that rounds above 0
@example(("logistic",
          BipartiteGraph(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                         ("a0", "a1", "a2", "a3"), ("e0", "e1")),
          2, {"a0": ["y", "y"], "a1": ["x", "x"], "a2": ["x", "x"], "a3": ["y", "y"]},
          {"e0": ["x", "x"], "e1": ["y", "y"]}), None)
def test_fit_and_cli_fail_only_with_documented_errors(tmp_path_factory, instance,
                                                      solver_options):
    family, graph, p, actor_rows, event_rows = instance
    actor_cols = tuple(f"c{k + 1}" for k in range(p))
    event_cols = tuple(f"g{k + 1}" for k in range(p))
    mappings = [MatchMapping(f"z{k + 1}", actor_cols[k], event_cols[k], {"x": "x", "y": "y"})
                for k in range(p)]
    cov = build_match_covariates(
        graph,
        NodeAttributeTable(actor_cols, {a: dict(zip(actor_cols, v)) for a, v in actor_rows.items()}),
        NodeAttributeTable(event_cols, {e: dict(zip(event_cols, v)) for e, v in event_rows.items()}),
        mappings,
    )
    try:
        fit(graph, cov, get_family(family))
    except (FitError, IllPosedError, DataError):
        pass

    work = tmp_path_factory.mktemp("totality")
    save_edge_list(graph, work / "edges.tsv")
    argv = ["fit", str(work / "edges.tsv"), "--family", family,
            "--out-dir", str(work / "out")]
    if solver_options is not None:
        tol, max_iter = solver_options
        argv += [f"--tol={tol}", f"--max-iter={max_iter}"]
    if p:
        write_table(work / "actors.tsv", "id", actor_cols, actor_rows)
        write_table(work / "events.tsv", "id", event_cols, event_rows)
        (work / "mapping.json").write_text(json.dumps({"mappings": [
            dict(name=mp.name, actor_attr=mp.actor_attr, event_attr=mp.event_attr,
                 groups=mp.groups) for mp in mappings]}))
        argv += ["--actor-attrs", str(work / "actors.tsv"),
                 "--event-attrs", str(work / "events.tsv"),
                 "--mapping", str(work / "mapping.json")]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    # the output directory is made only by a run that succeeds
    assert (work / "out").exists() == (code == cli.EXIT_OK)
    if solver_options is not None and not (np.isfinite(tol) and tol > 0
                                           and max_iter >= 1):
        assert code == cli.EXIT_CONFIG


# A valid sidecar of a 3 x 4 fit with two coefficients, the fields ``test``
# reads; each example mutates a copy of it.
SIDECAR = InferenceComponents(
    m=3, n=4, theta=[0.4, -0.2, 0.1, 0.3, -0.5, 0.0], gamma=[0.5, -1.0],
    v_diag=[2.0, 1.5, 1.0, 1.2, 0.8, 2.5], v_tail=1.5,
    u_diag=[2.1, 1.4, 1.1, 1.0, 0.9, 2.4], u_tail=1.6,
    gamma_covariance=[[0.04, 0.01], [0.01, 0.09]],
).to_json()
FIELDS = tuple(f.name for f in dataclasses.fields(InferenceComponents))
# ill-typed, non-finite and extreme finite values (a tail whose square
# under- or overflows, an integer too large for a float)
ODD = st.one_of(
    st.sampled_from((None, True, "1", {}, [], [[]], [1, "x"], 0, -1, 2.5,
                     float("nan"), float("inf"), -float("inf"), 5e-324, 1e-170,
                     1e200, 1.7976931348623157e308, 10**400)),
    st.floats(), st.integers(-3, 8),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.none()), max_size=8),
    st.lists(st.lists(st.floats(), max_size=3), max_size=3),
)


@st.composite
def sidecars(draw):
    """The text of a ``fit.json`` with up to three of its fields dropped,
    replaced, cut or lengthened, or with one entry of an array replaced;
    now and then not an object at all."""
    raw = json.loads(json.dumps(SIDECAR))
    for name in draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique=True)):
        how = draw(st.sampled_from(("drop", "replace", "length", "entry")))
        value = raw[name]
        if how == "drop":
            del raw[name]
        elif how == "replace" or not isinstance(value, list):
            raw[name] = draw(ODD)
        elif how == "length":
            raw[name] = value[:draw(st.integers(0, len(value)))] + draw(
                st.lists(st.floats(-2, 2), max_size=2))
        elif value:
            value[draw(st.integers(0, len(value) - 1))] = draw(ODD)
    return json.dumps(draw(st.one_of(st.just(raw), st.just(raw), ODD)))


NUMBERS = st.one_of(st.sampled_from(("0", "1.5", "-2", "1e999", "1e-999", "nan",
                                     "inf", "1..2", "e", "+-", "")),
                    st.floats().map(repr))


@st.composite
def contrasts(draw):
    """A contrast in the grammar ``parse_contrast`` reads, with indices
    out of range, kinds that differ or do not exist, and odd null values;
    or any short text."""
    kinds = st.sampled_from(("alpha", "beta", "gamma", "delta", ""))
    indices = st.one_of(st.integers(-1, 7).map(str), st.just("9" * 30), st.just(""))
    spec = f"{draw(kinds)}:{draw(indices)}"
    if draw(st.booleans()):
        spec += f"{draw(st.sampled_from(('-', ' - ')))}{draw(kinds)}:{draw(indices)}"
    if draw(st.booleans()):
        spec += f"{draw(st.sampled_from(('=', ' = ')))}{draw(NUMBERS)}"
    return draw(st.one_of(st.just(spec), st.just(spec), st.text(max_size=12)))


@settings(max_examples=300, deadline=None)
@given(sidecars(), st.lists(contrasts(), min_size=1, max_size=3),
       st.one_of(st.none(), NUMBERS))
# too many digits for int(), tails whose square under- and overflows, and
# nesting too deep for the JSON parser
@example(json.dumps(SIDECAR), ["alpha:" + "1" * 5000], None)
@example(json.dumps({**SIDECAR, "v_tail": 1e-170}), ["beta:1"], None)
@example(json.dumps({**SIDECAR, "v_tail": 1e200}), ["alpha:2"], None)
@example("[" * 100_000 + "]" * 100_000, ["gamma:1"], None)
def test_test_command_fails_only_with_documented_exit_codes(
        tmp_path_factory, sidecar, specs, null):
    work = tmp_path_factory.mktemp("totality_test")
    (work / "fit.json").write_text(sidecar, encoding="utf-8")
    argv = ["test", str(work / "fit.json"), "--out-dir", str(work / "out")]
    argv += [f"--contrast={spec}" for spec in specs]
    if null is not None:
        argv.append(f"--null={null}")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse refuses a --null that is no number
            code = exc.code
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    assert (work / "out").exists() == (code == cli.EXIT_OK)


# A small valid scenario; each example sets some of its keys, or adds one.
SCENARIO = {"m": 4, "n": 3, "L": 0.0, "gamma_star": [0.5, 1.0], "family": "logistic",
            "scheme": "sign-product-2d", "replications": 2, "seed": 1}
# Sizes and counts stay small or are refused: no example allocates a large
# array or runs a long study.  The extreme integers are beyond what an array
# or a list can address, so they must be refused.
COUNTS = st.one_of(st.integers(-1, 6), st.sampled_from(
    (None, True, "3", 3.0, 2.5, [], {}, float("nan"), float("inf"), 2**62, 10**400)))
LEVELS = st.one_of(st.floats(), st.floats(-40, 40), st.sampled_from(
    (None, True, "0", [], 10**400, 5e-324, 1e-170, 1e200, 1.7976931348623157e308)))
SCENARIO_VALUES = {
    "m": COUNTS, "n": COUNTS, "replications": COUNTS,
    "seed": st.one_of(COUNTS, st.sampled_from((2**64, 10**400))),
    "L": LEVELS, "L_factor": LEVELS,
    "gamma_star": st.one_of(st.lists(LEVELS, max_size=3), LEVELS, st.text(max_size=3),
                            st.dictionaries(st.text(max_size=2), LEVELS, max_size=2)),
    "family": st.one_of(st.sampled_from(("logistic", "poisson", "Poisson", "")), ODD),
    "scheme": st.one_of(st.sampled_from(("sign-product-2d", "none", "")), ODD),
}


@st.composite
def scenario_files(draw):
    """The text of a scenario file with up to three of its keys set to
    drawn values or dropped (``L`` goes when ``L_factor`` comes, now and
    then); one in eight has a key no scenario has, and one in eight is
    not an object at all."""
    if draw(st.integers(0, 7)) == 0:
        return json.dumps(draw(ODD))
    raw = dict(SCENARIO)
    if draw(st.integers(0, 7)) == 0:
        raw["bogus"] = draw(ODD)
    for key in draw(st.lists(st.sampled_from(sorted(SCENARIO_VALUES)), max_size=3,
                             unique=True)):
        if key in raw and draw(st.integers(0, 3)) == 0:
            del raw[key]
        else:
            raw[key] = draw(SCENARIO_VALUES[key])
            if key == "L_factor" and draw(st.booleans()):
                raw.pop("L", None)
    return json.dumps(raw)


@settings(max_examples=200, deadline=None)
@given(scenario_files())
# a count too large for a list of records, a level too large for a float,
# and a level whose truth overflows
@example(json.dumps({**SCENARIO, "replications": 10**400}))
@example(json.dumps({**SCENARIO, "L": 10**400}))
@example(json.dumps({**SCENARIO, "L": 1e308}))
def test_simulate_command_fails_only_with_documented_exit_codes(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("totality_simulate")
    (work / "scenario.json").write_text(text, encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", str(work / "scenario.json"),
                         "--out-dir", str(work / "out")])
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    assert (work / "out").exists() == (code == cli.EXIT_OK)
