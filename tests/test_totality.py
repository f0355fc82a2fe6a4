"""Totality of the error taxonomy on random small instances: ``fit``
either returns or raises one of the documented error classes, and the
``fit`` command on the same instance saved to disk, under valid and
invalid ``--tol``/``--max-iter`` values, returns a documented exit code
without a traceback."""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bimoment import (
    BipartiteGraph,
    DataError,
    FitError,
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
    if solver_options is not None and not (np.isfinite(tol) and tol > 0
                                           and max_iter >= 1):
        assert code == cli.EXIT_CONFIG
