"""Graph containers, ingestion, degree filtering, and match covariates."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimoment import data
from bimoment import (
    BipartiteGraph,
    ConfigError,
    CovariateTensor,
    DataError,
    MatchMapping,
    NodeAttributeTable,
    ParameterSet,
    build_match_covariates,
    degrees,
    filter_by_degree,
    load_attribute_table,
    load_edge_list,
    save_edge_list,
)


def graph_from(weights, prefix=("a", "e")):
    w = np.asarray(weights, dtype=float)
    return BipartiteGraph(
        weights=w,
        actor_labels=tuple(f"{prefix[0]}{i}" for i in range(w.shape[0])),
        event_labels=tuple(f"{prefix[1]}{j}" for j in range(w.shape[1])),
    )


def reference_load_edge_list(
    path,
    delimiter: str = "\t",
    mode: str = "binary",
    sum_duplicates: bool = False,
    binarize: bool = False,
    strict: bool = True,
) -> BipartiteGraph:
    """The line-by-line edge-list reader that ``load_edge_list`` replaced,
    kept as the oracle of its parity tests."""
    if mode not in ("binary", "count"):
        raise ConfigError(f"unknown edge-list mode {mode!r}")
    actor_index: dict = {}
    event_index: dict = {}
    entries: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            parts = line.split(delimiter)
            if len(parts) < 2 or (len(parts) > 3 and strict):
                if strict:
                    raise DataError(
                        f"expected 2 or 3 columns, got {len(parts)}", line_number=lineno
                    )
                continue
            actor, event = parts[0].strip(), parts[1].strip()
            if not actor or not event:
                if strict:
                    raise DataError("empty node id", line_number=lineno)
                continue
            if len(parts) >= 3 and parts[2].strip():
                try:
                    weight = float(parts[2])
                except ValueError:
                    if strict:
                        raise DataError(
                            f"bad weight {parts[2]!r}", line_number=lineno
                        ) from None
                    continue
            else:
                weight = 1.0
            if binarize and np.isfinite(weight):
                weight = 1.0 if weight > 0 else 0.0
            if not np.isfinite(weight) or weight < 0:
                raise DataError(f"weight {weight!r} out of range", line_number=lineno)
            if mode == "binary" and weight not in (0.0, 1.0):
                raise DataError(
                    f"weight {weight:g} invalid for binary mode", line_number=lineno
                )
            i = actor_index.setdefault(actor, len(actor_index))
            j = event_index.setdefault(event, len(event_index))
            if (i, j) in entries:
                if mode == "binary":
                    raise DataError(
                        f"duplicate edge ({actor}, {event})"
                        + ("; sum_duplicates applies only to counts (count mode, "
                           "a count family)" if sum_duplicates else ""),
                        line_number=lineno,
                    )
                if not sum_duplicates:
                    raise DataError(
                        f"duplicate edge ({actor}, {event}); "
                        "pass sum_duplicates to aggregate",
                        line_number=lineno,
                    )
                entries[(i, j)] += weight
            else:
                entries[(i, j)] = weight
    if not entries:
        raise DataError("no edges in file")
    weights = np.zeros((len(actor_index), len(event_index)))
    for (i, j), w in entries.items():
        weights[i, j] = w
    return BipartiteGraph(
        weights=weights,
        actor_labels=tuple(actor_index),
        event_labels=tuple(event_index),
    )


def reference_save_edge_list(graph, path, delimiter="\t"):
    """The cell-by-cell writer that ``save_edge_list`` replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        rows, cols = np.nonzero(graph.weights)
        for i, j in zip(rows, cols):
            w = graph.weights[i, j]
            fh.write(
                f"{graph.actor_labels[i]}{delimiter}{graph.event_labels[j]}"
                f"{delimiter}{w:.17g}\n"
            )


def load_outcome(load, path, **options):
    """Labels, shape and weight bytes of a loaded graph, or the class and
    message of the error the load raised."""
    try:
        graph = load(path, **options)
    except Exception as exc:
        return type(exc), str(exc)
    return graph.actor_labels, graph.event_labels, graph.weights.shape, graph.weights.tobytes()


EDGE_LABELS = ("a", "b", "c", " a", "b ", " c ", "a:", "", " ")
# ids that only byte-exact token keys tell apart: longer than 8 and 16
# bytes with shared first and last 8 bytes, multi-byte UTF-8, padding
# that str.strip removes (NBSP, EM SPACE, IDEOGRAPHIC SPACE, NEL), NUL
# bytes and a last byte from 0x01 to 0x08
KEYED_LABELS = (
    "abcdefgh", "abcdefgh1", "abcdefgh12", "abcdefgh\x00",
    "abcdefgh1stuvwxyz", "abcdefgh2stuvwxyz", "abcdefgh12stuvwxyz",
    "x" * 40, "x" * 20 + "y" + "x" * 19,
    "é", "中", "éé", "é" * 9, "中a中",
    "\u00a0a", "a\u2003", "\u3000a\u3000", "\u0085a", "\u00a0",
    "\x00", "a\x00", "a\x00\x00", "a\x00b", "abcdef", "abcdef\x07",
    "abcdefg", "abcdefg\x01", "abcdefg\x08",
    # their length-16 key rows share a hash, so only the rows tell them apart
    "aaaaaaaabbbbbbbb", "aaaaaaahbbbbbbba",
)
EDGE_WEIGHTS = ("1", "0", "2.5", " 3 ", "-1", "x", " x ", "inf", "-inf", "nan", "1e3", "",
                "3", "3 ", "\u00a03", "3\u3000", "\u2003", "3\x00")
BLANK_LINES = ("", "  ", "\t", " \t ")


@st.composite
def edge_files(draw):
    """``(text, delimiter)`` of a small edge list with rows of 1 to 5
    columns, blank lines, padded, empty, long, non-ASCII and NUL-bearing
    ids, and mixed line endings."""
    delimiter = draw(st.sampled_from(("\t", ",", "::", "→", "é")))
    label = st.sampled_from(EDGE_LABELS) | st.sampled_from(KEYED_LABELS)
    row = st.tuples(
        label, label, st.lists(st.sampled_from(EDGE_WEIGHTS), max_size=3),
    ).map(lambda r: delimiter.join((r[0], r[1], *r[2])))
    other = label | st.sampled_from(BLANK_LINES)     # one column or blank
    lines = draw(st.lists(st.one_of(row, row, row, other), min_size=1, max_size=12))
    endings = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text[: -len(endings[-1])]    # no final newline
    return text, delimiter


class TestDegrees:
    def test_all_ones(self):
        deg = degrees(graph_from(np.ones((3, 2))))
        assert np.array_equal(deg.d, [2, 2, 2])
        assert np.array_equal(deg.b, [3, 3])

    def test_zero_graph(self):
        deg = degrees(graph_from(np.zeros((2, 3))))
        assert not deg.d.any() and not deg.b.any()

    def test_matches_double_loop(self, rng):
        w = (rng.random((5, 4)) < 0.5).astype(float)
        deg = degrees(graph_from(w))
        for i in range(5):
            assert deg.d[i] == sum(w[i, j] for j in range(4))
        for j in range(4):
            assert deg.b[j] == sum(w[i, j] for i in range(5))

    def test_total_weight_identity(self, rng):
        w = rng.integers(0, 4, size=(6, 7)).astype(float)
        deg = degrees(graph_from(w))
        assert deg.d.sum() == pytest.approx(deg.b.sum())


class TestGraphValidation:
    def test_rejects_negative_weight(self):
        with pytest.raises(DataError):
            graph_from([[1.0, -0.5]])

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(DataError):
            graph_from([[1.0, np.nan]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DataError):
            BipartiteGraph(np.ones((2, 2)), ("a", "a"), ("e0", "e1"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DataError):
            BipartiteGraph(np.ones((2, 2)), ("a0",), ("e0", "e1"))

    def test_binary_detection(self):
        assert graph_from([[0, 1], [1, 0]]).is_binary
        assert not graph_from([[0, 2], [1, 0]]).is_binary


class TestEdgeListIO:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("u1\tm1\nu1\tm2\nu2\tm1\n")
        graph = load_edge_list(path)
        assert (graph.m, graph.n) == (2, 2)
        deg = degrees(graph)
        assert np.array_equal(deg.d, [2, 1])
        assert np.array_equal(deg.b, [2, 1])
        assert graph.actor_labels == ("u1", "u2")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no edges"):
            load_edge_list(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\tm1\njunk\nu2\tm2\n")
        with pytest.raises(DataError, match="line 2"):
            load_edge_list(path)

    def test_empty_delimiter_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("u1\tm1\n")
        with pytest.raises(ConfigError, match="delimiter must not be empty"):
            load_edge_list(path, delimiter="")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_not_utf8_reports_line_and_offset(self, tmp_path, newline):
        path = tmp_path / "edges.tsv"
        lines = [b"u1\tm1", b"u2\tm2", b"u3\tm\xff3", b"u4\tm4"]
        path.write_bytes(newline.join(lines) + newline)
        offset = 2 * (5 + len(newline)) + 4     # after two lines and "u3\tm"
        with pytest.raises(DataError) as exc:
            load_edge_list(path)
        assert str(exc.value) == \
            f"line 3: {path} is not valid UTF-8 (byte 0xff at offset {offset})"
        assert exc.value.line_number == 3

    def test_bad_weight_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\tm1\t1\nu2\tm1\tx\n")
        with pytest.raises(DataError, match="line 2"):
            load_edge_list(path, mode="count")

    def test_duplicate_edge_binary_is_error(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("u1\tm1\nu1\tm1\n")
        with pytest.raises(DataError, match="duplicate") as plain:
            load_edge_list(path)
        assert "sum_duplicates" not in str(plain.value)
        # the flag does not sum 0/1 edges, and the error says so
        with pytest.raises(DataError, match=r"duplicate edge \(u1, m1\); sum_duplicates "
                                            r"applies only to counts \(count mode"):
            load_edge_list(path, sum_duplicates=True)
        # a file without duplicates still loads
        path.write_text("u1\tm1\nu2\tm1\n")
        assert load_edge_list(path, sum_duplicates=True).weights.sum() == 2.0

    def test_duplicates_summed_in_count_mode_with_flag(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("u1\tm1\t2\nu1\tm1\t3\nu2\tm1\t1\n")
        with pytest.raises(DataError):
            load_edge_list(path, mode="count")
        graph = load_edge_list(path, mode="count", sum_duplicates=True)
        assert graph.weights[0, 0] == 5.0

    def test_rating_style_file_total_weight(self, tmp_path, rng):
        # 50 distinct (user, movie) rating rows, binarized
        path = tmp_path / "ratings.tsv"
        pairs = [(f"u{i}", f"m{j}") for i in range(10) for j in range(5)]
        lines = [f"{u}\t{v}\t{rng.integers(1, 6)}" for u, v in pairs]
        path.write_text("\n".join(lines) + "\n")
        graph = load_edge_list(path, binarize=True)
        assert graph.total_weight == 50.0

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_binarize_keeps_non_finite_weights_out_of_range(self, tmp_path, weight):
        path = tmp_path / "ratings.tsv"
        path.write_text(f"u1\tm1\t{weight}\nu1\tm2\t-3\n")
        with pytest.raises(DataError) as exc:
            load_edge_list(path, binarize=True)
        assert str(exc.value) == f"line 1: weight {float(weight)!r} out of range"
        # a negative finite rating still counts as no edge
        path.write_text("u1\tm1\t4\nu1\tm2\t-3\n")
        assert load_edge_list(path, binarize=True).weights.tolist() == [[1.0, 0.0]]

    def test_permissive_mode_skips_garbage(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_text("u1\tm1\nnot-a-row\nu2\tm1\tbad\nu2\tm2\n")
        graph = load_edge_list(path, strict=False)
        assert graph.total_weight == 2.0

    def test_round_trip_keeps_every_digit(self, tmp_path):
        w = np.array([[1 / 3, 0.1], [1e-300, 123456789.123]])
        save_edge_list(graph_from(w), tmp_path / "edges.tsv")
        graph = load_edge_list(tmp_path / "edges.tsv", mode="count")
        assert graph.weights.tobytes() == w.tobytes()

    def test_round_trip(self, tmp_path, rng):
        # load -> save -> load reproduces weights and labels exactly
        w = (rng.random((6, 5)) < 0.6).astype(float)
        w[w.sum(axis=1) == 0, 0] = 1.0  # no isolated nodes
        source = tmp_path / "source.tsv"
        save_edge_list(graph_from(w), source)
        first = load_edge_list(source, mode="count")
        resaved = tmp_path / "resaved.tsv"
        save_edge_list(first, resaved)
        second = load_edge_list(resaved, mode="count")
        assert second.actor_labels == first.actor_labels
        assert second.event_labels == first.event_labels
        assert np.array_equal(second.weights, first.weights)

    def test_save_matches_cell_by_cell_writer(self, tmp_path, rng):
        w = rng.integers(0, 4, size=(30, 20)).astype(float)
        w[0, 0], w[1, 1] = 1.0 / 3.0, 1e15
        graph = graph_from(w)
        save_edge_list(graph, tmp_path / "new.tsv")
        reference_save_edge_list(graph, tmp_path / "old.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()


class TestEdgeListParity:
    """``load_edge_list`` against the line-by-line reader it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(
        edge_files(),
        st.sampled_from(("binary", "count")),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from((1, 2, 3, 5, 8, 1 << 16, data._BLOCK_CHARS)),
    )
    @example(("u\tm\t x \r\n", "\t"), "count", False, False, True, 1 << 16)
    def test_matches_line_by_line_reader(
        self, tmp_path_factory, source, mode, sum_duplicates, binarize, strict, block
    ):
        text, delimiter = source
        path = tmp_path_factory.getbasetemp() / "parity.txt"
        path.write_bytes(text.encode("utf-8"))
        options = dict(delimiter=delimiter, mode=mode, sum_duplicates=sum_duplicates,
                       binarize=binarize, strict=strict)
        with mock.patch.object(data, "_BLOCK_CHARS", block):
            outcome = load_outcome(load_edge_list, path, **options)
        assert outcome == load_outcome(reference_load_edge_list, path, **options)

    @pytest.mark.parametrize("faults, expected", [
        ({9000: "junk", 11000: "u1\tm1"}, "line 9001: expected 2 or 3 columns, got 1"),
        ({8000: "u3\tm3", 9000: "junk"}, "line 8001: duplicate edge (u3, m3)"),
    ])
    def test_first_fault_past_the_first_block(self, tmp_path, faults, expected):
        lines = [f"u{i}\tm{i}" for i in range(12000)]
        for index, line in faults.items():
            lines[index] = line
        path = tmp_path / "long.tsv"
        path.write_text("\n".join(lines) + "\n")
        # blocks of 64 Ki characters, so the faults lie past the first one
        with mock.patch.object(data, "_BLOCK_CHARS", 1 << 16):
            assert sum(len(line) + 1 for line in lines[:8000]) > data._BLOCK_CHARS
            with pytest.raises(DataError) as exc:
                load_edge_list(path)
        assert str(exc.value) == expected
        assert load_outcome(reference_load_edge_list, path) == (DataError, expected)

    def test_tokens_whose_key_rows_share_a_hash_stay_apart(self):
        # a 16-byte token's key row is (16, w0, w1, w1, w1), w1 its last 8
        # bytes, hashed as sum((2j + 1) * row[j]) times an odd constant, so
        # w0 + 7 and w1 - 1 leave the hash as it is
        ids = ["aaaaaaaabbbbbbbb", "aaaaaaahbbbbbbba"] * 3
        buf = "\n".join(ids).encode() + bytes(8)
        starts = 17 * np.arange(len(ids))
        tokens = data._Tokens(buf, starts, starts + 16)
        assert [tokens.texts[g] for g in tokens.inverse] == ids

    def test_long_ids_keep_memory_bounded_by_the_file(self, tmp_path):
        # a 1 MB id, twice, among 50k short lines: a key costs at most twice
        # its token, never a copy of the longest id per token of the block
        big = "x" * 500_000 + "é" * 250_000
        lines = [f"u{i % 500}\tm{i // 500}" for i in range(50_000)]
        lines[10_000], lines[40_000] = f"{big}\tm0", f"u0\t{big}"
        path = tmp_path / "long_ids.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            graph = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert big in graph.actor_labels and big in graph.event_labels
        assert load_outcome(reference_load_edge_list, path) == (
            graph.actor_labels, graph.event_labels, graph.weights.shape,
            graph.weights.tobytes(),
        )
        assert peak < 6 * path.stat().st_size

    def test_negative_zero_weights_keep_their_sign(self, tmp_path):
        path = tmp_path / "zeros.tsv"
        path.write_text("u1\tm1\t-0\nu1\tm1\t-0\nu2\tm1\t-0\nu2\tm1\t0\nu1\tm2\t2\n")
        options = dict(mode="count", sum_duplicates=True)
        outcome = load_outcome(load_edge_list, path, **options)
        assert outcome == load_outcome(reference_load_edge_list, path, **options)
        assert np.signbit(load_edge_list(path, **options).weights).tolist() == [
            [True, False], [False, False]
        ]


class TestDegreeFilter:
    def test_removes_low_degree_actor(self):
        w = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        filtered = filter_by_degree(graph_from(w), 1)
        assert filtered.actor_labels == ("a1", "a2")
        assert filtered.event_labels == ("e0", "e1", "e2")

    def test_threshold_zero_is_identity_without_isolates(self, rng):
        w = (rng.random((5, 5)) < 0.7).astype(float)
        w[w.sum(axis=1) == 0, 0] = 1.0
        w[0, w.sum(axis=0) == 0] = 1.0
        graph = graph_from(w)
        filtered = filter_by_degree(graph, 0)
        assert np.array_equal(filtered.weights, graph.weights)

    def test_one_shot_can_leave_degrees_at_or_below_threshold(self):
        # actor a0's degree-2 survives the pass, but one of its edges dies
        # with the removed event, leaving it at 1 <= threshold
        w = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0, 1.0],
        ])
        graph = graph_from(w)
        filtered = filter_by_degree(graph, 1, mode="once")
        assert filtered.event_labels == ("e1", "e2", "e3")
        assert degrees(filtered).d.min() <= 1

    def test_iterate_mode_reaches_fixed_point(self):
        w = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0, 1.0],
        ])
        filtered = filter_by_degree(graph_from(w), 1, mode="iterate")
        deg = degrees(filtered)
        assert (deg.d > 1).all() and (deg.b > 1).all()

    def test_empty_result_is_error(self):
        with pytest.raises(DataError, match="removed all"):
            filter_by_degree(graph_from(np.eye(3)), 5)

    def test_labels_ending_in_nul_are_kept(self):
        # numpy's U arrays drop trailing NULs, which would rename 'a\x00'
        # to 'a' and collide with the actor already called 'a'
        w = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        graph = BipartiteGraph(w, ("a\x00", "a", "c"), ("x\x00", "x", "z"))
        filtered = filter_by_degree(graph, 1)
        assert filtered.actor_labels == ("a\x00", "a")
        assert filtered.event_labels == ("x\x00", "x")

    def test_matches_set_based_oracle(self, rng):
        w = (rng.random((20, 20)) < 0.3).astype(float)
        # plant guaranteed low-degree nodes
        w[3, :] = 0.0
        w[3, 0] = 1.0
        w[:, 7] = 0.0
        w[0, 7] = 1.0
        graph = graph_from(w)
        threshold = 2
        deg = degrees(graph)
        keep_a = {i for i in range(20) if deg.d[i] > threshold}
        keep_e = {j for j in range(20) if deg.b[j] > threshold}
        expected = w[np.ix_(sorted(keep_a), sorted(keep_e))]
        filtered = filter_by_degree(graph, threshold, mode="once")
        assert np.array_equal(filtered.weights, expected)
        assert filtered.actor_labels == tuple(f"a{i}" for i in sorted(keep_a))


class TestCovariateTensor:
    def test_declared_bound_enforced(self):
        with pytest.raises(DataError, match="bound"):
            CovariateTensor(np.full((2, 2, 1), 3.0), bound=1.0)

    def test_bound_recorded_when_not_declared(self):
        tensor = CovariateTensor(np.full((2, 2, 1), -2.5))
        assert tensor.bound == 2.5

    @pytest.mark.parametrize("values, expected", [
        ([-3.0, 1.0], 3.0), ([2.0, -1.0], 2.0), ([0.0, -0.0], 0.0), ([-0.0, -0.0], 0.0),
    ])
    def test_recorded_bound_is_the_sup_norm(self, values, expected):
        bound = CovariateTensor(np.array(values).reshape(1, 2, 1)).bound
        assert bound == expected and math.copysign(1.0, bound) == 1.0

    def test_empty(self):
        tensor = CovariateTensor.empty(3, 4)
        assert tensor.p == 0 and tensor.values.shape == (3, 4, 0)

    @pytest.mark.parametrize("bound", [math.nan, -1.0, -math.inf, "1", 1j])
    def test_invalid_bound_is_a_config_error(self, bound):
        with pytest.raises(ConfigError, match=re.escape(repr(bound))):
            CovariateTensor(np.zeros((2, 2, 1)), bound=bound)

    @pytest.mark.parametrize("bound", [0, 0.0, 2, np.float64(1.5), math.inf])
    def test_real_nonnegative_bound_is_kept(self, bound):
        tensor = CovariateTensor(np.zeros((2, 2, 1)), bound=bound)
        assert tensor.bound == bound

    @pytest.mark.parametrize("layout", ["C", "F", "moveaxis", "strided", "p0"])
    def test_values_view_the_planes_whatever_the_input_order(self, layout):
        base = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        values = {
            "C": base,
            "F": np.asfortranarray(base),
            "moveaxis": np.moveaxis(base.reshape(4, 2, 3), 0, 2),
            "strided": np.arange(2 * 6 * 4, dtype=float).reshape(2, 6, 4)[:, ::2],
            "p0": np.zeros((2, 3, 0)),
        }[layout]
        tensor = CovariateTensor(values)
        assert tensor.planes.flags.c_contiguous
        assert tensor.planes.shape == (tensor.p, 2, 3)
        assert tensor.values.base is tensor.planes
        assert not tensor.planes.flags.writeable and not tensor.values.flags.writeable
        np.testing.assert_array_equal(tensor.values, values)
        if tensor.p:    # an empty array shares no memory with anything
            assert np.shares_memory(tensor.values, tensor.planes)


    def test_writeable_input_is_copied(self):
        planes = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        read_only_view = planes.view()
        read_only_view.setflags(write=False)
        for values in (np.moveaxis(planes, 0, 2), np.moveaxis(read_only_view, 0, 2)):
            tensor = CovariateTensor(values)
            before = tensor.planes.copy()
            planes += 1.0
            assert np.array_equal(tensor.planes, before)
            assert not np.shares_memory(tensor.planes, planes)

    def test_read_only_planes_are_adopted(self):
        planes = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4).copy()
        planes.setflags(write=False)
        tensor = CovariateTensor(np.moveaxis(planes, 0, 2))
        assert np.shares_memory(tensor.planes, planes)
        assert np.array_equal(tensor.planes, planes)
        assert tensor.planes.flags.c_contiguous and not tensor.planes.flags.writeable


def einsum_contractions(z, w, gamma):
    """The covariate contractions as ``np.einsum`` computes them: the
    oracle the BLAS products of ``CovariateTensor`` are checked against."""
    return dict(
        predictor=np.einsum("ijk,k->ij", z, gamma),
        total=np.einsum("ijk,ij->k", z, w),
        gram=np.einsum("ijk,ijl,ij->kl", z, z, w),
        actor=np.einsum("ijk,ij->ki", z, w),
        event=np.einsum("ijk,ij->kj", z, w),
    )


class TestCovariateContractions:
    """The predictor, ``total`` and ``plane_moments`` against the einsum
    oracle, for contiguous and non-contiguous covariates and weights."""

    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("shape", [(1, 5), (5, 2), (3, 9), (9, 3)])
    @pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided"])
    def test_match_einsum_oracle(self, shape, p, layout):
        m, n = shape
        rng = np.random.default_rng([m, n, p])
        z = rng.normal(size=(m, 2 * n, p))
        w = rng.uniform(0.1, 2.0, size=(2 * n, m)).T
        if layout == "contiguous":
            z, w = np.ascontiguousarray(z[:, :n]), np.ascontiguousarray(w[:, :n])
        elif layout == "fortran":
            z, w = np.asfortranarray(z[:, :n]), np.asfortranarray(w[:, :n])
        else:
            z, w = z[:, ::2], w[:, ::2]
        gamma = rng.normal(size=p)
        tensor = CovariateTensor(z)
        want = einsum_contractions(z, w, gamma)
        actor, event, gram = data.plane_moments(tensor.planes, w)
        predictor = ParameterSet(np.zeros(m), np.zeros(n), gamma).linear_predictor(tensor)
        got = dict(predictor=predictor, total=tensor.total(w), gram=gram,
                   actor=actor, event=event)
        for name, value in got.items():
            assert value.shape == want[name].shape, name
            np.testing.assert_allclose(value, want[name], rtol=1e-12, atol=0, err_msg=name)
        assert np.array_equal(gram, gram.T)


def attrs(columns, rows):
    return NodeAttributeTable(columns=columns, rows=rows)


class TestMatchCovariates:
    GRAPH = BipartiteGraph(
        np.ones((3, 3)),
        ("u1", "u2", "u3"),
        ("m1", "m2", "m3"),
    )
    ACTORS = attrs(
        ("sex", "age"),
        {
            "u1": {"sex": "M", "age": "young"},
            "u2": {"sex": "F", "age": "old"},
            "u3": {"sex": "M", "age": "old"},
        },
    )
    EVENTS = attrs(
        ("genre",),
        {
            "m1": {"genre": "action"},
            "m2": {"genre": "romance"},
            "m3": {"genre": "war"},
        },
    )
    SEX_MAP = MatchMapping(
        name="sex_match",
        actor_attr="sex",
        event_attr="genre",
        groups={"action": "M", "romance": "F", "war": "M"},
    )
    AGE_MAP = MatchMapping(
        name="age_match",
        actor_attr="age",
        event_attr="genre",
        groups={"action": "young", "romance": "young", "war": "old"},
    )

    def test_single_match_and_mismatch(self):
        tensor = build_match_covariates(
            self.GRAPH, self.ACTORS, self.EVENTS, [self.SEX_MAP]
        )
        assert tensor.values[0, 0, 0] == 1.0  # M actor, M-group event
        assert tensor.values[0, 1, 0] == 0.0  # M actor, F-group event

    def test_hand_enumerated_two_mapping_tensor(self):
        tensor = build_match_covariates(
            self.GRAPH, self.ACTORS, self.EVENTS, [self.SEX_MAP, self.AGE_MAP]
        )
        # sex layer: u1,u3 are M -> match m1, m3; u2 is F -> match m2
        expected_sex = np.array(
            [[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=float
        )
        # age layer: young matches m1, m2; old matches m3
        expected_age = np.array(
            [[1, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=float
        )
        assert np.array_equal(tensor.values[:, :, 0], expected_sex)
        assert np.array_equal(tensor.values[:, :, 1], expected_age)
        assert tensor.p == 2

    def test_planes_are_adopted_without_a_copy(self):
        tensor = build_match_covariates(
            self.GRAPH, self.ACTORS, self.EVENTS, [self.SEX_MAP, self.AGE_MAP]
        )
        # a view of the builder's own read-only array, not a copy of it
        assert tensor.planes.base is not None and not tensor.planes.base.flags.writeable
        assert tensor.planes.flags.c_contiguous and not tensor.planes.flags.writeable

    def test_output_is_binary_with_unit_bound(self):
        tensor = build_match_covariates(
            self.GRAPH, self.ACTORS, self.EVENTS, [self.SEX_MAP, self.AGE_MAP]
        )
        assert set(np.unique(tensor.values)) <= {0.0, 1.0}
        assert tensor.bound == 1.0

    def test_classes_on_one_side_only_match_string_comparison(self, rng):
        # actor classes no event group takes ("X", and "" on some actors),
        # groups no actor holds ("Y", "XX"), and labels that are prefixes of
        # one another: the integer codes give the planes string equality gives
        m, n = 40, 30
        classes = rng.choice(["M", "F", "X", "", "MM"], size=m)
        values = rng.choice(["a", "b", "c", "d", "e"], size=n)
        groupings = ({"a": "M", "b": "F", "c": "Y", "d": "XX", "e": "M"},
                     {"a": "", "b": "X", "c": "MM", "d": "M", "e": "Q"})
        graph = graph_from(np.ones((m, n)))
        actors = attrs(("c",), {a: {"c": str(k)} for a, k in zip(graph.actor_labels, classes)})
        events = attrs(("v",), {e: {"v": str(v)} for e, v in zip(graph.event_labels, values)})
        mappings = [MatchMapping(f"z{k}", "c", "v", g) for k, g in enumerate(groupings)]
        tensor = build_match_covariates(graph, actors, events, mappings)
        for plane, groups in zip(tensor.planes, groupings):
            want = classes[:, None] == np.array([groups[v] for v in values])[None, :]
            assert np.array_equal(plane, want.astype(float))

    def test_labels_that_differ_only_in_trailing_nul_do_not_match(self):
        actors = attrs(("sex",), {"u1": {"sex": "M\x00"}, "u2": {"sex": "M"},
                                  "u3": {"sex": "F"}})
        tensor = build_match_covariates(self.GRAPH, actors, self.EVENTS, [self.SEX_MAP])
        expected = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(tensor.values[:, :, 0], expected)

    def test_group_that_is_not_a_string_is_rejected(self):
        with pytest.raises(ConfigError, match="group 1 is not a string"):
            MatchMapping("z", "sex", "genre", {"action": 1})

    def test_unmapped_event_value_names_the_value(self):
        bad_map = MatchMapping(
            name="sex_match", actor_attr="sex", event_attr="genre",
            groups={"action": "M", "romance": "F"},  # war missing
        )
        with pytest.raises(ConfigError, match="war"):
            build_match_covariates(self.GRAPH, self.ACTORS, self.EVENTS, [bad_map])

    def test_node_missing_from_table(self):
        sparse_actors = attrs(("sex",), {"u1": {"sex": "M"}, "u2": {"sex": "F"}})
        with pytest.raises(DataError, match="u3"):
            build_match_covariates(
                self.GRAPH, sparse_actors, self.EVENTS, [self.SEX_MAP]
            )


class TestAttributeTable:
    def test_load(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_text("id\tsex\tage\nu1\tM\tyoung\nu2\tF\told\n")
        table = load_attribute_table(path)
        assert table.columns == ("sex", "age")
        assert table.get("u2", "sex") == "F"
        assert len(table) == 2

    def test_duplicate_node_rejected(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_text("id\tsex\nu1\tM\nu1\tF\n")
        with pytest.raises(DataError, match="line 3"):
            load_attribute_table(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_text("id\tsex\tsex\nu1\tM\tF\n")
        with pytest.raises(DataError, match="^line 1: header repeats column 'sex'"):
            load_attribute_table(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_text("id\tsex\nu1\tM\textra\n")
        with pytest.raises(DataError, match="line 2"):
            load_attribute_table(path)

    def test_empty_delimiter_rejected(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_text("id\tsex\nu1\tM\n")
        with pytest.raises(ConfigError, match="delimiter must not be empty"):
            load_attribute_table(path, delimiter="")

    def test_not_utf8_reports_line(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_bytes(b"id\tsex\nu1\tM\nu2\t\xe9\n")
        with pytest.raises(DataError, match=r"^line 3: .* is not valid UTF-8 \(byte 0xe9"):
            load_attribute_table(path)
