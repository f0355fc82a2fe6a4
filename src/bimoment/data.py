"""Bipartite graphs, edge covariates, node attributes, and ingestion.

The graph side of the package is deliberately dense:  at desk scale
(a few thousand nodes per side) an ``m x n`` weight matrix is simpler
and faster than sparse storage, and the fitter's Jacobian needs the
dense cross block anyway.

All containers are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, count
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only C-contiguous float array.  An array that is
    one already, and whose memory no writeable array shares (its base, if
    any, is a read-only array too), is adopted as it is; anything else is
    copied, so a caller's later writes never reach the container."""
    if (type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.c_contiguous
            and not arr.flags.writeable
            and (arr.base is None
                 or (type(arr.base) is np.ndarray and not arr.base.flags.writeable))):
        return arr
    out = np.array(arr, dtype=float, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DegreeVector:
    """Row sums ``d`` (actors) and column sums ``b`` (events) of a graph."""

    d: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen(self.d))
        object.__setattr__(self, "b", _frozen(self.b))
        if not np.isclose(self.d.sum(), self.b.sum()):
            raise DataError("actor and event degree totals disagree")


@dataclass(frozen=True)
class BipartiteGraph:
    """Dense weighted bipartite graph with labelled node sets.

    ``weights[i, j]`` is the (nonnegative, finite) edge weight between
    actor ``i`` and event ``j``; binary graphs contain only 0/1.
    """

    weights: np.ndarray
    actor_labels: tuple
    event_labels: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise DataError("weights must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(w)):
            raise DataError("weights contain non-finite values")
        if np.any(w < 0):
            raise DataError("weights must be nonnegative")
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "actor_labels", tuple(str(a) for a in self.actor_labels))
        object.__setattr__(self, "event_labels", tuple(str(e) for e in self.event_labels))
        if len(self.actor_labels) != w.shape[0]:
            raise DataError("actor label count does not match weight rows")
        if len(self.event_labels) != w.shape[1]:
            raise DataError("event label count does not match weight columns")
        if len(set(self.actor_labels)) != len(self.actor_labels):
            raise DataError("duplicate actor labels")
        if len(set(self.event_labels)) != len(self.event_labels):
            raise DataError("duplicate event labels")

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    @property
    def is_binary(self) -> bool:
        return bool(np.all((self.weights == 0) | (self.weights == 1)))

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class CovariateTensor:
    """Per-edge covariate vectors ``z_ij`` in R^p.

    ``p = 0`` is the pure bipartite model without covariates.  The sup
    norm bound of the entries is recorded at construction; declaring a
    tighter bound than the data satisfies is an error, and so is a bound
    that is not a real number >= 0 (``inf`` declares none).

    The data are stored once, as ``planes``: a read-only C-contiguous
    (p, m, n) array whatever the input's memory order, so each covariate
    ``z_k`` is one contiguous m x n plane, and ``rows`` is its (p, m*n)
    view.  ``values`` is the (m, n, p) view of the same memory.  Input
    whose (p, m, n) transpose is such an array already, read-only and
    sharing no writeable memory (as ``build_match_covariates`` builds it),
    is adopted without a copy; any other input is copied.  Every
    contraction of ``z`` is a BLAS product on the rows: ``gamma @ rows``
    in the predictor, ``total(w)`` and ``plane_moments``.
    """

    values: np.ndarray
    bound: float = None
    names: tuple = None
    planes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.bound is not None and not (isinstance(self.bound, numbers.Real)
                                           and self.bound >= 0):
            raise ConfigError(f"covariate bound must be a real number >= 0, got {self.bound!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise DataError("covariates must have shape (m, n, p)")
        if not np.all(np.isfinite(v)):
            raise DataError("covariates contain non-finite values")
        # max |v| without an |v| temporary; 0.0 first keeps a zero array's bound +0.0
        observed = float(max(0.0, v.max(), -v.min())) if v.size else 0.0
        if self.bound is None:
            object.__setattr__(self, "bound", observed)
        elif observed > self.bound + 1e-12:
            raise DataError(
                f"covariate magnitude {observed:g} exceeds declared bound {self.bound:g}"
            )
        planes = _frozen(np.moveaxis(v, 2, 0))
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "values", np.moveaxis(planes, 0, 2))
        if self.names is None:
            object.__setattr__(self, "names", tuple(f"z{k + 1}" for k in range(self.p)))
        else:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != self.p:
                raise DataError("covariate name count does not match p")

    @property
    def m(self) -> int:
        return self.planes.shape[1]

    @property
    def n(self) -> int:
        return self.planes.shape[2]

    @property
    def p(self) -> int:
        return self.planes.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """The (p, m*n) view of ``planes``, one row per covariate (explicit
        sizes, so ``p = 0`` works too)."""
        return self.planes.reshape(self.p, self.m * self.n)

    def total(self, weights: np.ndarray) -> np.ndarray:
        """``sum_ij w_ij z_ij`` (length p) for an m x n matrix ``w``: one
        matrix-vector product."""
        return self.rows @ np.reshape(weights, self.m * self.n)

    @classmethod
    def empty(cls, m: int, n: int) -> "CovariateTensor":
        return cls(values=np.zeros((m, n, 0)), bound=0.0)


def plane_moments(planes: np.ndarray, weights: np.ndarray) -> tuple:
    """``(actor, event, gram)`` for a C-contiguous (p, m, n) stack of
    planes ``z_k`` and an m x n matrix ``w``: ``actor[k, i] = sum_j w_ij
    z_kij``, ``event[k, j] = sum_i w_ij z_kij`` and ``gram[k, l] = sum_ij
    w_ij z_kij z_lij``.  Per plane, ``zw = z_k * w`` is formed once in one
    m x n buffer; its row and column sums are the margins and its product
    with planes ``k..p-1`` is ``gram[k, k:]``, mirrored into ``gram[k:,
    k]``, so ``gram`` is exactly symmetric."""
    p, m, n = planes.shape
    rows = planes.reshape(p, m * n)
    actor, event, gram = np.empty((p, m)), np.empty((p, n)), np.empty((p, p))
    zw = np.empty((m, n))
    ones_m, ones_n = np.ones(m), np.ones(n)
    for k in range(p):
        np.multiply(planes[k], weights, out=zw)
        actor[k] = zw @ ones_n
        event[k] = ones_m @ zw
        gram[k, k:] = gram[k:, k] = rows[k:] @ zw.reshape(m * n)
    return actor, event, gram


@dataclass(frozen=True)
class NodeAttributeTable:
    """Categorical attributes for one node side, keyed by node label."""

    columns: tuple
    rows: Mapping[str, Mapping[str, str]] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", dict(self.rows))

    def get(self, node: str, column: str) -> str:
        try:
            row = self.rows[node]
        except KeyError:
            raise DataError(f"node {node!r} missing from attribute table") from None
        if column not in row:
            raise ConfigError(f"attribute column {column!r} not in table")
        return row[column]

    def __len__(self):
        return len(self.rows)


def degrees(graph: BipartiteGraph) -> DegreeVector:
    """Actor and event degree sequences (row and column sums)."""
    return DegreeVector(d=graph.weights.sum(axis=1), b=graph.weights.sum(axis=0))


# Bytes of the file read at a time (about 44k lines of a ratings file).
# Each block decodes and looks up each of its distinct ids once, and a
# ratings block repeats most of the event ids, so blocks are large.  Their
# arrays peak at about 210 bytes per line of a ratings file (9 MB).
_BLOCK_BYTES = 1 << 19

# The first check a line fails, in the order the checks apply (0 = none).
_COLUMNS, _EMPTY_ID, _BAD_WEIGHT, _OUT_OF_RANGE, _NOT_BINARY = 1, 2, 3, 4, 5

# _PREFIX[k] keeps the first k bytes of a big-endian 8-byte word (k = 0..8).
_PREFIX = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], np.uint64)


def _line_blocks(fh):
    r"""Yield consecutive blocks of whole lines of the binary file ``fh``,
    each block's lines joined by ``\n``.  As with universal newlines,
    ``\r\n`` and a lone ``\r`` end a line too; they become ``\n``, also
    where a read splits a ``\r\n``.  Each block is checked to be UTF-8
    before it is yielded, so a block that is not raises
    ``UnicodeDecodeError``.

    The last block is the bytes after the file's last newline, so it is
    empty (one blank line) when the file ends with a newline.
    """
    pending = []
    for chunk in iter(partial(fh.read, _BLOCK_BYTES), b""):
        while chunk.endswith(b"\r"):   # a "\n" that follows belongs to it
            more = fh.read(1)
            if not more:
                break
            chunk += more
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = chunk.rfind(b"\n")
        if cut < 0:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        block = b"".join(pending)
        pending = [chunk[cut + 1:]]
        yield _utf8(block)
    yield _utf8(b"".join(pending))


def _utf8(block: bytes) -> bytes:
    """``block``, after checking that it is UTF-8: ASCII in one scan,
    anything else by decoding it, which raises ``UnicodeDecodeError``."""
    if not block.isascii():
        block.decode()
    return block


_ALL = slice(None)


def _width_classes(lengths: np.ndarray) -> list:
    """``(c, tokens)`` for each width class ``c`` among the token lengths:
    ``c`` is the bit length of ``length // 8``, so a key of ``2**c`` words
    holds the token.  ``tokens`` indexes the class's tokens, or is ``_ALL``
    when one class holds them all, as it does for the ids of most files."""
    lo, hi = (math.frexp(int(x) >> 3)[1] for x in (lengths.min(), lengths.max()))
    if lo == hi:
        return [(lo, _ALL)]
    size = np.frexp(lengths >> 3)[1]
    return [(c, np.flatnonzero(size == c)) for c in np.flatnonzero(np.bincount(size))]


class _Tokens:
    """The distinct byte strings among some tokens of a block, found with
    no Python work per token.

    Token ``t`` is ``buf[starts[t]:ends[t]]``, and ``buf`` ends in 8 zero
    bytes.  Each token is keyed by big-endian 8-byte words of an unaligned
    view of ``buf`` and by its length (an id may end in NUL bytes).  Under
    8 bytes, the key is the first word masked to the length, with the
    length in the last byte, which the mask clears.  A longer token's key
    is a row of the length and the words at 8-byte steps, the last ones
    moved back to end with the token, in a width class of ``2**c`` words,
    so no row is much longer than its token.  Each class is sorted once,
    short keys as they are and rows by an integer hash, and each run of
    equal keys in sorted order is a group (different rows that share a
    hash can only split a group).

    ``order`` lists the tokens group by group, ``heads`` where each group
    begins in it, ``inverse`` the group of each token and ``texts`` each
    group's decoded text.
    """

    def __init__(self, buf: bytes, starts: np.ndarray, ends: np.ndarray):
        words = np.ndarray((len(buf) - 7,), ">u8", buffer=buf, strides=(1,))
        lengths = ends - starts
        orders, news = [], []
        for c, tokens in _width_classes(lengths):
            start, length = starts[tokens], lengths[tokens]
            if c == 0:
                keys = (words[start] & _PREFIX[length]) | length.astype(np.uint64)
                order = np.argsort(keys)
                keys = keys[:, None]
            else:
                last_word = (start + length - 8)[:, None]
                at = np.minimum(start[:, None] + 8 * np.arange(1 << c), last_word)
                keys = np.empty((start.size, 1 + (1 << c)), np.uint64)
                keys[:, 0] = length
                keys[:, 1:] = words[at]
                del at      # before the sort's copies
                # odd multipliers, so rows that differ in one word never collide
                order = np.argsort(keys @ (np.arange(1, 2 * keys.shape[1], 2, np.uint64)
                                           * np.uint64(0x9E3779B97F4A7C15)))
            keys = keys[order]
            orders.append(order if tokens is _ALL else tokens[order])
            news.append(np.append(True, (keys[1:] != keys[:-1]).any(axis=1)))
        self.order, new = np.concatenate(orders), np.concatenate(news)
        self.heads = np.flatnonzero(new)
        self.inverse = np.empty_like(self.order)
        self.inverse[self.order] = np.repeat(
            np.arange(self.heads.size), np.diff(self.heads, append=new.size)
        )
        # no token holds a newline, so one decode and one split give them all
        first = self.order[self.heads]
        self.texts = b"\n".join(
            map(buf.__getitem__, map(slice, starts[first].tolist(), ends[first].tolist()))
        ).decode().split("\n")

    def enter(self, index: defaultdict, labels: list, kept: np.ndarray) -> np.ndarray:
        """Positions in ``index`` of the labels of the ``kept`` tokens, where
        group ``g``'s label is ``labels[g]``.  The default factory of
        ``index`` numbers unseen labels; they enter in order of first
        appearance among the kept tokens."""
        n = kept.size
        first = np.minimum.reduceat(np.where(kept[self.order], self.order, n), self.heads)
        seen = np.flatnonzero(first < n)
        seen = seen[np.argsort(first[seen])]
        position = np.zeros(len(labels), np.int32)
        position[seen] = list(map(index.__getitem__, map(labels.__getitem__, seen.tolist())))
        return position[self.inverse[kept]]


def _weight(text) -> tuple:
    """``(weight, parsed)`` of a weight token; a blank one means 1."""
    if not text.strip():
        return 1.0, True
    try:
        return float(text), True
    except ValueError:
        return math.nan, False


def _parse_block(block, delimiter, mode, binarize, strict, actor_index, event_index) -> tuple:
    r"""Check and parse the lines of one block (UTF-8 bytes, ``\n`` line
    ends), column-wise.

    Returns ``(n_lines, lines, rows, cols, weights, fault)``: the number
    of lines in the block, the block-relative indices of the accepted
    lines before the block's first faulty line (int32), the int32
    positions of their stripped ids in ``actor_index`` and
    ``event_index`` (which gain the unseen ones), their weights, and
    ``(index, message)`` for that faulty line (None when the block has
    none).  In permissive mode the lines it skips are neither accepted nor
    faulty.
    """
    # tokens end at "\n" and at the byte ``sep``.  ``_line_blocks`` leaves no
    # "\r" in a block, so "\r" stands for a delimiter of several bytes and
    # matches nothing where the delimiter holds a newline or is a lone
    # surrogate, which no UTF-8 block holds
    sep = delimiter.encode("utf-8", "surrogatepass")
    if "\n" in delimiter:
        sep = b"\r"
    elif len(sep) > 1:
        block, sep = block.replace(sep, b"\r"), b"\r"
    buf = block + bytes(8)
    marks = np.frombuffer(buf, np.uint8)[:-8]
    ends = np.flatnonzero((marks == ord("\n")) | (marks == sep[0]))
    last = np.append(np.flatnonzero(marks[ends] == ord("\n")), ends.size)
    ends = np.append(ends, marks.size)              # token t is buf[starts[t]:ends[t]]
    starts = np.append(0, ends[:-1] + 1)
    first = np.append(0, last[:-1] + 1)             # each line's first token
    ncols = last - first + 1
    n_lines = ncols.size
    unsure = ncols < 2                          # lines that may be blank
    fault = np.where(unsure, _COLUMNS, 0)
    cand = np.flatnonzero(~unsure)              # lines with both ids
    rows = cols = np.zeros(0, np.int32)
    w = np.ones(cand.size)
    if cand.size:
        fc = first[cand]
        actor_ends = ends[fc]
        actors = _Tokens(buf, starts[fc], actor_ends)
        events = _Tokens(buf, actor_ends + 1, ends[fc + 1])    # after one separator
        actor_labels = list(map(str.strip, actors.texts))
        event_labels = list(map(str.strip, events.texts))
        no_actor, no_event = (
            np.array(list(map(operator.not_, labels)), bool)[ids.inverse]
            if "" in labels else np.zeros(cand.size, bool)
            for labels, ids in ((actor_labels, actors), (event_labels, events))
        )
        unsure[cand] = no_actor & no_event      # a line with an id is not blank
        has_weight = np.flatnonzero(ncols[cand] >= 3)
        bad_weight = np.zeros(cand.size, bool)
        if has_weight.size:
            tokens = fc[has_weight] + 2
            weights = _Tokens(buf, starts[tokens], ends[tokens])
            values, parsed = map(np.array, zip(*map(_weight, weights.texts)))
            w[has_weight] = values[weights.inverse]
            bad_weight[has_weight] = ~parsed[weights.inverse]
        if binarize:    # a weight that is not finite stays, to be out of range
            w = np.where(np.isfinite(w), w > 0, w)
        fault[cand] = np.select(
            [
                strict & (ncols[cand] > 3),
                no_actor | no_event,
                bad_weight,
                ~np.isfinite(w) | (w < 0),
                (mode == "binary") & (w != 0) & (w != 1),
            ],
            [_COLUMNS, _EMPTY_ID, _BAD_WEIGHT, _OUT_OF_RANGE, _NOT_BINARY],
        )
    blank = np.zeros(n_lines, bool)
    if unsure.any():
        lines = np.flatnonzero(unsure)
        blank[lines] = [
            not buf[a:b].decode().replace("\r", delimiter).strip()
            for a, b in zip(starts[first[lines]].tolist(), ends[last[lines]].tolist())
        ]
        fault[blank] = 0
    raises = fault >= (_COLUMNS if strict else _OUT_OF_RANGE)
    stop = int(np.argmax(raises)) if raises.any() else n_lines
    keep = (fault[cand] == 0) & ~blank[cand] & (cand < stop)
    if cand.size:
        rows = actors.enter(actor_index, actor_labels, keep)
        cols = events.enter(event_index, event_labels, keep)
    accepted = (cand[keep].astype(np.int32), rows, cols, w[keep])
    if stop == n_lines:
        return (n_lines,) + accepted + (None,)
    k = np.searchsorted(cand, stop)
    if fault[stop] == _COLUMNS:
        message = f"expected 2 or 3 columns, got {ncols[stop]}"
    elif fault[stop] == _EMPTY_ID:
        message = "empty node id"
    elif fault[stop] == _BAD_WEIGHT:
        token = weights.inverse[np.searchsorted(has_weight, k)]
        message = f"bad weight {weights.texts[token]!r}"
    elif fault[stop] == _OUT_OF_RANGE:
        message = f"weight {float(w[k])!r} out of range"
    else:
        message = f"weight {float(w[k]):g} invalid for binary mode"
    return (n_lines,) + accepted + ((stop, message),)


def _check_delimiter(delimiter: str):
    if not delimiter:
        raise ConfigError("the delimiter must not be empty")


def _not_utf8(path) -> DataError:
    """The error for a text file that is not valid UTF-8, naming the file,
    the line (universal newlines) and the byte offset of its first bad
    byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = exc.start
    head = raw[:offset].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return DataError(
        f"{path} is not valid UTF-8 (byte 0x{raw[offset]:02x} at offset {offset})",
        line_number=head.count(b"\n") + 1,
    )


def _first_repeat(keys: np.ndarray) -> int:
    """Position of the first key equal to an earlier one (one must exist)."""
    repeat = np.ones(keys.size, bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return int(np.argmax(repeat))


def _line_number(k: int, line_numbers: list) -> int:
    """The line of accepted edge ``k``, from each block's first line number
    and its accepted lines' offsets."""
    for first_line, lines in line_numbers:
        if k < lines.size:
            return first_line + int(lines[k])
        k -= lines.size


def load_edge_list(
    path,
    delimiter: str = "\t",
    mode: str = "binary",
    sum_duplicates: bool = False,
    binarize: bool = False,
    strict: bool = True,
) -> BipartiteGraph:
    """Read a delimited edge list into a graph.

    Rows are ``actor_id <delim> event_id [<delim> weight]`` with weight
    defaulting to 1.  Labels keep first-appearance order.  In ``binary``
    mode a duplicate (actor, event) pair is an error, also when
    ``sum_duplicates`` is set (the message then says that summing applies
    only to counts); in ``count`` mode duplicates are summed only when
    ``sum_duplicates`` is set.  With
    ``strict=False`` malformed rows and extra columns are skipped instead
    of raising; ``binarize`` coerces a finite weight to 1 when positive and to
    0 otherwise (the usual treatment of rating data); a weight that is not
    finite stays out of range.

    The file is read as bytes and parsed column-wise in blocks of about
    ``_BLOCK_BYTES`` bytes of whole lines, so the memory used beyond the
    accepted edges (two int32 indices and a float weight each) and the
    weight matrix is bounded per block.  No Python code runs
    per token: the equal tokens of a column are grouped by numpy sorts on
    their bytes, and each distinct token is decoded, stripped, checked and
    looked up once per block, so ids and weights keep the exact semantics
    of ``str.strip`` and ``float``.  When the file has
    several faults, the one on the earliest line is raised, with that
    line's number.  A file that is not valid UTF-8 raises ``DataError``
    when the block of whole lines holding its first bad byte is read.
    """
    if mode not in ("binary", "count"):
        raise ConfigError(f"unknown edge-list mode {mode!r}")
    _check_delimiter(delimiter)
    actor_index = defaultdict(count().__next__)
    event_index = defaultdict(count().__next__)
    accepted = []       # per block: (rows, cols, weights) of its accepted lines
    line_numbers = []   # per block: (its first line, its accepted lines' offsets)
    first_line, fault = 1, None
    try:
        with open(path, "rb") as fh:
            for block in _line_blocks(fh):
                n_lines, lines, rows, cols, w, fault = _parse_block(
                    block, delimiter, mode, binarize, strict, actor_index, event_index
                )
                accepted.append((rows, cols, w))
                line_numbers.append((first_line, lines))
                if fault is not None:
                    break
                first_line += n_lines
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    rows, cols, w = zip(*accepted)
    del accepted
    # one column at a time, so each column's blocks are freed once joined
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    w = np.concatenate(w)
    actor_labels, event_labels = tuple(actor_index), tuple(event_index)
    m, n = len(actor_labels), len(event_labels)
    flat = np.multiply(rows, n, dtype=np.intp)
    flat += cols
    del rows, cols
    if (mode == "binary" or not sum_duplicates) and \
            np.bincount(flat, minlength=m * n).max(initial=0) > 1:
        # every accepted line precedes the first faulty one, so a repeat wins
        k = _first_repeat(flat)
        i, j = divmod(int(flat[k]), n)
        message = f"duplicate edge ({actor_labels[i]}, {event_labels[j]})"
        if mode == "count":
            message += "; pass sum_duplicates to aggregate"
        elif sum_duplicates:
            message += "; sum_duplicates applies only to counts (count mode, a count family)"
        raise DataError(message, line_number=_line_number(k, line_numbers))
    if fault is not None:
        raise DataError(fault[1], line_number=first_line + fault[0])
    if not flat.size:
        raise DataError("no edges in file")
    weights = np.bincount(flat, weights=w, minlength=m * n)
    negative_zero = np.signbit(w)
    if negative_zero.any():
        # "+=" from a cell's first term keeps -0.0 when every term is -0.0
        weights[np.setdiff1d(flat[negative_zero], flat[~negative_zero])] = -0.0
    return BipartiteGraph(
        weights=weights.reshape(m, n),
        actor_labels=actor_labels,
        event_labels=event_labels,
    )


def save_edge_list(graph: BipartiteGraph, path, delimiter: str = "\t"):
    """Write the graph's nonzero cells as an edge list (round-trips with
    :func:`load_edge_list` for graphs without isolated nodes).  Weights
    are written with 17 significant digits, which ``float`` reads back
    exactly; an integral weight below 1e17 is written as an integer."""
    rows, cols = np.nonzero(graph.weights)
    text = "".join(
        f"{graph.actor_labels[i]}{delimiter}{graph.event_labels[j]}{delimiter}{w:.17g}\n"
        for i, j, w in zip(rows.tolist(), cols.tolist(), graph.weights[rows, cols].tolist())
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_attribute_table(path, delimiter: str = "\t") -> NodeAttributeTable:
    """Read a delimited table with a header row into a node-attribute table.

    The first header entry names the id column; every column name and
    every node must appear exactly once.  A file that is not valid
    UTF-8 raises ``DataError``.
    """
    _check_delimiter(delimiter)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header_line = fh.readline().rstrip("\n").rstrip("\r")
            if not header_line.strip():
                raise DataError("missing header row", line_number=1)
            header = [h.strip() for h in header_line.split(delimiter)]
            repeated = next((h for k, h in enumerate(header) if h in header[:k]), None)
            if repeated is not None:
                raise DataError(f"header repeats column {repeated!r}", line_number=1)
            rows = {}
            for lineno, raw in enumerate(fh, start=2):
                line = raw.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                parts = line.split(delimiter)
                if len(parts) != len(header):
                    raise DataError(
                        f"expected {len(header)} columns, got {len(parts)}",
                        line_number=lineno,
                    )
                node = parts[0].strip()
                if node in rows:
                    raise DataError(f"duplicate node id {node!r}", line_number=lineno)
                rows[node] = {col: part.strip() for col, part in zip(header[1:], parts[1:])}
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return NodeAttributeTable(columns=tuple(header[1:]), rows=rows)


def filter_by_degree(
    graph: BipartiteGraph, min_degree: float, mode: str = "once"
) -> BipartiteGraph:
    """Keep nodes whose degree exceeds ``min_degree`` and take the induced
    subgraph.

    ``once`` evaluates both thresholds on the original graph's degrees (a
    single pass; surviving nodes may fall back below the threshold in the
    subgraph).  ``iterate`` repeats the pass until no node is removed.  A
    threshold that is negative or NaN raises ``ConfigError``.
    """
    if not min_degree >= 0:  # NaN fails this too
        raise ConfigError(f"min_degree must be a number >= 0, got {min_degree!r}")
    if mode not in ("once", "iterate"):
        raise ConfigError(f"unknown filter mode {mode!r}")
    current = graph
    while True:
        deg = degrees(current)
        keep_a = deg.d > min_degree
        keep_e = deg.b > min_degree
        if not keep_a.any() or not keep_e.any():
            raise DataError("filter removed all nodes")
        changed = (~keep_a).any() or (~keep_e).any()
        if changed:
            current = BipartiteGraph(
                weights=current.weights[np.ix_(keep_a, keep_e)],
                actor_labels=tuple(compress(current.actor_labels, keep_a)),
                event_labels=tuple(compress(current.event_labels, keep_e)),
            )
        if mode == "once" or not changed:
            return current


@dataclass(frozen=True)
class MatchMapping:
    """One attribute-match covariate: actors of class ``c`` match events
    whose attribute value is assigned to group ``c``."""

    name: str
    actor_attr: str
    event_attr: str
    groups: Mapping[str, str]

    def __post_init__(self):
        for attr in ("name", "actor_attr", "event_attr"):
            if not isinstance(getattr(self, attr), str):
                raise ConfigError(f"mapping {self.name!r}: {attr} must be a string, "
                                  f"got {getattr(self, attr)!r}")
        if not isinstance(self.groups, Mapping):
            raise ConfigError(f"mapping {self.name!r}: groups must be a mapping, "
                              f"got {self.groups!r}")
        object.__setattr__(self, "groups", dict(self.groups))
        # classes are attribute values, which are strings, so a group that is
        # not a string could match nothing
        bad = [g for g in self.groups.values() if not isinstance(g, str)]
        if bad:
            raise ConfigError(f"mapping {self.name!r}: group {bad[0]!r} is not a string")


def build_match_covariates(
    graph: BipartiteGraph,
    actor_attrs: NodeAttributeTable,
    event_attrs: NodeAttributeTable,
    mappings: Sequence[MatchMapping],
) -> CovariateTensor:
    """Binary match covariates: ``z_ijl = 1`` iff actor ``i``'s class under
    mapping ``l`` equals the group assigned to event ``j``'s attribute value.

    Each mapping codes its actor classes and event groups as integers, one
    per distinct label in order of first appearance, so the m x n plane
    compares integers, not strings.
    """
    m, n = graph.m, graph.n
    if not mappings:
        return CovariateTensor.empty(m, n)
    planes = np.empty((len(mappings), m, n))
    for plane, mapping in zip(planes, mappings):
        labels = [actor_attrs.get(a, mapping.actor_attr) for a in graph.actor_labels]
        for e_label in graph.event_labels:
            value = event_attrs.get(e_label, mapping.event_attr)
            if value not in mapping.groups:
                raise ConfigError(
                    f"mapping {mapping.name!r}: event attribute value {value!r} "
                    f"(event {e_label!r}) has no group assignment"
                )
            labels.append(mapping.groups[value])
        code = defaultdict(count().__next__)
        codes = np.fromiter(map(code.__getitem__, labels), dtype=np.intp, count=m + n)
        np.equal(codes[:m, None], codes[None, m:], out=plane, casting="unsafe")
    # read-only and referenced nowhere else, so the tensor adopts the planes
    planes.setflags(write=False)
    return CovariateTensor(
        values=np.moveaxis(planes, 0, 2), bound=1.0, names=tuple(mp.name for mp in mappings)
    )
