"""Conflict-graph construction, random graph models, and spectral helpers.

Vertices of a conflict graph are wireless links; an edge joins two links
that interfere and therefore cannot transmit in the same time slot. A graph
is stored once, as compressed sparse rows (CSR); every kernel reads those
two arrays or a layout cached from them. The random-graph generators build
their edges as one (E, 2) array each, never as Python pairs, and hand it to
:meth:`ConflictGraph.from_edges`.

Instance files are read and written as whole columns, in one layout each,
through one reader and one writer of integer tables.
:func:`read_int_rows` parses a text in one call to numpy's C reader and
names the first line that is no row, or not written plain; its twin
:func:`format_int_rows` writes the decimal text of a non-negative int64
table from one byte buffer, one decimal place at a time over the whole
table. The writers of
``graph.txt`` and ``sim``'s ``trace.csv`` call it for their rows, and
their readers check the rows, and through :func:`read_as_written` the line
ends, against the writer's; each file states its size in a header.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


def as_rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce ``rng`` into a numpy Generator; ints (and None) act as seeds."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True, eq=False)
class ConflictGraph:
    """Undirected interference graph in CSR form, with stable node IDs
    0..node_count-1 (the distributed scheduler breaks ties on them).

    ``indptr`` rises from 0 to ``len(indices)``; each neighbor list
    ``indices[indptr[v]:indptr[v + 1]]`` is sorted, duplicate-free, in
    range, without v, and mirrored. The constructor copies, checks and
    freezes both arrays, so instances are immutable and safe to share
    across threads. Equality is identity: compare ``edges()`` instead.

    Every table a kernel derives from the graph alone is a read-only
    cached property, built on first use and then shared by every call on
    the graph: :attr:`edge_ends` (each edge once, for the independence
    check and the graph file), :attr:`laplacian` (the GCN),
    :attr:`neighbor_segments` (LGS), and :attr:`neighbor_bitmasks`
    (centralized greedy and the exact solver).
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.array(self.indptr, dtype=np.intp)
        indices = np.array(self.indices, dtype=np.intp)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        n = indptr.size - 1
        if n < 1:
            raise ValueError("graph needs at least one node")
        deg = indptr[1:] - indptr[:-1]
        if indptr[0] != 0 or indptr[-1] != indices.size or (deg < 0).any():
            raise ValueError("indptr must rise from 0 to len(indices)")
        rows = np.repeat(np.arange(n), deg)
        if ((indices < 0) | (indices >= n)).any():
            raise ValueError(f"a neighbor is out of range for {n} nodes")
        if (indices == rows).any():
            raise ValueError(f"self-loop at node {rows[indices == rows][0]}")
        keys = rows * n + indices
        if (np.diff(keys) <= 0).any():
            raise ValueError("neighbor lists must be sorted and unique")
        if not np.array_equal(np.sort(indices * n + rows), keys):
            raise ValueError("an edge is missing its mirror")
        for name, array in (("indptr", indptr), ("indices", indices)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "ConflictGraph":
        """Build a graph from an (E, 2) array of (i, j) rows, as every
        generator passes, or from any iterable of (i, j) pairs; repeated and
        mirrored pairs name one edge. A self-loop or an endpoint outside
        0..node_count-1 raises ValueError naming the first such pair."""
        if not isinstance(edges, np.ndarray):
            edges = [(i, j) for i, j in edges]
        pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
        i, j = pairs.T
        bad = (i == j) | ((pairs < 0) | (pairs >= node_count)).any(axis=1)
        if bad.any():
            raise ValueError(f"edge {tuple(pairs[bad.argmax()].tolist())} is "
                             f"a self-loop or out of range")
        keys = np.sort(np.concatenate([i * node_count + j, j * node_count + i]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        rows, cols = np.divmod(keys, node_count)
        return cls(np.searchsorted(rows, np.arange(node_count + 1)), cols)

    @cached_property
    def node_count(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge once, as two read-only (E,) arrays ``(i, j)`` with
        i < j, sorted: the CSR entries of the upper triangle."""
        rows = np.repeat(np.arange(self.node_count), self.degrees)
        upper = rows < self.indices
        ends = (rows[upper], self.indices[upper])
        for array in ends:
            array.setflags(write=False)
        return ends

    def edge_array(self) -> np.ndarray:
        """All edges as a new (E, 2) array of (i, j) rows with i < j,
        sorted: the columns of :attr:`edge_ends`."""
        return np.column_stack(self.edge_ends)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, sorted."""
        return list(map(tuple, self.edge_array().tolist()))

    @cached_property
    def laplacian(self) -> np.ndarray:
        """This graph's :func:`normalized_laplacian`, built on first use and
        kept read-only, so every GCN forward on the graph shares one."""
        lap = normalized_laplacian(self)
        lap.setflags(write=False)
        return lap

    @cached_property
    def neighbor_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed neighborhoods laid out for ``np.ufunc.reduceat``:
        ``(index, starts, higher)``, the form
        :func:`~linksched.solvers.lgs_rows` reads.

        Segment v, entries ``starts[v]`` up to ``starts[v + 1]`` (the last
        one runs to the end), holds v itself and then the neighbors of v, so
        it has ``degrees[v] + 1`` entries and none is empty, as ``reduceat``
        needs. ``index`` gives each entry's node and ``higher`` whether that
        node's ID exceeds v's. All three are read-only.
        """
        n, ptr = self.node_count, self.indptr[:-1]
        index = np.insert(self.indices, ptr, np.arange(n))
        higher = index > np.repeat(np.arange(n), self.degrees + 1)
        layout = (index, ptr + np.arange(n), higher)
        for array in layout:
            array.setflags(write=False)
        return layout

    @cached_property
    def neighbor_bitmasks(self) -> tuple[int, ...]:
        """Per-node neighbor sets packed into ints, bit w of entry v set when
        w neighbors v; the exact solver and centralized greedy share them.

        Bit w of row v is set in a (V, ceil(V / 8)) byte array, little-endian
        within and across bytes, and each row is read as one int.
        """
        n = self.node_count
        width = -(-n // 8)
        packed = np.zeros((n, width), dtype=np.uint8)
        rows = np.repeat(np.arange(n), self.degrees)
        np.bitwise_or.at(packed, (rows, self.indices >> 3),
                         np.left_shift(1, self.indices & 7).astype(np.uint8))
        data = packed.tobytes()
        return tuple(int.from_bytes(data[a:a + width], "little")
                     for a in range(0, n * width, width))


def generate_star(x: int) -> ConflictGraph:
    """Star graph: hub node 0 adjacent to peripheral nodes 1..x."""
    if x < 1:
        raise ValueError("star needs at least one peripheral node")
    leaves = np.arange(1, x + 1)
    return ConflictGraph.from_edges(
        x + 1, np.column_stack([np.zeros_like(leaves), leaves]))


def generate_er(n: int, p: float,
                rng: np.random.Generator | int | None = None) -> ConflictGraph:
    """Erdos-Renyi G(n, p): each unordered pair is an edge with probability p."""
    if n < 1:
        raise ValueError("need at least one node")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    gen = as_rng(rng)
    rows, cols = np.triu_indices(n, k=1)
    hit = gen.random(rows.size) < p
    return ConflictGraph.from_edges(n, np.column_stack([rows[hit], cols[hit]]))


def weighted_draw(gen: np.random.Generator, p: np.ndarray,
                  size: int) -> np.ndarray:
    """``gen.choice(p.size, size=size, replace=False, p=p)``, step for step.

    It is numpy's own algorithm, so it returns the same int64 indices and
    leaves ``gen`` in the same state. Each pass draws one ``gen.random`` for
    every index still missing and searches (``side="right"``) the cumulative
    sum of the weights, divided by its last entry; indices already found are
    dropped and first occurrences kept in draw order, with an
    insertion-ordered dict where numpy calls ``np.unique`` and sorts. The
    first pass reads ``p`` as it is; a retry zeroes the weights of the
    indices found in a copy, so ``p`` itself is never written.

    Where numpy would refuse, this refuses too, instead of repeating an
    index or drawing forever: a pass whose weights lack a positive finite
    total raises ValueError naming ``size`` and the count of positive
    weights. That happens when fewer than ``size`` weights are positive or
    when one is NaN or infinite. Negative weights under a positive total
    are not checked, since numpy's full check of ``p`` is most of the cost
    of its ``choice``; the caller must not pass them.
    """
    weights, found = p, {}
    while len(found) < size:
        if found:
            weights = p.copy()
            weights[list(found)] = 0
        cdf = weights.cumsum()
        total = cdf[-1]
        if not 0 < total < np.inf:
            raise ValueError(
                f"cannot draw {size} distinct indices: {np.count_nonzero(p > 0)}"
                f" of {p.size} weights are positive, and the weights left "
                f"sum to {total}")
        x = gen.random(size - len(found))
        cdf /= total
        found.update(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
    return np.fromiter(found, np.int64, size)


def generate_ba(n: int, m: int,
                rng: np.random.Generator | int | None = None) -> ConflictGraph:
    """Barabasi-Albert preferential attachment on n nodes.

    Starts from m isolated seed nodes; each new node attaches to m distinct
    existing nodes chosen with probability proportional to current degree
    (uniformly while all degrees are still zero), by :func:`weighted_draw`.
    The result always has exactly (n - m) * m edges.

    The degree total before node ``new`` is ``2 m (new - m)``, since every
    node added so far gave m to its own degree and 1 to each of its m
    targets; integers below 2**53 sum exactly in float64 in any order, so
    this equals the sum of the degree array bit for bit. Each node's
    targets fill one row of an (n - m, m) array, from which the edges are
    built once, as an (E, 2) array.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    gen = as_rng(rng)
    degree = np.zeros(n, dtype=np.float64)
    targets = np.empty((n - m, m), dtype=np.int64)
    for new in range(m, n):
        total = 2.0 * m * (new - m)
        probs = degree[:new] / total if total else np.full(new, 1.0 / new)
        found = targets[new - m] = weighted_draw(gen, probs, m)
        degree[found] += 1
        degree[new] = m
    sources = np.repeat(np.arange(m, n), m)
    return ConflictGraph.from_edges(
        n, np.column_stack([targets.ravel(), sources]))


def generate_power_law_tree(n: int, gamma: float,
                            rng: np.random.Generator | int | None = None,
                            ) -> ConflictGraph:
    """Random tree whose target degrees follow P(d) proportional to d^-gamma.

    Target degrees (d >= 1) are drawn per node, then node i >= 1 attaches to
    an existing node picked with probability proportional to its remaining
    target-degree budget, floored at 1 so attachment never stalls, by
    :func:`weighted_draw`, which draws as numpy's ``choice`` does. The
    output is always connected with n - 1 edges.
    """
    if n < 2:
        raise ValueError("tree needs at least two nodes")
    if gamma <= 1.0:
        raise ValueError(f"power-law exponent must exceed 1, got {gamma}")
    gen = as_rng(rng)
    support = np.arange(1, n, dtype=np.float64)
    pmf = support ** (-gamma)
    pmf /= pmf.sum()
    targets = gen.choice(n - 1, size=n, p=pmf) + 1
    degree = np.zeros(n, dtype=np.int64)
    parents = np.empty(n - 1, dtype=np.int64)
    for new in range(1, n):
        budget = np.maximum(targets[:new] - degree[:new], 1).astype(np.float64)
        parent = parents[new - 1] = weighted_draw(gen, budget / budget.sum(),
                                                  1)[0]
        degree[[parent, new]] += 1
    return ConflictGraph.from_edges(
        n, np.column_stack([parents, np.arange(1, n)]))


def normalized_laplacian(graph: ConflictGraph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2), dense float64,
    as a new array; :attr:`ConflictGraph.laplacian` caches it per graph.

    The edge entries are scattered straight from the CSR arrays, at
    ``(repeat(arange(V), degrees), indices)``; all other off-diagonal
    entries are +0.0. Rows and columns of isolated nodes are identically
    zero (diagonal included), so the aggregation term of the convolution
    passes nothing through them.
    """
    n = graph.node_count
    deg = graph.degrees.astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
    rows, cols = np.repeat(np.arange(n), graph.degrees), graph.indices
    lap = np.zeros((n, n))
    lap[rows, cols] = -(inv_sqrt[rows] * inv_sqrt[cols])
    np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    return lap


def centralization(graph: ConflictGraph) -> float:
    """Peak-to-average degree ratio; undefined on edgeless graphs."""
    if graph.edge_count == 0:
        raise ValueError("centralization undefined for an edgeless graph")
    deg = graph.degrees
    return float(deg.max() / deg.mean())


def is_independent_mask(graph: ConflictGraph, members) -> bool:
    """True iff no edge of the graph has both endpoints in the bool or 0/1
    membership mask ``members``, one (V,) mask or, as in
    :func:`~linksched.sim.advance`, a batch (..., V) of them, every one.
    The R masks are packed eight to a byte along the batch, and each edge
    of :attr:`ConflictGraph.edge_ends` is checked once, by two gathers
    along the node axis of the (ceil(R / 8), V) packed bytes."""
    m = np.asarray(members, dtype=bool)
    n = graph.node_count
    if m.shape[-1:] != (n,):
        raise ValueError(f"membership mask shape {m.shape} does not "
                         f"match {n} nodes")
    i, j = graph.edge_ends
    packed = np.packbits(m.reshape(-1, n), axis=0)
    return not (packed.take(i, axis=1) & packed.take(j, axis=1)).any()


# --- integer text tables ------------------------------------------------------

CUT_SHORT = "no '\\n' ends this last line: the file is cut short"
# A number as the instance writers write it: 0, or digits without a
# leading zero, after a '-' for a negative value (which the readers then
# refuse by range); no '+', no whitespace
PLAIN_DECIMAL = "0|-?[1-9][0-9]*"
NOT_PLAIN = "not plain decimal: a sign, a leading zero or other whitespace " \
    "than the writer's"


def read_as_written(path, crlf: bool = False) -> tuple[str, int]:
    """The text of the file at ``path`` and its size in bytes, for a file
    whose lines end as its writer ends them: each in ``\\n`` alone, or,
    with ``crlf``, line 1 in ``\\n`` and every later line in ``\\r\\n``,
    as :func:`~linksched.sim.save_trace` writes.

    The first line that ends otherwise, or holds another ``\\r``, raises
    ValueError naming the path and the line; with ``crlf``, text after the
    last ``\\n`` may end in the ``\\r`` of a line end cut short, which the
    caller refuses as cut short. The text comes back with every ``\\r``
    deleted, so each line ends in ``\\n`` alone. The file is read as bytes
    and checked by whole-array byte comparisons; only a faulty file is
    walked line by line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not crlf:
        fine = b"\r" not in data
    else:
        # no \r before the \n that ends line 1, and from it on, byte i is
        # \r exactly where byte i + 1 is \n; a last byte \r is a line end
        # cut short
        first = data.find(b"\n")
        tail = np.frombuffer(data, np.uint8)[max(first, 0):]
        fine = first > 0 and data.find(b"\r", 0, first) < 0 and \
            np.array_equal(tail[:-1] == 13, tail[1:] == 10)
    if not fine:
        lines = data.split(b"\n")
        for k, line in enumerate(lines, start=1):
            want_cr = crlf and k > 1
            ends = want_cr and line.endswith(b"\r")
            # the last piece follows the last \n, so only it may lack one
            if b"\r" in (line[:-1] if ends else line) or \
                    want_cr and not ends and k < len(lines):
                end = "'\\r\\n'" if want_cr else "'\\n'"
                raise ValueError(f"{path}: line {k}: line end other than "
                                 f"{end}")
    return (data.translate(None, b"\r") if crlf else data).decode(), len(data)


def _loadtxt_int64(lines, width: int, delimiter: str | None):
    """``np.loadtxt`` of int64 rows ``width`` fields wide, or None when
    numpy refuses ``lines`` or they are another width. A warning counts as
    a refusal: numpy 1.x reads a field such as ``1.0`` as 1 and only warns,
    and an empty input warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(lines, dtype=np.int64, delimiter=delimiter,
                              comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return rows if rows.shape[1] == width else None


def read_int_rows(text: str, width: int, delimiter: str | None = None):
    """The lines of ``text``, each ended by ``\\n``, as int64 rows:
    ``(rows, stop)``, ``rows`` an (R, width) int64 array and ``stop`` None,
    or the first line that is no row, as (0-based index, text, read), with
    the rows before it; text after the last ``\\n``, cut short, is
    (index, None, False). A row splits at ``delimiter`` (runs of whitespace
    when None) into ``width`` fields that numpy's reader parses as int64;
    a blank line and a field past int64 are no row, and not ``read``. A
    line numpy reads is a row only when it is written plain, as
    :func:`format_int_rows` writes it: each field :data:`PLAIN_DECIMAL`,
    one ``delimiter`` (a space when None) between fields and no other
    whitespace; else it is no row, and ``read``. One ``np.loadtxt`` call
    parses the ended lines, and its result stands when it holds one row
    per line and the text is as long as those rows written plain, its
    spaces included when ``delimiter`` is None: no form numpy reads is
    shorter than the plain one. Else the lines are checked one at a time.
    """
    data = text.encode()
    ended = text[:text.rfind("\n") + 1]  # text itself when it ends in \n
    end = data.rfind(b"\n") + 1  # the bytes of ``ended``
    # str.count walks the text a character at a time; numpy compares its
    # UTF-8 bytes, in which only a \n is byte 10, in one pass
    flat = np.frombuffer(data, np.uint8)[:end]
    count = int(np.count_nonzero(flat == 10))
    rows = _loadtxt_int64(io.StringIO(ended), width, delimiter)
    stop = (count, None, False) if len(ended) < len(text) else None
    parsed = rows is not None and len(rows) == count
    if parsed:
        # each field's digits, a delimiter or line end after it, and for
        # each power of ten a digit more on every field that reaches it:
        # the plain length of non-negative rows
        plain, power, top = 2 * rows.size, 10, int(rows.max(initial=0))
        while power <= top:
            plain += np.count_nonzero(rows >= power)
            power *= 10
        if plain == end and (delimiter is not None or np.count_nonzero(
                flat == 32) == rows.size - count):
            return rows, stop
    field = f"(?:{PLAIN_DECIMAL})"
    row = re.compile(f"{field}(?:{re.escape(delimiter or ' ')}{field})*")
    found = []
    for k, line in enumerate(ended.split("\n")[:count]):
        values = rows[k:k + 1] if parsed else \
            _loadtxt_int64([line], width, delimiter)
        if values is None or not row.fullmatch(line):
            stop = (k, line, values is not None)
            break
        found.append(values[0])
    return np.array(found, dtype=np.int64).reshape(-1, width), stop


def format_int_rows(rows, delimiter: str, end: str) -> bytes:
    """The (R, F) table ``rows`` of integers in [0, 2**63) as decimal text,
    F >= 1: each row's fields joined by ``delimiter`` and the row followed
    by ``end``, the bytes of ``(delimiter.join(["%d"] * F) + end) * R %
    tuple(values)``. The twin of :func:`read_int_rows`, which reads the
    text back as the same int64 rows. A negative value raises ValueError.

    Every field gets the digit width W of the table's largest value, and
    the rows are laid out in one uint8 buffer of R F slots of S bytes,
    each W digit places and then the delimiter, or in a row's last slot
    the end, padded with NUL; so one decimal place of every field of the
    table is one slice of stride S. The digits are written right-aligned,
    one place at a time: one ``// 10`` pass over the whole table, in the
    narrowest unsigned type that holds it, its ASCII digits, and one write
    of them into that place's slice. A place above a number's first digit
    stays NUL, and the text is the buffer with every NUL deleted; a space
    would not do, as a delimiter may be one.
    """
    block = np.asarray(rows, dtype=np.int64)
    if block.ndim != 2 or block.shape[1] < 1:
        raise ValueError(f"rows of shape {block.shape}: expected (R, F), "
                         "F >= 1")
    if not len(block):
        return b""
    # a negative int64 reads as 2**63 or more as uint64, so one max finds
    # the widest value and any negative one
    top = int(block.view(np.uint64).max())
    if top >= 2**63:
        k, c = np.argwhere(block < 0)[0].tolist()
        raise ValueError(f"row {k}, field {c}: {block[k, c]} is negative")
    width = len(str(top))
    sep, stop = delimiter.encode(), end.encode()
    slot = width + max(len(sep), len(stop))
    count, fields = block.shape
    template = ((b"\0" * width + sep).ljust(slot, b"\0") * (fields - 1)
                + (b"\0" * width + stop).ljust(slot, b"\0"))
    buf = np.frombuffer(bytearray(template * count), np.uint8)
    lines = buf.reshape(count, fields * slot)
    rest = block.astype(np.min_scalar_type(top))
    for place in range(width):
        head = rest // 10
        char = rest - head * 10
        char += 48
        if place:
            char *= rest != 0
        lines[:, width - 1 - place::slot] = char
        rest = head
    return buf.tobytes().translate(None, b"\0")


def save_graph(graph: ConflictGraph, path) -> None:
    """Write the edge-list text format, byte for byte: ``nodes <V>\\n`` and
    ``edges <E>\\n``, then ``<i> <j>\\n`` per row of
    :meth:`ConflictGraph.edge_array` (i < j, sorted), in decimal with one
    space, formatted by :func:`format_int_rows`; every line ends in
    ``\\n``. This is the one layout :func:`load_graph` reads."""
    pairs = graph.edge_array()
    Path(path).write_bytes(
        f"nodes {graph.node_count}\nedges {len(pairs)}\n".encode()
        + format_int_rows(pairs, " ", "\n"))


def _edge_fault(pairs: np.ndarray, n: int) -> tuple[int, str] | None:
    """(row, reason) of the first edge row, in file order, that is a
    self-loop, has an endpoint outside 0..n-1, or is not i < j after the
    row before it; None if none. The first row out of range is the first
    fault, so clipping leaves every key before it exact."""
    i, j = pairs.T
    loop = i == j
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    key = i.clip(0, n) * n + j.clip(0, n)
    disorder = (i > j) | (np.diff(key, prepend=-1) <= 0)
    bad = loop | outside | disorder
    if not bad.any():
        return None
    k = int(bad.argmax())
    a, b = pairs[k].tolist()
    if loop[k]:
        return k, f"self-loop at node {a}"
    if outside[k]:
        return k, f"edge ({a},{b}) out of range for {n} nodes"
    return k, f"edge ({a},{b}) out of order: edges run i < j, ascending"


def _header_count(path, line: int, text: str, key: str) -> tuple[int, str]:
    """The count of header line ``line``, the first of ``text``, read as
    :func:`save_graph` writes it, ``<key> <decimal>\\n``, and the rest."""
    head, end, rest = text.partition("\n")
    if head and not end:
        raise ValueError(f"{path}: line {line}: {CUT_SHORT}")
    words = head.split(" ")
    if len(words) != 2 or words[0] != key:
        raise ValueError(f"{path}: line {line}: expected header "
                         f"'{key} <count>'")
    if not re.fullmatch("-?[0-9]+", words[1]):
        raise ValueError(f"{path}: line {line}: {key[:-1]} count is not "
                         "an integer")
    if not re.fullmatch(PLAIN_DECIMAL, words[1]):
        raise ValueError(f"{path}: line {line}: {key[:-1]} count "
                         f"{words[1]} is not plain decimal")
    return int(words[1]), rest


def load_graph(path, max_nodes: int) -> ConflictGraph:
    """Read the edge-list text format exactly as :func:`save_graph` writes
    it, for a caller that accepts graphs of at most ``max_nodes`` nodes.

    The edge lines are parsed in one :func:`read_int_rows` call and checked
    as arrays. Fails closed, raising ValueError naming the path and line: a
    malformed header line, a node count outside [1, max_nodes] (refused at
    line 1, before anything is sized by it), an edge count outside
    [0, V(V-1)/2], then the first edge row, in file order, that is a
    self-loop, out of range or not i < j after the row before it (a
    repeated or mirrored edge among them), the first line that is no row
    (a blank one among them) or not written plain (:func:`read_int_rows`),
    and last a wrong number of edge rows; a count not in
    :data:`PLAIN_DECIMAL` is refused at its header line. Line
    ends are read as written: before all of that, the first line that
    holds a ``\\r`` is refused, and a last line cut short, without its
    ``\\n``, is refused whatever it holds.
    """
    text, _ = read_as_written(path)
    n, rest = _header_count(path, 1, text, "nodes")
    if not 1 <= n <= max_nodes:
        raise ValueError(f"{path}: line 1: node count {n} is outside "
                         f"[1, {max_nodes}]")
    m, body = _header_count(path, 2, rest, "edges")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"{path}: line 2: edge count {m} is outside "
                         f"[0, {n * (n - 1) // 2}] for {n} nodes")
    pairs, stop = read_int_rows(body, 2)
    fault = _edge_fault(pairs, n)
    if fault is not None:
        k, reason = fault
        raise ValueError(f"{path}: line {k + 3}: {reason}")
    if stop is not None:
        k, line, read = stop
        reason = CUT_SHORT if line is None else NOT_PLAIN if read else \
            "expected 'i j' pair" if len(line.split()) != 2 else \
            "non-integer endpoint, or one outside int64"
        raise ValueError(f"{path}: line {k + 3}: {reason}")
    if len(pairs) > m:
        raise ValueError(f"{path}: line {m + 3}: edge row {m + 1} beyond "
                         f"the edge count {m} of line 2")
    if len(pairs) < m:
        raise ValueError(f"{path}: line {len(pairs) + 3}: "
                         f"{m - len(pairs)} of {m} edge rows missing")
    return ConflictGraph.from_edges(n, pairs)
