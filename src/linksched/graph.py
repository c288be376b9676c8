"""Conflict-graph construction, random graph models, and spectral helpers.

Vertices of a conflict graph are wireless links; an edge joins two links
that interfere and therefore cannot transmit in the same time slot. A graph
is stored once, as compressed sparse rows (CSR); every kernel reads those
two arrays or a layout cached from them. The random-graph generators build
their edges as one (E, 2) array each, never as Python pairs, and hand it to
:meth:`ConflictGraph.from_edges`.

Instance files are read and written as whole columns: :func:`read_int_rows`
parses a text table of integers in one call to numpy's C reader, and
:func:`scan_int_rows`, its line-by-line twin, runs only after a refusal to
name the offending line. ``graph.txt`` and ``sim``'s ``trace.csv`` both use
them, and both state their size in a header, so a file cut short is refused.
"""

from __future__ import annotations

import io
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
        ``(index, starts, higher)``, the LGS kernel's cached form.

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
    target-degree budget, floored at 1 so attachment never stalls. The
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
        parent = parents[new - 1] = gen.choice(new, p=budget / budget.sum())
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


def is_independent_mask(graph: ConflictGraph, members, *,
                        rows: bool = False) -> bool:
    """True iff no edge of the graph has both endpoints in the (V,) bool or
    0/1 membership mask ``members``; with ``rows``, in any row of the
    (P, V) block ``members``, so one call checks P schedules.

    Each edge of :attr:`ConflictGraph.edge_ends` is checked once, by two
    gathers along the node axis. Without ``rows`` any shape but (V,) is
    refused, so a block is never read as one mask by mistake.
    """
    m = np.asarray(members, dtype=bool)
    n = graph.node_count
    if m.shape[-1:] != (n,) or m.ndim != 1 + rows:
        raise ValueError(f"membership mask shape {m.shape} does not "
                         f"match {n} nodes")
    i, j = graph.edge_ends
    return not (m.take(i, axis=-1) & m.take(j, axis=-1)).any()


# --- integer text tables ------------------------------------------------------

INT64_MAX = 2**63 - 1


def _loadtxt_int64(lines, delimiter: str | None) -> np.ndarray:
    """``np.loadtxt`` of int64 rows, with any warning raised as an error:
    numpy 1.x reads a field such as ``1.0`` as 1 and only warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype=np.int64, delimiter=delimiter,
                          comments=None, ndmin=2)


def read_int_rows(text: str, width: int,
                  delimiter: str | None = None) -> np.ndarray | None:
    """The lines of ``text`` as an (R, width) int64 array, parsed in one
    ``np.loadtxt`` call (numpy's C reader), or None when that reader refuses
    a line or the rows are not ``width`` fields wide.

    Fields are split at ``delimiter``, or at runs of whitespace when it is
    None. The reader skips empty lines, and with a None delimiter also
    whitespace-only ones; a caller that refuses blank lines compares the row
    count with the line count. :func:`scan_int_rows` names a refused line.
    """
    if not text or text.isspace():  # loadtxt would warn about no data
        return np.empty((0, width), dtype=np.int64)
    try:
        rows = _loadtxt_int64(io.StringIO(text), delimiter)
    except (ValueError, Warning):
        return None
    return rows if rows.shape[1] == width else None


def scan_int_rows(text: str, width: int, delimiter: str | None = None,
                  skip_blank: bool = False):
    """Line-by-line twin of :func:`read_int_rows`, run after it refused
    ``text``, to name the refused line.

    Lines end at ``\\n``. Each line must split into ``width`` fields that
    numpy's reader parses alone; a row of integers that only misses int64
    is kept as ``int()`` reads it, for the caller's range checks to name.
    Blank lines are refused unless ``skip_blank``, which skips
    whitespace-only lines. Returns ``(rows, lines, stop)``: the rows before
    the first refused line as an (R, width) object array of Python ints,
    their 0-based line indices, and that line as (index, text), or None.
    """
    pieces = text.split("\n")
    if pieces[-1] == "":
        pieces.pop()
    rows, lines, stop = [], [], None
    for k, line in enumerate(pieces):
        if skip_blank and not line.strip():
            continue
        fields = line.split(delimiter)
        row = []
        if len(fields) == width:
            try:
                row = _loadtxt_int64([line], delimiter).ravel().tolist()
            except (ValueError, Warning):
                try:
                    ints = [int(field) for field in fields]
                except ValueError:
                    ints = []
                if any(not -INT64_MAX - 1 <= x <= INT64_MAX for x in ints):
                    row = ints
        if len(row) != width:
            stop = (k, line)
            break
        rows.append(row)
        lines.append(k)
    return np.array(rows, dtype=object).reshape(-1, width), lines, stop


def save_graph(graph: ConflictGraph, path) -> None:
    """Write the edge-list text format, byte for byte: ``nodes <V>\\n`` and
    ``edges <E>\\n``, then ``<i> <j>\\n`` per row of
    :meth:`ConflictGraph.edge_array` (i < j, sorted), in decimal with one
    space; every line ends in ``\\n``."""
    pairs = graph.edge_array()
    text = "%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist())
    Path(path).write_text(f"nodes {graph.node_count}\nedges {len(pairs)}\n"
                          f"{text}", newline="")


def _edge_fault(pairs: np.ndarray, n: int) -> tuple[int, str] | None:
    """(row, reason) of the first self-looped, out-of-range or repeated
    edge row, in file order; a repeat names the edge of an earlier row, in
    either orientation."""
    i, j = pairs.T
    loop = i == j
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    key = np.where(loop | outside, -1 - np.arange(len(pairs)),
                   np.minimum(i, j) * n + np.maximum(i, j))
    repeat = np.ones(len(pairs), dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False  # first of each
    bad = loop | outside | repeat
    if not bad.any():
        return None
    k = int(bad.argmax())
    a, b = (int(x) for x in pairs[k])
    if loop[k]:
        return k, f"self-loop at node {a}"
    if outside[k]:
        return k, f"edge ({a},{b}) out of range for {n} nodes"
    return k, f"repeated edge ({a},{b})"


def _header_count(path, line: int, text: str, key: str) -> int:
    """The integer of header line ``line``, which must read ``<key> <int>``."""
    head = text.split()
    if len(head) != 2 or head[0] != key:
        raise ValueError(f"{path}: line {line}: expected header "
                         f"'{key} <count>'")
    try:
        return int(head[1])
    except ValueError:
        raise ValueError(f"{path}: line {line}: {key[:-1]} count is not "
                         "an integer") from None


def load_graph(path, max_nodes: int) -> ConflictGraph:
    """Read the edge-list text format written by :func:`save_graph`, for a
    caller that accepts graphs of at most ``max_nodes`` nodes.

    The edge lines are parsed in one :func:`read_int_rows` call; blank lines
    among them are allowed. Fails closed, raising ValueError naming the path
    and line: a malformed header line, a node count outside
    [1, max_nodes] (refused at line 1, before anything is sized by it), an
    edge count outside [0, V(V-1)/2], then the first malformed, self-looped,
    out-of-range or repeated edge row in file order, and last a number of
    edge rows other than the edge count.
    """
    text = Path(path).read_text()
    if not text:
        raise ValueError(f"{path}: empty graph file")
    nodes_line, _, rest = text.partition("\n")
    edges_line, _, body = rest.partition("\n")
    n = _header_count(path, 1, nodes_line, "nodes")
    if not 1 <= n <= max_nodes:
        raise ValueError(f"{path}: line 1: node count {n} is outside "
                         f"[1, {max_nodes}]")
    m = _header_count(path, 2, edges_line, "edges")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"{path}: line 2: edge count {m} is outside "
                         f"[0, {n * (n - 1) // 2}] for {n} nodes")
    pairs = read_int_rows(body, 2)
    if pairs is None or len(pairs) != m or _edge_fault(pairs, n) is not None:
        pairs, lines, stop = scan_int_rows(body, 2, skip_blank=True)
        fault = _edge_fault(pairs, n)
        if fault is not None:
            k, reason = fault
            raise ValueError(f"{path}: line {lines[k] + 3}: {reason}")
        if stop is not None:
            k, line = stop
            reason = "expected 'i j' pair" if len(line.split()) != 2 \
                else "non-integer endpoint"
            raise ValueError(f"{path}: line {k + 3}: {reason}")
        if len(pairs) > m:
            raise ValueError(f"{path}: line {lines[m] + 3}: edge row {m + 1} "
                             f"beyond the edge count {m} of line 2")
        if len(pairs) < m:
            line_count = body.count("\n") + (body[-1:] not in ("", "\n"))
            raise ValueError(f"{path}: line {line_count + 3}: "
                             f"{m - len(pairs)} of {m} edge rows missing")
    return ConflictGraph.from_edges(n, pairs)
