"""Conflict-graph construction, random graph models, and spectral helpers.

Vertices of a conflict graph are wireless links; an edge joins two links
that interfere and therefore cannot transmit in the same time slot. A graph
is stored once, as compressed sparse rows (CSR); every kernel reads those
two arrays or a layout cached from them.
"""

from __future__ import annotations

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
        """Build a graph from an iterable of (i, j) pairs; repeated and
        mirrored pairs name one edge. A self-loop or an endpoint outside
        0..node_count-1 raises ValueError naming the first such pair."""
        pairs = np.array([(i, j) for i, j in edges], dtype=np.intp).reshape(-1, 2)
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

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, sorted."""
        rows = np.repeat(np.arange(self.node_count), self.degrees)
        upper = rows < self.indices
        return list(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    @cached_property
    def laplacian(self) -> np.ndarray:
        """This graph's :func:`normalized_laplacian`, built on first use and
        kept read-only, so every GCN forward on the graph shares one."""
        lap = normalized_laplacian(self)
        lap.setflags(write=False)
        return lap

    @cached_property
    def neighbor_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR arrays laid out for ``np.ufunc.reduceat`` over
        neighborhoods: ``(index, starts)``, the LGS kernel's cached form.

        Segment v, ``index[starts[v]:starts[v + 1]]`` (the last one runs to
        the end), holds the sentinel column ``node_count`` followed by the
        neighbors of v. No segment is empty, as ``reduceat`` needs; a caller
        fills the sentinel column with its reduction's identity.
        """
        n, ptr = self.node_count, self.indptr[:-1]
        return np.insert(self.indices, ptr, n), ptr + np.arange(n)

    @cached_property
    def neighbor_bitmasks(self) -> tuple[int, ...]:
        """Per-node neighbor sets packed into ints, bit w of entry v set when
        w neighbors v; the exact solver and centralized greedy share them."""
        ptr, nbrs = self.indptr.tolist(), self.indices.tolist()
        return tuple(sum(1 << w for w in nbrs[a:b])
                     for a, b in zip(ptr[:-1], ptr[1:]))


def generate_star(x: int) -> ConflictGraph:
    """Star graph: hub node 0 adjacent to peripheral nodes 1..x."""
    if x < 1:
        raise ValueError("star needs at least one peripheral node")
    return ConflictGraph.from_edges(x + 1, [(0, i) for i in range(1, x + 1)])


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
    edges = zip(rows[hit].tolist(), cols[hit].tolist())
    return ConflictGraph.from_edges(n, edges)


def generate_ba(n: int, m: int,
                rng: np.random.Generator | int | None = None) -> ConflictGraph:
    """Barabasi-Albert preferential attachment on n nodes.

    Starts from m isolated seed nodes; each new node attaches to m distinct
    existing nodes chosen with probability proportional to current degree
    (uniformly while all degrees are still zero). The result always has
    exactly (n - m) * m edges.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    gen = as_rng(rng)
    degree = np.zeros(n, dtype=np.float64)
    edges: list[tuple[int, int]] = []
    for new in range(m, n):
        total = degree[:new].sum()
        probs = degree[:new] / total if total else np.full(new, 1.0 / new)
        targets = gen.choice(new, size=m, replace=False, p=probs)
        edges += [(t, new) for t in targets.tolist()]
        degree[targets] += 1
        degree[new] += m
    return ConflictGraph.from_edges(n, edges)


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
    edges: list[tuple[int, int]] = []
    for new in range(1, n):
        budget = np.maximum(targets[:new] - degree[:new], 1).astype(np.float64)
        parent = int(gen.choice(new, p=budget / budget.sum()))
        edges.append((parent, new))
        degree[[parent, new]] += 1
    return ConflictGraph.from_edges(n, edges)


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
    """True iff no edge of the graph has both endpoints in the (V,) bool or
    0/1 membership mask ``members``.

    Each CSR entry (v, w) is an edge end; the set is independent when no
    entry has both ``members[v]`` and ``members[w]``.
    """
    m = np.asarray(members, dtype=bool)
    if m.shape != (graph.node_count,):
        raise ValueError(f"membership mask shape {m.shape} does not "
                         f"match {graph.node_count} nodes")
    return not (np.repeat(m, graph.degrees) & m[graph.indices]).any()


def save_graph(graph: ConflictGraph, path) -> None:
    """Write the edge-list text format: ``nodes <V>`` then one ``i j`` per line."""
    lines = [f"nodes {graph.node_count}"]
    lines.extend(f"{i} {j}" for i, j in graph.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path, max_nodes: int) -> ConflictGraph:
    """Read the edge-list text format written by :func:`save_graph`, for a
    caller that accepts graphs of at most ``max_nodes`` nodes.

    A malformed header, a node count outside [1, max_nodes] (refused at line
    1, before anything is sized by it), and a malformed, self-looped or
    out-of-range edge each raise ValueError naming the path and line.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "nodes":
        raise ValueError(f"{path}: line 1: expected header 'nodes <V>'")
    try:
        n = int(head[1])
    except ValueError:
        raise ValueError(f"{path}: line 1: node count is not an integer") from None
    if not 1 <= n <= max_nodes:
        raise ValueError(f"{path}: line 1: node count {n} is outside "
                         f"[1, {max_nodes}]")
    edges = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {ln}: expected 'i j' pair")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {ln}: non-integer endpoint") from None
        if i == j:
            raise ValueError(f"{path}: line {ln}: self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}: line {ln}: edge ({i},{j}) out of "
                             f"range for {n} nodes")
        edges.append((i, j))
    return ConflictGraph.from_edges(n, edges)
