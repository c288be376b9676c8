"""Conflict-graph construction, random graph models, and spectral helpers.

Vertices of a conflict graph are wireless links; an edge joins two links
that interfere and therefore cannot transmit in the same time slot.
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


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected interference graph with stable integer node IDs.

    Nodes are numbered 0..node_count-1 and keep that identity for the whole
    run (the distributed scheduler breaks ties on it). ``adjacency`` holds a
    sorted, duplicate-free neighbor tuple per node. Instances are immutable
    and safe to share across threads.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        if len(self.adjacency) != self.node_count:
            raise ValueError("adjacency length must equal node_count")
        for v, nbrs in enumerate(self.adjacency):
            prev = -1
            for w in nbrs:
                if not 0 <= w < self.node_count:
                    raise ValueError(f"neighbor {w} of node {v} out of range")
                if w == v:
                    raise ValueError(f"self-loop at node {v}")
                if w <= prev:
                    raise ValueError(f"neighbors of node {v} not sorted unique")
                prev = w
        for v, nbrs in enumerate(self.adjacency):
            for w in nbrs:
                if v not in self.adjacency[w]:
                    raise ValueError(f"edge ({v},{w}) missing its mirror")

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "ConflictGraph":
        """Build a graph from an iterable of (i, j) pairs."""
        nbrs: list[set[int]] = [set() for _ in range(node_count)]
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ValueError(f"edge ({i},{j}) out of range")
            nbrs[i].add(j)
            nbrs[j].add(i)
        return cls(node_count, tuple(tuple(sorted(s)) for s in nbrs))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([len(n) for n in self.adjacency], dtype=np.int64)

    @cached_property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, sorted."""
        return [(v, w) for v in range(self.node_count)
                for w in self.adjacency[v] if v < w]

    @cached_property
    def laplacian(self) -> np.ndarray:
        """This graph's :func:`normalized_laplacian`, built on first use and
        kept read-only, so every GCN forward on the graph shares one."""
        lap = normalized_laplacian(self)
        lap.setflags(write=False)
        return lap

    @cached_property
    def neighbor_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR view for ``np.ufunc.reduceat`` over neighborhoods:
        ``(index, starts)``.

        Segment v, ``index[starts[v]:starts[v + 1]]`` (the last one runs to
        the end), holds the sentinel column ``node_count`` followed by the
        neighbors of v. No segment is empty, as ``reduceat`` needs; a caller
        fills the sentinel column with its reduction's identity.
        """
        index = np.fromiter(
            (w for nbrs in self.adjacency for w in (self.node_count, *nbrs)),
            dtype=np.intp, count=self.node_count + 2 * self.edge_count)
        starts = np.arange(self.node_count, dtype=np.intp)
        starts[1:] += np.cumsum(self.degrees[:-1])
        return index, starts

    @cached_property
    def neighbor_bitmasks(self) -> tuple[int, ...]:
        """Per-node neighbor sets packed into ints (for the exact solver)."""
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for w in nbrs:
                m |= 1 << w
            masks.append(m)
        return tuple(masks)


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
        if total == 0:
            probs = np.full(new, 1.0 / new)
        else:
            probs = degree[:new] / total
        targets = gen.choice(new, size=m, replace=False, p=probs)
        for t in targets:
            edges.append((int(t), new))
            degree[t] += 1
            degree[new] += 1
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
        degree[parent] += 1
        degree[new] += 1
    return ConflictGraph.from_edges(n, edges)


def normalized_laplacian(graph: ConflictGraph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2), dense float64,
    as a new array; :attr:`ConflictGraph.laplacian` caches it per graph.

    The edge entries come from the neighbor lists (the non-sentinel columns
    of ``graph.neighbor_segments``); all other off-diagonal entries are
    +0.0. Rows and columns of isolated nodes are identically zero (diagonal
    included), so the aggregation term of the convolution passes nothing
    through them.
    """
    n = graph.node_count
    deg = graph.degrees.astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
    index, _ = graph.neighbor_segments
    cols = index[index < n]
    rows = np.repeat(np.arange(n), graph.degrees)
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

    One ``np.logical_or.reduceat`` over ``graph.neighbor_segments`` marks
    every node with a member neighbor; the sentinel column stays False.
    """
    n = graph.node_count
    mask = np.zeros(n + 1, dtype=bool)
    members = np.asarray(members)
    if members.shape != (n,):
        raise ValueError(f"membership mask shape {members.shape} does not "
                         f"match {n} nodes")
    mask[:n] = members
    index, starts = graph.neighbor_segments
    has_member_nbr = np.logical_or.reduceat(mask[index], starts)
    return not (has_member_nbr & mask[:n]).any()


def save_graph(graph: ConflictGraph, path) -> None:
    """Write the edge-list text format: ``nodes <V>`` then one ``i j`` per line."""
    lines = [f"nodes {graph.node_count}"]
    lines.extend(f"{i} {j}" for i, j in graph.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path) -> ConflictGraph:
    """Read the edge-list text format written by :func:`save_graph`.

    A malformed header, a node count below 1, and a malformed, self-looped
    or out-of-range edge each raise ValueError naming the path and line.
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
    if n < 1:
        raise ValueError(f"{path}: line 1: graph needs at least one node, "
                         f"got {n}")
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
