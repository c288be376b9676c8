"""Independent-set schedulers: distributed local greedy, centralized greedy,
exact branch-and-bound, and the per-link utility functions they consume.

The distributed local greedy scheduler (LGS) has one kernel,
:func:`lgs_rows`, which schedules a batch of utility rows on one graph
without sorting: a node joins when no remaining neighbor outranks it in
(utility, node ID) order. :func:`lgs` is its one-row case."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ConflictGraph

# The largest graph exact_mwis accepts; its search is exponential in V.
EXACT_NODE_CAP = 40


@dataclass(frozen=True, eq=False)
class Schedule:
    """The links cleared to transmit in one slot, as a (V,) bool membership
    mask over the graph's nodes.

    ``rounds_used`` counts the synchronous message rounds consumed by the
    distributed solver; centralized solvers leave it as None. Equality is
    identity: compare ``members`` arrays instead.
    """

    members: np.ndarray
    rounds_used: int | None = None

    def __post_init__(self) -> None:
        m = self.members
        if not isinstance(m, np.ndarray) or m.dtype != bool or m.ndim != 1:
            raise ValueError("schedule members must be a 1-D bool mask")


def _check_utilities(graph: ConflictGraph, utilities) -> np.ndarray:
    u = np.asarray(utilities, dtype=np.float64)
    if u.shape != (graph.node_count,):
        raise ValueError(
            f"utility vector length {u.shape} does not match {graph.node_count} nodes")
    if not np.isfinite(u).all():
        raise ValueError("utilities must be finite")
    return u


def baseline_utility(queues, rates, kind: str = "product") -> np.ndarray:
    """Per-link utility from backlog and rate: elementwise product or
    minimum, or ``queue`` for the raw backlog (the classic myopic weight)."""
    q = np.asarray(queues, dtype=np.float64)
    r = np.asarray(rates, dtype=np.float64)
    if q.shape != r.shape:
        raise ValueError("queue and rate vectors differ in length")
    if (q < 0).any() or (r < 0).any():
        raise ValueError("queues and rates must be non-negative")
    if kind == "product":
        return q * r
    if kind == "min":
        return np.minimum(q, r)
    if kind == "queue":
        return q
    raise ValueError(f"unknown utility kind: {kind!r}")


def lgs_rows(graph: ConflictGraph, utilities) -> tuple[np.ndarray, np.ndarray]:
    """Distributed local greedy scheduler on each row of a (B, V) utility
    matrix over one graph, simulated in synchronous rounds.

    Each round, every remaining node compares its utility against all
    remaining neighbors; a node joins the schedule when it beats every one
    of them, where ties go to the larger node ID (the local-maximum rule of
    Luby's independent-set algorithm). Winners and their neighbors then
    leave the residual graph, and a row is done once nothing of it remains.
    Each row's schedule is a maximal independent set.

    The kernel sorts nothing. Once per call it decides, for every entry
    (v, w) of ``graph.neighbor_segments`` (the cached closed
    neighborhoods), whether w outranks v: u_w > u_v, or u_w == u_v and
    w > v. Both are exact float comparisons, so -0.0 and 0.0 tie and go by
    ID. Each round is then two segment ORs: a remaining node is beaten when
    a remaining neighbor outranks it, and leaves when it or a neighbor won.
    Every flag is a byte, node- or entry-major, and the B rows of a node or
    entry fill one unsigned word of 1, 2, 4 or 8 bytes, or whole 8-byte
    words, padded with rows that never take part; so each OR, AND and
    ``take`` moves all rows of a node at once. Returns ``(members,
    rounds)``: a (B, V) bool membership matrix and the (B,) message rounds
    each row used.
    """
    u = np.asarray(utilities, dtype=np.float64)
    n = graph.node_count
    if u.ndim != 2 or u.shape[1] != n:
        raise ValueError(
            f"utility matrix shape {u.shape} does not match {n} nodes")
    if not np.isfinite(u).all():
        raise ValueError("utilities must be finite")
    b = u.shape[0]
    index, starts, higher = graph.neighbor_segments
    width = 1 << max(b - 1, 0).bit_length() if b <= 8 else -(-b // 8) * 8
    word = np.dtype(f"u{min(width, 8)}")
    ones = word.type((256 ** word.itemsize - 1) // 255)  # 1 in every byte
    by_node = np.zeros((n, width))
    by_node[:, :b] = u.T
    uw = by_node.take(index, axis=0)
    uv = np.repeat(by_node, graph.degrees + 1, axis=0)  # each segment's v
    outranks = (uw > uv).view(word)
    # one word per entry: broadcasting the flags over bool rows instead runs
    # numpy's inner loop once per entry, which is slower for few rows
    outranks |= (uw == uv).view(word) & (higher.astype(word) * ones)[:, None]
    remaining = np.zeros((n, width), dtype=bool)
    remaining[:, :b] = True
    active = remaining.view(word)
    members = np.zeros_like(active)
    rounds = np.zeros(b, dtype=np.int64)
    # in the first round every node remains, so no flag needs gathering
    beaten = np.bitwise_or.reduceat(outranks, starts, axis=0)
    while True:
        rounds += np.bitwise_or.reduce(active, axis=0).view(bool)[:b]
        wins = active & ~beaten
        members |= wins
        active &= ~np.bitwise_or.reduceat(wins.take(index, axis=0), starts,
                                          axis=0)
        if not active.any():
            return members.view(bool)[:, :b].T.copy(), rounds
        beaten = np.bitwise_or.reduceat(
            outranks & active.take(index, axis=0), starts, axis=0)


def lgs(graph: ConflictGraph, utilities) -> Schedule:
    """Distributed local greedy scheduler: the one-row case of
    :func:`lgs_rows`, which checks the utilities, returned as a
    :class:`Schedule` with its rounds. The result is a maximal independent
    set."""
    members, rounds = lgs_rows(graph, np.asarray(utilities)[None])
    return Schedule(members[0], int(rounds[0]))


def greedy_centralized(graph: ConflictGraph, utilities) -> Schedule:
    """Centralized sequential greedy: repeatedly take the globally best
    remaining node (ties to the larger ID), then drop it and its neighbors.

    One pass does this: a stable ascending argsort, reversed, visits the
    nodes in descending (utility, id) order, and each node that no chosen
    neighbor has blocked is taken; a taken node v blocks its neighbors,
    OR-ing the cached ``graph.neighbor_bitmasks[v]`` into one Python-int
    mask. When the scan reaches an unblocked node, every node ahead of it
    is chosen or blocked, so it is the best node the repeated-argmax loop
    would take next. Unlike :func:`lgs_rows`, this is a sequential
    algorithm, which keeps ``lgs == greedy_centralized`` a meaningful
    property.
    """
    u = _check_utilities(graph, utilities)
    nbrs = graph.neighbor_bitmasks
    blocked = 0
    members = np.zeros(graph.node_count, dtype=bool)
    for v in np.argsort(u, kind="stable")[::-1].tolist():
        if not blocked >> v & 1:
            members[v] = True
            blocked |= nbrs[v]
    return Schedule(members)


def exact_mwis(graph: ConflictGraph, utilities) -> Schedule:
    """Maximum-weight independent set by depth-first branch and bound.

    Each search node that survives the bound applies the degree-0
    reduction: a remaining node with no remaining neighbor is taken when its
    weight is positive and dropped when it is zero. It then branches on the
    lowest remaining node ID, exclude branch first, so candidate sets are
    met in increasing indicator-lexicographic order (node 0 most
    significant); pruning on ``current + remaining <= best`` then keeps the
    first (hence lexicographically smallest) maximizer. Ties therefore
    prefer the set that leaves out lower-ID nodes. The reduction keeps that
    rule: a free node of positive weight is in every maximizer, and leaving
    a free node of zero weight out gives the lexicographically smaller set
    of equal weight. On a star the search tree has two leaves, hub in or
    hub out with every leaf taken at once. Weights must be non-negative and
    the graph at most :data:`EXACT_NODE_CAP` nodes.
    """
    u = _check_utilities(graph, utilities)
    n = graph.node_count
    if n > EXACT_NODE_CAP:
        raise ValueError(
            f"exact solver capped at {EXACT_NODE_CAP} nodes, got {n}")
    if (u < 0).any():
        raise ValueError("exact solver requires non-negative utilities")
    w = u.tolist()
    nbrs = graph.neighbor_bitmasks
    closed = [mask | (1 << v) for v, mask in enumerate(nbrs)]
    positive = sum(1 << v for v in range(n) if w[v] > 0)
    best_weight = -1.0
    best_set = 0

    def bit_sum(mask: int) -> float:
        s = 0.0
        while mask:
            low = mask & -mask
            s += w[low.bit_length() - 1]
            mask ^= low
        return s

    def search(rem: int, weight: float, chosen: int, rem_sum: float) -> None:
        nonlocal best_weight, best_set
        if weight + rem_sum <= best_weight:
            return
        free = 0
        scan = rem
        while scan:
            low = scan & -scan
            if not nbrs[low.bit_length() - 1] & rem:
                free |= low
            scan ^= low
        if free:
            rem ^= free
            taken = free & positive
            gain = bit_sum(taken)
            chosen |= taken
            weight += gain
            rem_sum -= gain
        if rem == 0:
            # the bound above guarantees a strict improvement here
            best_weight = weight
            best_set = chosen
            return
        v = (rem & -rem).bit_length() - 1
        search(rem & ~(1 << v), weight, chosen, rem_sum - w[v])
        dropped = closed[v] & rem
        search(rem & ~dropped, weight + w[v], chosen | (1 << v),
               rem_sum - bit_sum(dropped))

    search((1 << n) - 1, 0.0, 0, sum(w))
    return Schedule(np.array([best_set >> v & 1 for v in range(n)], dtype=bool))
