"""Independent-set schedulers: distributed local greedy, centralized greedy,
exact branch-and-bound, and the per-link utility functions they consume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ConflictGraph


@dataclass(frozen=True)
class Schedule:
    """A set of links cleared to transmit in one slot.

    ``rounds_used`` counts the synchronous message rounds consumed by the
    distributed solver; centralized solvers leave it as None.
    """

    nodes: frozenset[int]
    rounds_used: int | None = None

    def indicator(self, node_count: int) -> np.ndarray:
        """0/1 membership vector of length ``node_count``."""
        v = np.zeros(node_count, dtype=np.int8)
        if self.nodes:
            v[list(self.nodes)] = 1
        return v


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


def lgs(graph: ConflictGraph, utilities) -> Schedule:
    """Distributed local greedy scheduler, simulated in synchronous rounds.

    Each round, every remaining node compares its utility against all
    remaining neighbors; a node joins the schedule when it beats every one
    of them, where ties go to the larger node ID. Winners and their
    neighbors then leave the residual graph, and the loop ends once nothing
    remains. The returned schedule is a maximal independent set.
    """
    u = _check_utilities(graph, utilities)
    adj = graph.adjacency_matrix
    ids = np.arange(graph.node_count)
    active = np.ones(graph.node_count, dtype=bool)
    chosen: list[int] = []
    rounds = 0
    while active.any():
        rounds += 1
        nbr = adj & active[None, :]
        nbr_best_u = np.where(nbr, u[None, :], -np.inf).max(axis=1)
        at_best = nbr & (u[None, :] == nbr_best_u[:, None])
        nbr_best_id = np.where(at_best, ids[None, :], -1).max(axis=1)
        wins = active & ((u > nbr_best_u)
                         | ((u == nbr_best_u) & (ids > nbr_best_id)))
        if not wins.any():  # unreachable: the global (u, id) max always wins
            raise RuntimeError("local greedy scheduler made no progress")
        chosen.extend(np.flatnonzero(wins).tolist())
        blocked = adj[wins].any(axis=0)
        active &= ~(wins | blocked)
    return Schedule(frozenset(chosen), rounds_used=rounds)


def greedy_centralized(graph: ConflictGraph, utilities) -> Schedule:
    """Centralized sequential greedy: repeatedly take the globally best
    remaining node (ties to the larger ID), then drop it and its neighbors."""
    u = _check_utilities(graph, utilities)
    adj = graph.adjacency_matrix
    active = np.ones(graph.node_count, dtype=bool)
    chosen: list[int] = []
    while active.any():
        tied = np.flatnonzero(active & (u == u[active].max()))
        v = int(tied.max())
        chosen.append(v)
        active[v] = False
        active &= ~adj[v]
    return Schedule(frozenset(chosen))


def exact_mwis(graph: ConflictGraph, utilities, max_nodes: int = 40) -> Schedule:
    """Maximum-weight independent set by depth-first branch and bound.

    Branches on the lowest remaining node ID, exclude branch first, so
    candidate sets are met in increasing indicator-lexicographic order;
    pruning on ``current + remaining <= best`` then keeps the first (hence
    lexicographically smallest) maximizer. Ties therefore prefer the set
    that leaves out lower-ID nodes. Weights must be non-negative and the
    graph at most ``max_nodes`` nodes.
    """
    u = _check_utilities(graph, utilities)
    n = graph.node_count
    if n > max_nodes:
        raise ValueError(f"exact solver capped at {max_nodes} nodes, got {n}")
    if (u < 0).any():
        raise ValueError("exact solver requires non-negative utilities")
    w = u.tolist()
    closed = [mask | (1 << v)
              for v, mask in enumerate(graph.neighbor_bitmasks)]
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
    nodes = frozenset(v for v in range(n) if best_set >> v & 1)
    return Schedule(nodes)
