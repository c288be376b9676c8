"""Independent-set schedulers: distributed local greedy, centralized greedy,
exact branch-and-bound, and the baseline's per-link utility.

A schedule is a (V,) bool membership mask over the graph's nodes. The
distributed local greedy scheduler (LGS) has one implementation,
:func:`lgs_rows`, which schedules a batch of utility rows on one graph without sorting: a
node joins when no remaining neighbor outranks it in (utility, node ID)
order. :func:`greedy_centralized` and :func:`exact_mwis` schedule one (V,)
row or a (B, V) stack of rows, each row as on its own.

There is one function per solver, and it runs unchecked, as
:func:`~linksched.sim.advance` does: the refusals sit where their input
enters the program. :func:`exact_mwis` alone keeps a test, the one on
negative weights its bound needs, and :func:`check_exact_cap` is the
refusal of a graph too large for it.
:func:`~linksched.sim.run_episode` is the one caller that solves a
policy's utilities, one solver call per solver per slot, after its own
checks: the exact cap once before the first slot, each policy's row
shape, and the finiteness of every row once per slot; its queues are
non-negative by construction, so its weighing needs no check.
:func:`~linksched.sim.lookahead_compare` weighs and solves the baseline's
one step from every state of a trajectory, and the steps of the rollouts
that leave it, after refusing a negative queue where a step starts; the
rates come from a checked trace, and a product of two int64s is finite.

Every solver reads what it derives from the graph alone from a table
cached on the immutable :class:`~linksched.graph.ConflictGraph`, so a
call pays only for its utilities: LGS the neighbor segments, and greedy
and the exact solver the neighbor bitmasks. LGS runs in numpy; greedy
and the exact solver run on Python-int node sets, and the exact solver
works on a wide set in one C-level ``functools.reduce`` pass over
``itertools.compress``."""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import add, or_

import numpy as np

from .graph import ConflictGraph

# The largest graph check_exact_cap admits to exact_mwis, whose search is
# exponential in V.
EXACT_NODE_CAP = 40
# exact_mwis walks a node set of at most this many members bit by bit and
# folds a wider one in C: a fold's fixed cost is about that of ten loop
# steps, so a narrow set does not repay it
_LOOP_MAX = 12
# bin(mask)[:1:-1] spells mask's bits node 0 first as ASCII digits; these
# tables turn the digits into one 0/1 byte per node, as itertools.compress
# and numpy's bool arrays read them, and back
_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def baseline_utility(queues, rates, out: np.ndarray | None = None,
                     ) -> np.ndarray:
    """Per-link utility backlog x rate, elementwise as float64: the LGS
    baseline's weight and the GCN's input. The product, broadcast, lands
    in ``out`` when one is given (a float64 array of the broadcast shape),
    else in a new array. Both sides are cast to float64 before they are
    multiplied, so int64 sides never wrap. Unchecked: the callers weigh
    queues that are non-negative by construction or that they checked."""
    return np.multiply(queues, rates, out=out, dtype=np.float64)


def lgs_rows(graph: ConflictGraph, utilities) -> tuple[np.ndarray, np.ndarray]:
    """Distributed local greedy scheduler on each row of a (B, V) utility
    matrix over one graph, simulated in synchronous rounds.

    Each round, every remaining node compares its utility against all
    remaining neighbors; a node joins the schedule when it beats every one
    of them, where ties go to the larger node ID (the local-maximum rule of
    Luby's independent-set algorithm). Winners and their neighbors then
    leave the residual graph, and a row is done once nothing of it remains.
    Each row's schedule is a maximal independent set.

    The solver sorts nothing. Once per call it decides, for every entry
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

    Unchecked: ``utilities`` is a finite (B, V) array.
    """
    u, n, b = utilities, graph.node_count, len(utilities)
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


def greedy_centralized(graph: ConflictGraph, utilities) -> np.ndarray:
    """Centralized sequential greedy: repeatedly take the globally best
    remaining node (ties to the larger ID), then drop it and its neighbors.

    One pass does this: a stable ascending argsort, reversed, visits the
    nodes in descending (utility, id) order, and each node that no chosen
    neighbor has blocked is taken; a taken node v blocks its neighbors,
    OR-ing the cached ``graph.neighbor_bitmasks[v]`` into one Python-int
    mask. When the scan reaches an unblocked node, every node ahead of it
    is chosen or blocked, so it is the best node the repeated-argmax loop
    would take next. Unlike :func:`lgs_rows`, this is a sequential
    algorithm, which keeps ``lgs_rows == greedy_centralized`` a meaningful
    property; training's main trajectory relies on it, scheduling with
    this scan instead of LGS.

    ``utilities`` is one (V,) row or a (B, V) stack; the stack is argsorted
    once, and each row is scanned as on its own. Returns bool membership
    masks of the input's shape. Unchecked: the utilities are finite.
    """
    u = np.asarray(utilities, dtype=np.float64)
    n, nbrs = graph.node_count, graph.neighbor_bitmasks
    members = np.zeros(u.shape, dtype=bool)
    flat, base = members.reshape(-1), 0  # row b's node v at base b * V + v
    for order in u.reshape(-1, n).argsort(kind="stable").tolist():
        blocked = 0
        for v in reversed(order):
            if not blocked >> v & 1:
                flat[base + v] = True
                blocked |= nbrs[v]
        base += n
    return members


def exact_mwis(graph: ConflictGraph, utilities) -> np.ndarray:
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
    hub out with every leaf taken at once.

    ``utilities`` is one (V,) row or a (B, V) stack of finite weights over
    a graph of at most :data:`EXACT_NODE_CAP` nodes (:func:`check_exact_cap`
    refuses a larger one), and each row is searched as on its own; the
    search is built once per call, and it returns bool membership masks of
    the input's shape. It checks one thing, the one its bound needs: a
    negative weight, which it finds in the row lists it builds anyway, is
    refused.

    Node sets are Python ints, bit v for node v. The neighbor sets are the
    graph's cached :attr:`~linksched.graph.ConflictGraph.neighbor_bitmasks`,
    which greedy reads too; taking v drops ``nbrs[v] & rem | 1 << v``, its
    closed neighborhood within the remaining set. A set's weight is summed
    sequentially from 0.0 in ascending node ID, at the root too, and this
    order is the contract: every bound and comparison sees the same float
    as the plain loop would, on any Python (builtin ``sum`` compensates
    from 3.12 on). A set of more than ``_LOOP_MAX`` members is spelled as
    one 0/1 byte per node, and its weight and free nodes are each one C
    fold: ``reduce(add, compress(w, flags), 0.0)``, and ``rem`` less the
    union of the remaining nodes' neighbor sets (adjacency is symmetric,
    so that union is exactly the nodes with a remaining neighbor). A
    narrower set is walked bit by bit, which its few members make cheaper
    than the fold's fixed cost. The same byte spelling packs ``u > 0`` into
    each row's set of positive weights and unpacks the best sets into the
    returned masks.
    """
    u, n = np.asarray(utilities, dtype=np.float64), graph.node_count
    rows = u.reshape(-1, n).tolist()
    # the weights are finite, so this is (u < 0).any()
    if rows and min(map(min, rows)) < 0:
        raise ValueError("exact solver requires non-negative utilities")
    nbrs = graph.neighbor_bitmasks
    positives = (u > 0).tobytes()  # one 0/1 byte per (row, node)

    def flags(mask: int) -> bytes:
        # one 0/1 byte per node, node 0 first, up to mask's highest member
        return bin(mask)[:1:-1].encode().translate(_TO_FLAGS)

    def bit_sum(mask: int) -> float:
        if mask.bit_count() > _LOOP_MAX:
            return reduce(add, compress(w, flags(mask)), 0.0)
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
        if rem.bit_count() > _LOOP_MAX:
            free = rem & ~reduce(or_, compress(nbrs, flags(rem)), 0)
        else:
            free, scan = 0, rem
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
            best_weight, best_set = weight, chosen
            return
        v = (rem & -rem).bit_length() - 1
        search(rem & ~(1 << v), weight, chosen, rem_sum - w[v])
        dropped = nbrs[v] & rem | 1 << v  # v is in rem
        search(rem & ~dropped, weight + w[v], chosen | (1 << v),
               rem_sum - bit_sum(dropped))

    # the row being searched, the state the search reads: its weights w,
    # its set of positive weights, and the best set found so far with its
    # weight
    digits = []
    for a, w in zip(range(0, u.size, n), rows):
        positive = int(positives[a:a + n][::-1].translate(_TO_DIGITS), 2)
        best_weight, best_set = -1.0, 0
        search((1 << n) - 1, 0.0, 0, reduce(add, w, 0.0))
        digits.append(bin(best_set)[:1:-1].ljust(n, "0"))
    flat = "".join(digits).encode().translate(_TO_FLAGS)
    return np.frombuffer(bytearray(flat), bool).reshape(u.shape)


def check_exact_cap(graph: ConflictGraph) -> None:
    """Refuse a graph of more than :data:`EXACT_NODE_CAP` nodes."""
    if graph.node_count > EXACT_NODE_CAP:
        raise ValueError(f"exact solver capped at {EXACT_NODE_CAP} nodes, "
                         f"got {graph.node_count}")
