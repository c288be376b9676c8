"""Discrete-time queueing dynamics, traffic sampling, episodes, and metrics.

A slot proceeds as: each policy's utilities of the state's backlog x
rate, q(t) r(t), go to the solver it names, which picks an independent set
as a (V,) bool membership mask; scheduled links send min(rate, backlog)
packets; arrivals land on every link. All packet quantities are integers.
:func:`run_episode` is the one per-slot loop and the one place a policy's
utilities are solved: it runs P policies on K traces of one graph in
lockstep, each policy on a (K, V) block of rows, one per trace. Each slot
pays once for what its rows share, and only for its arithmetic, and
writes into arrays the run allocated before its first slot: one
:func:`~linksched.solvers.baseline_kernel` call weighs every row into one
weight buffer, each policy's utilities are one call on its block of that,
one pass checks them all finite into one flag buffer, each solver's
kernel solves all of its rows in one call, unchecked, and one
:func:`advance` call writes the next state into the run's queue array.
Every schedule of the run is checked for independence in one
:func:`~linksched.graph.is_independent_mask` call after the last slot.
Evaluation runs every policy on the traces of instances that share a
graph; the trainer's main trajectory runs one policy on one trace
(K = 1).
:func:`advance` is the one implementation of the queue update,
q - min(r, q) + a, on a membership mask of any batch shape, into a given
array or a new one; only :func:`run_episode` and
:func:`lookahead_compare` call it, the first with ``out``.
:func:`lookahead_compare` scores each state of a trajectory by its next k
states against the baseline rolled k slots from it. It calls no policy:
the baseline is LGS on backlog x rate, which it weighs itself, one step
from every state at once; a rollout reads the trajectory until its step
leaves it, and only the rollouts that left are rolled on, one per slot
where they left, so its cost follows how often the policy's step differs
from the baseline's, not k times the states. Its ratios
and evaluation's follow :func:`backlog_ratio`. Every percentile goes
through one quantile kernel, :func:`percentiles`, numpy's linear
interpolation bit for bit from one partition: :func:`backlog_stats` calls
it for an episode's backlog, and :func:`ratio_quartiles` for ratios that
may be inf.

Traces are stored as ``trace.csv`` through the one writer and the one
reader of integer tables: :func:`save_trace` formats the whole
(slot, node) column block in one :func:`~linksched.graph.format_int_rows`
call, and :func:`load_trace` reads back only that layout, its line ends
included: one :func:`~linksched.graph.read_int_rows` call, one check that
row k reads (t, node) = (k // V, k % V), and the arrival and rate columns
as they stand.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import CUT_SHORT, NOT_PLAIN, PLAIN_DECIMAL, ConflictGraph, \
    as_rng, format_int_rows, is_independent_mask, read_as_written, \
    read_int_rows
from .solvers import baseline_kernel, baseline_utility, check_exact_cap, \
    exact_kernel, greedy_kernel, lgs_kernel, lgs_rows

RATE_MEAN = 50.0
RATE_STD = 25.0
RATE_CLIP = (0.0, 100.0)


@dataclass
class TrafficTrace:
    """Pre-drawn arrival and rate realizations for one episode.

    Replaying the same trace under different policies puts them under
    identical randomness (common random numbers). ``seed`` records the
    integer seed the trace was drawn from, when one is known. The arrays are
    copied, checked once and then made read-only, so a trace stays
    non-negative for its whole life and no policy can change what a later
    one replays. Arrivals on one link may sum to at most 2**63 - 1 over the
    horizon, so no int64 queue fed by them can overflow.
    """

    arrivals: np.ndarray
    rates: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        self.arrivals = np.array(self.arrivals, dtype=np.int64)
        self.rates = np.array(self.rates, dtype=np.int64)
        if self.arrivals.ndim != 2 or self.arrivals.shape != self.rates.shape:
            raise ValueError("arrivals and rates must be equal-shape 2-D arrays")
        if (self.arrivals < 0).any() or (self.rates < 0).any():
            raise ValueError("arrivals and rates must be non-negative")
        # a running sum of non-negative int64s first wraps to a negative
        wrapped = np.cumsum(self.arrivals, axis=0) < 0
        if wrapped.any():
            t, v = np.argwhere(wrapped)[0]
            raise ValueError(f"arrivals on link {v} sum past 2**63 - 1 by "
                             f"slot {t}")
        self.arrivals.setflags(write=False)
        self.rates.setflags(write=False)

    @property
    def horizon(self) -> int:
        return self.arrivals.shape[0]

    @property
    def node_count(self) -> int:
        return self.arrivals.shape[1]

    def checksum(self) -> str:
        """SHA-256 over shape and contents; equal traces hash equal."""
        h = hashlib.sha256()
        h.update(repr(self.arrivals.shape).encode())
        h.update(np.ascontiguousarray(self.arrivals).tobytes())
        h.update(np.ascontiguousarray(self.rates).tobytes())
        return h.hexdigest()


def sample_traffic(graph: ConflictGraph, horizon: int, arrival_rate: float,
                   rng: np.random.Generator | int | None = None,
                   ) -> TrafficTrace:
    """Draw a traffic trace: Poisson arrivals and clipped-normal link rates.

    Arrivals are Poisson(arrival_rate) i.i.d. per (slot, node). Rates are
    normal(RATE_MEAN, RATE_STD) clipped to RATE_CLIP and rounded, for
    training and evaluation alike. Passing an int as ``rng`` seeds the draw
    and is recorded as the trace's provenance.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    if arrival_rate < 0:
        raise ValueError("arrival rate must be non-negative")
    seed = int(rng) if isinstance(rng, (int, np.integer)) \
        and not isinstance(rng, bool) else None
    gen = as_rng(rng)
    shape = (horizon, graph.node_count)
    arrivals = gen.poisson(arrival_rate, size=shape).astype(np.int64)
    raw = gen.normal(RATE_MEAN, RATE_STD, size=shape)
    rates = np.rint(np.clip(raw, *RATE_CLIP)).astype(np.int64)
    return TrafficTrace(arrivals, rates, seed)


def advance(q: np.ndarray, members, rates, arrivals,
            out: np.ndarray | None = None) -> np.ndarray:
    """Queues after one slot: member links drain min(rate, backlog), then
    arrivals land everywhere.

    ``members`` is a bool (or 0/1) membership mask of the schedule. The
    result has the shape of ``q`` and ``rates`` broadcast, and ``members``
    and ``arrivals`` broadcast to it, so ``q`` may carry any leading batch
    shape, e.g. (P, K, V) against one slot's (K, V) rates. The update is
    four numpy calls that write one array and make no temporaries:
    min(rate, backlog), times the mask, subtracted from the backlog, plus
    the arrivals. That array is ``out`` when one is given, which must have
    the result's shape and dtype and must not share memory with ``q``;
    else it is a new one. Inputs are not checked; :func:`run_episode` is
    the checked entry point.
    """
    out = np.minimum(rates, q, out=out)
    out *= members
    np.subtract(q, out, out=out)
    out += arrivals
    return out


@dataclass
class EpisodeResult:
    """Recorded trajectory of one simulated episode.

    ``queues`` holds the T+1 states q(0)..q(T) row-wise; ``members`` holds
    the T per-slot schedules as a (T, V) bool mask, ``utilities`` the (T, V)
    utilities they were solved on, and ``rounds`` each slot's message rounds
    as a (T,) int64 array (None for the centralized solvers).
    """

    queues: np.ndarray
    members: np.ndarray
    utilities: np.ndarray
    rounds: np.ndarray | None


def run_episode(graph: ConflictGraph, policies: Sequence,
                *traces: TrafficTrace,
                steps: int | None = None) -> list[EpisodeResult]:
    """Run every policy on every trace for ``steps`` slots (default: the
    traces' full horizon, which must then be one) in lockstep, every row
    from empty queues, so no queue exceeds its trace's bound on arrivals;
    returns one :class:`EpisodeResult` per (trace, policy) pair,
    trace-major: with P policies, result k * P + p is policy p on trace k.

    A policy is its ``utilities(graph, x)`` and a ``solver`` name (see
    :mod:`~linksched.policies`). A slot's rows form a (P, K, V) block,
    policy-major, ordered by solver: the ``"lgs"`` policies, then the
    ``"greedy"`` ones, then the ``"exact"`` ones, each in the caller's
    order, so each solver's rows are one slice. Each slot, one
    :func:`baseline_kernel` call weighs every row into the run's one
    (P, K, V) float64 weight buffer, the queues against that slot's (K, V)
    rates broadcast over the P blocks; the policies' utilities are then
    called in the caller's order, each on its (K, V) block of that, and
    must return (K, V). A block is the same array at every slot,
    overwritten by each slot's weights, and read-only: it is a view of an
    array on a read-only memoryview of the buffer, so a policy can neither
    write it nor make it writable. Each solver's kernel gets its slice in
    one call, in that order: :func:`lgs_kernel`, :func:`greedy_kernel`
    (``"greedy"``) and :func:`exact_kernel` (``"exact"``), looked up in
    this module at call time; the centralized kernels must return a bool
    mask of their slice's shape. One :func:`advance` then writes each
    trace's slot t applied to its rows into the next state's rows of the
    queue array. Rows never mix, so each result equals a run of that
    policy alone on that trace, and its schedules those of
    :func:`lgs_rows`, :func:`greedy_centralized` or :func:`exact_mwis` on
    its utilities.

    The weighing is the plain product, with no test of sign: the queues
    start at 0, an update drains at most the backlog, and a trace's
    arrivals on one link sum to at most 2**63 - 1, so every queue lies in
    [0, its link's arrivals so far]. The kernels check nothing else, so a
    refusal of the public solvers fires here instead, with the same
    message. A fault raises ValueError, at the first of these places:
    - before the first slot, and before any policy is called: an unknown
      solver name, traces of the wrong width or too short, and a graph
      over :data:`~linksched.solvers.EXACT_NODE_CAP` nodes when a policy
      names ``"exact"``;
    - at slot t: utilities of the wrong shape as each policy returns them;
      then, once every policy has filled its rows and before any solver
      runs, ``utilities must be finite`` when any of them is NaN or
      infinite, checked into one (P K, V) bool buffer per run; then a
      negative weight on an ``"exact"`` row, which :func:`exact_kernel`
      refuses as its search needs, and a centralized schedule of the
      wrong dtype or shape as its kernel returns it;
    - after the last slot, before anything is returned: schedules that are
      no independent set of the graph, all checked in one
      :func:`is_independent_mask` call, on which no queue update depends.
      The error names the first such slot, its policy by its place in the
      caller's order, and its trace.

    The traces were checked when they were built, so only their width,
    and that they cover the steps, are checked here.
    """
    if not traces:
        raise ValueError("run_episode needs at least one trace")
    n, count, k = graph.node_count, len(policies), len(traces)
    if any(trace.node_count != n for trace in traces):
        raise ValueError("trace width does not match graph size")
    shortest = min(trace.horizon for trace in traces)
    if steps is None and shortest != max(trace.horizon for trace in traces):
        raise ValueError("traces of unequal horizons need steps")
    horizon = shortest if steps is None else int(steps)
    if not 1 <= horizon <= shortest:
        raise ValueError(f"steps must lie in [1, {shortest}]")
    rank = ["lgs", "greedy", "exact"]
    for policy in policies:
        if policy.solver not in rank:
            raise ValueError(f"unknown solver {policy.solver!r}")
    if any(policy.solver == "exact" for policy in policies):
        check_exact_cap(graph)
    # each policy's block of K rows, one per trace, sorted by solver in the
    # order of ``rank``: policy order[b] owns block b, rows b * K on, and
    # each solver's rows are one slice of ``groups``
    order = sorted(range(count), key=lambda p: rank.index(policies[p].solver))
    block = [order.index(p) for p in range(count)]
    groups, end = [], 0
    for name, run in itertools.groupby(policies[p].solver for p in order):
        size = k * len(list(run))
        groups.append((name, slice(end, end + size)))
        end += size
    lgs_end = k * sum(policy.solver == "lgs" for policy in policies)
    rows, shape = count * k, (k, n)
    queues = np.zeros((horizon + 1, rows, n), dtype=np.int64)
    members = np.empty((horizon, rows, n), dtype=bool)
    utilities = np.empty((horizon, rows, n))
    rounds = np.zeros((lgs_end, horizon), dtype=np.int64)
    # the (K, V) rates and arrivals of a slot broadcast over the P blocks
    # of a (P, K, V) view of its rows: operands of one shape, which numpy
    # runs on its fast path when P = 1
    blocks_shape = (horizon, count, k, n)
    rates = np.broadcast_to(np.stack(
        [trace.rates[:horizon] for trace in traces], axis=1)[:, None],
        blocks_shape)
    arrivals = np.broadcast_to(np.stack(
        [trace.arrivals[:horizon] for trace in traces], axis=1)[:, None],
        blocks_shape)
    queue_blocks = queues.reshape(horizon + 1, count, k, n)
    member_blocks = members.reshape(horizon, count, k, n)
    utility_blocks = utilities.reshape(horizon, count, k, n)
    # each slot's weights overwrite one buffer. The policies read it through
    # an array on a read-only memoryview, so no view of it can be made
    # writable again; each policy's block of it is made once per run
    weights = np.empty((count, k, n))
    inputs = np.asarray(memoryview(weights).toreadonly())
    blocks = [(policy, b, inputs[b]) for b, policy in zip(block, policies)]
    finite, cells = np.empty((rows, n), dtype=bool), rows * n
    for t in range(horizon):
        baseline_kernel(queue_blocks[t], rates[t], out=weights)
        u = utility_blocks[t]
        for policy, b, x in blocks:
            row = policy.utilities(graph, x)
            if np.shape(row) != shape:
                raise ValueError(f"utilities of shape {np.shape(row)}, not "
                                 f"{shape}: one row per trace, one utility "
                                 "per node")
            u[b] = row
        if np.count_nonzero(np.isfinite(utilities[t], out=finite)) != cells:
            raise ValueError("utilities must be finite")
        for name, pick in groups:
            rows_u = utilities[t, pick]
            if name == "lgs":
                mask, rounds[:, t] = lgs_kernel(graph, rows_u)
            else:
                mask = (greedy_kernel if name == "greedy" else exact_kernel)(
                    graph, rows_u)
                if getattr(mask, "dtype", None) != bool:
                    raise ValueError("a solver must return a 1-D bool mask "
                                     "per row")
                if np.shape(mask) != rows_u.shape:
                    raise ValueError(f"membership mask shape "
                                     f"{np.shape(mask)} does not match {n} "
                                     f"nodes in each of {len(rows_u)} rows")
            members[t, pick] = mask
        advance(queue_blocks[t], member_blocks[t], rates[t], arrivals[t],
                out=queue_blocks[t + 1])
    if not is_independent_mask(graph, members):
        # the error path alone scans: the first faulty slot, then its row
        t = next(t for t in range(horizon)
                 if not is_independent_mask(graph, members[t]))
        row = next(row for row in range(rows)
                   if not is_independent_mask(graph, members[t, row]))
        b, j = divmod(row, k)
        raise ValueError(f"slot {t}: the schedule of policy {order[b]} "
                         f"({policies[order[b]].solver!r}) on trace {j} is "
                         "not an independent set of the graph")
    return [EpisodeResult(queues[:, row], members[:, row], utilities[:, row],
                          rounds[row] if row < lgs_end else None)
            for j in range(k) for row in (b * k + j for b in block)]


def backlog_ratio(value, reference) -> np.ndarray:
    """``value / reference`` elementwise as float64, for backlog ratios of
    one shape: 0/0 is 1.0 (no backlog on either side is a tie) and x/0 is
    inf for x != 0."""
    value, reference = np.asarray(value, float), np.asarray(reference, float)
    ratio = np.where(value == 0.0, 1.0, np.inf)
    np.divide(value, reference, out=ratio, where=reference != 0.0)
    return ratio


def percentiles(values, qs, *, overwrite_input: bool = False) -> list[float]:
    """The percentiles ``qs``, each in [0, 100], of ``values`` flattened, as
    Python floats: the one quantile kernel, numpy's ``percentile(values,
    qs)`` bit for bit, signed zeros included, wherever the values are
    finite.

    This is numpy's default ``method="linear"`` (Hyndman and Fan's type 7)
    as numpy computes it: over n values, percentile q has the virtual rank
    ``vi = (n - 1) * (q / 100)``, between ranks ``lo = floor(vi)`` and
    ``lo + 1`` with weight ``g = vi - lo`` on the upper one, except that at
    ``vi >= n - 1`` both neighbours are the last rank and g is
    ``vi + 1``; with x and y the neighbours' values, the percentile is
    ``y - (y - x) * (1 - g)`` when ``g >= 0.5``, else ``x + (y - x) * g``.
    One ``np.partition`` on numpy's own ranks, the neighbours and the first
    and last, puts just those values in place, in the same places, so tied
    signed zeros land as numpy's do; nothing is sorted. It partitions a
    float64 copy, or, with ``overwrite_input`` as in numpy, a float64
    ``values`` itself.

    A value may be inf: a percentile on an order statistic (g == 0) is
    that value, and one that gives an inf neighbour a nonzero weight is
    inf, where numpy's ``percentile`` gives nan. No values, a NaN, a -inf, or
    a q outside [0, 100] raises ValueError.
    """
    a = np.asarray(values, dtype=np.float64) if overwrite_input \
        else np.array(values, dtype=np.float64)
    a = a.ravel()
    n = a.size
    if not n:
        raise ValueError("percentiles of no values")
    # numpy's ranks, the last one written -1, so its weight is vi + 1
    picks, ranks = [], {0, -1}
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        vi = (n - 1) * (q / 100)
        lo = math.floor(vi) if vi < n - 1 else -1
        hi = lo + 1 if lo >= 0 else -1
        picks.append((vi, lo, hi))
        ranks.update((lo, hi))
    a.partition(sorted(ranks))
    if a[-1] != a[-1] or a[0] == -np.inf:
        raise ValueError("percentiles of values with a NaN or a -inf")
    found = []
    for vi, lo, hi in picks:
        x, y, g = float(a[lo]), float(a[hi]), vi - lo
        if y == math.inf:
            found.append(x if g == 0 else math.inf)
        elif g >= 0.5:
            found.append(y - (y - x) * (1 - g))
        else:
            found.append(x + (y - x) * g)
    return found


def ratio_quartiles(ratios) -> list[float]:
    """The 25th, 50th and 75th percentiles of ``ratios`` by linear
    interpolation, as Python floats, where a ratio may be inf (see
    :func:`backlog_ratio`), from :func:`percentiles`. A percentile that
    falls exactly on an order statistic is that value, and one that gives
    an inf neighbor a nonzero weight is inf. Without inf the values are
    numpy's ``percentile``'s, bit for bit; with inf, that function returns
    nan (the median of [1, 2, inf] among them) and warns."""
    return percentiles(ratios, (25, 50, 75))


def lookahead_compare(graph: ConflictGraph, queues, k: int,
                      trace: TrafficTrace) -> np.ndarray:
    """Score the first B states of a trajectory against baseline rollouts.

    ``queues`` is the (B + k, V) trajectory q(0)..q(B + k - 1) a policy ran
    on ``trace`` over B + k - 1 slots. From every q(b), b < B, the baseline
    schedules with LGS on backlog x rate for k slots, step i on trace slot
    b + i, as the policy's step from q(b + i) was. Row b of the result is
    the :func:`backlog_ratio` of the baseline's k post-step backlog sums to
    the policy's, those of q(b + 1)..q(b + k); values above 1 mean the
    policy accumulated less backlog.

    A rollout reads the trajectory until it leaves it. One step of the
    baseline from each of q(0)..q(B + k - 2) is weighed in one
    :func:`baseline_utility` call, solved in one :func:`lgs_rows` call, both
    looked up in this module at call time, and applied in one
    :func:`advance`. Where the step from q(t) lands on q(t + 1), a rollout
    at q(t) stays on the trajectory; row b's first step that lands
    elsewhere, at slot d(b), is its departure, and its states before it are
    q(b + 1)..q(d(b)). Departures rise with b, and rows that depart at one
    slot share the rest of their rollout, so only the distinct departures
    are rolled on, together, each for as many steps as its last row needs:
    each such step weighs them in one :func:`baseline_kernel` call, after
    the check :func:`baseline_utility` makes, and solves them in one
    :func:`lgs_kernel` call. LGS solves every row on its own and the totals
    are int64 sums, so every ratio is that of k full steps per row. A
    negative queue among q(0)..q(B + k - 2), or one a rollout reaches and
    weighs, raises ValueError.
    """
    trajectory = np.asarray(queues, dtype=np.int64)
    if k < 1:
        raise ValueError("lookahead needs at least one step")
    if trajectory.shape[1:] != (graph.node_count,) or len(trajectory) <= k:
        raise ValueError(f"trajectory must be (rows + {k}, {graph.node_count})"
                         f" with rows >= 1, got {trajectory.shape}")
    rows = len(trajectory) - k
    steps = rows + k - 1
    if trace.horizon < steps:
        raise ValueError(f"trace has {trace.horizon} slots, need {steps}")
    rates, arrivals = trace.rates[:steps], trace.arrivals[:steps]
    members, _ = lgs_rows(graph, baseline_utility(trajectory[:steps], rates))
    stepped = advance(trajectory[:steps], members, rates, arrivals)
    # reached[t]: the backlog summed over q(1)..q(t)
    reached = np.zeros(steps + 1, dtype=np.int64)
    np.cumsum(trajectory[1:].sum(axis=1), out=reached[1:])
    policy_total = reached[k:] - reached[:rows]
    # departure[t]: the first slot from t on whose step leaves the
    # trajectory, else steps. Row b departs at departure[b] when that comes
    # before b + k: so every slot t < B that leaves is row t's departure,
    # and one slot past B - 1 can be, row B - 1's
    slot = np.arange(steps)
    off = (stepped != trajectory[1:]).any(axis=1)
    departure = np.minimum.accumulate(np.where(off, slot, steps)[::-1])[::-1]
    starts = np.flatnonzero(off[:rows])
    tail = int(departure[rows - 1])
    if rows <= tail < steps:
        starts = np.append(starts, tail)
    if not starts.size:
        return backlog_ratio(policy_total, policy_total)
    # rolled[t, i]: the backlog summed over the first i + 1 states of the
    # rollout that departs at slot t; column k stays 0
    rolled = np.zeros((steps + 1, k + 1), dtype=np.int64)
    rolled[:steps, 0] = stepped.sum(axis=1)
    x, left = stepped.take(starts, axis=0), steps - 1 - int(starts[-1])
    for i in range(1, k):
        if i == left + 1:  # the last start, past B - 1, has no slot left
            starts, x = starts[:-1], x[:-1]
            if not starts.size:
                break
        if x.min() < 0:
            raise ValueError("queues and rates must be non-negative")
        # slots starts + i: one (D, V) copy of each, taken from a view
        r = trace.rates[i:].take(starts, axis=0)
        members, _ = lgs_kernel(graph, baseline_kernel(x, r))
        x = advance(x, members, r, trace.arrivals[i:].take(starts, axis=0))
        rolled[starts, i] = x.sum(axis=1)
    np.cumsum(rolled[:, :k], axis=1, out=rolled[:, :k])
    # row b reads the trajectory up to d, its departure or b + k, whichever
    # comes first, then b + k - d states of the rollout departing at d:
    # none when d = b + k, as column -1 is column k
    b = slot[:rows]
    d = np.minimum(departure[:rows], b + k)
    baseline_total = reached[d] - reached[:rows] + rolled[d, b + (k - 1) - d]
    return backlog_ratio(baseline_total, policy_total)


@dataclass
class MetricsBundle:
    """Backlog statistics for one episode.

    mean/median/p95 are over all recorded (slot, node) backlog samples;
    ``objective`` is the time average of per-slot mean backlog; round
    statistics are present only when the policy reports message rounds.
    """

    mean: float
    median: float
    p95: float
    objective: float
    rounds_mean: float | None = None
    rounds_max: int | None = None


def backlog_stats(samples) -> tuple[float, float, float]:
    """(mean, median, 95th percentile) of the flattened samples, as
    numpy's ``mean`` and ``percentile`` give them, bit for bit: the mean of
    a float64 copy, then :func:`percentiles` on that copy, partitioned in
    place."""
    flat = np.array(samples, dtype=np.float64).ravel()
    mean = float(flat.mean())
    median, p95 = percentiles(flat, (50, 95), overwrite_input=True)
    return mean, median, p95


def compute_metrics(result: EpisodeResult) -> MetricsBundle:
    """Summarize an episode's backlog trajectory."""
    qs = result.queues
    mean, median, p95 = backlog_stats(qs)
    objective = float(qs.sum(axis=1).mean() / qs.shape[1])
    rounds = result.rounds
    if rounds is None:
        return MetricsBundle(mean, median, p95, objective)
    return MetricsBundle(mean, median, p95, objective,
                         float(np.mean(rounds)), int(rounds.max()))


def steady_state_mean(result: EpisodeResult, burn_in: int) -> float:
    """Average per-node backlog over the start-of-slot states q(burn_in)
    .. q(T-1), discarding the first ``burn_in`` slots as transient."""
    horizon = len(result.members)
    if not 0 <= burn_in < horizon:
        raise ValueError(f"burn-in must lie in [0, {horizon})")
    return float(result.queues[burn_in:horizon].mean())


# --- persistence --------------------------------------------------------------


TRACE_HEADER = "t,node,arrival,rate"


def save_trace(trace: TrafficTrace, path) -> None:
    """Write ``trace.csv``, byte for byte: the metadata line
    ``# seed=<seed> nodes=<V> horizon=<T>\\n`` (seed ``None`` when unknown),
    the header ``t,node,arrival,rate\\r\\n``, then one
    ``<t>,<node>,<arrival>,<rate>\\r\\n`` row per (slot, node), slot-major,
    all in decimal. The ``\\r\\n`` ends are those of the csv module's
    writer, which wrote this format first. The rows are one
    :func:`~linksched.graph.format_int_rows` call on the (T V, 4) block.
    This is the one layout :func:`load_trace` reads."""
    t, v = np.divmod(np.arange(trace.arrivals.size), trace.node_count)
    block = np.column_stack([t, v, trace.arrivals.ravel(),
                             trace.rates.ravel()])
    Path(path).write_bytes(
        f"# seed={trace.seed} nodes={trace.node_count} "
        f"horizon={trace.horizon}\n{TRACE_HEADER}\r\n".encode()
        + format_int_rows(block, ",", "\r\n"))


def _trace_fault(rows: np.ndarray, horizon: int,
                 nodes: int) -> tuple[int, str] | None:
    """(row, reason) of the first (t, node, arrival, rate) row, in file
    order, that is not where :func:`save_trace` puts it, row k reading
    (t, node) = (k // nodes, k % nodes) for k < horizon * nodes, or whose
    arrival or rate is negative; None if every row is in place."""
    slot, node = np.divmod(np.arange(len(rows)), nodes)
    moved = (rows[:, 0] != slot) | (rows[:, 1] != node) | (slot >= horizon)
    bad = moved | (rows[:, 2:] < 0).any(axis=1)
    if not bad.any():
        return None
    k = int(bad.argmax())
    t, v, a, r = rows[k].tolist()
    if not moved[k]:
        return k, f"arrival {a} and rate {r} must lie in [0, 2**63)"
    want = f"({slot[k]}, {node[k]})" if slot[k] < horizon else \
        f"no row after the {horizon} x {nodes} of line 1"
    return k, f"(t, node) = ({t}, {v}), expected {want}"


def load_trace(path, nodes: int) -> TrafficTrace:
    """Read a trace exactly as :func:`save_trace` writes it, for a graph of
    ``nodes`` nodes.

    The rows are parsed in one :func:`~linksched.graph.read_int_rows` call
    and checked as arrays. Fails closed: a metadata field other than the
    decimal ``seed`` (or ``None``), ``nodes`` and ``horizon`` in that order
    (named by its place), a node count other than ``nodes``, more rows than
    the file has bytes for, a wrong header, a row k that does not read
    (t, node) = (k // V, k % V) with k < T V (a row moved, repeated, out of
    range or extra), a negative arrival or rate, a line that is no row (a
    blank one among them) or a row not written plain, each field
    :data:`~linksched.graph.PLAIN_DECIMAL` with no whitespace (a metadata
    value too), and a missing row each raise ValueError naming
    the path and the first offending line in file order; arrivals on one
    link summing past 2**63 - 1 raise one naming the path. Line ends are
    read as written, ``\\n`` after the metadata and ``\\r\\n`` after every
    other line: the first line that ends otherwise, or holds another
    ``\\r``, is refused before all of the above, and a last line cut short,
    without its line end, is refused whatever it holds.
    """
    text, file_bytes = read_as_written(path, crlf=True)
    meta_line, end, rest = text.partition("\n")
    if meta_line and not end:
        raise ValueError(f"{path}: line 1: {CUT_SHORT}")
    words = meta_line.split(" ")
    if words[0] != "#":
        raise ValueError(f"{path}: line 1: missing trace metadata comment")
    values = []
    for k, key in enumerate(("seed", "nodes", "horizon"), 1):
        word = words[k] if k < len(words) else ""
        value = word.removeprefix(f"{key}=")
        if value == word or not re.fullmatch(
                PLAIN_DECIMAL + "|None" * (key == "seed"), value):
            form = "<int or None>" if key == "seed" else "<int>"
            raise ValueError(f"{path}: line 1: metadata field {k} reads "
                             f"'{word}', expected '{key}={form}'")
        values.append(None if value == "None" else int(value))
    if len(words) > 4:
        raise ValueError(f"{path}: line 1: metadata field 4 reads "
                         f"'{words[4]}', expected the end of the line")
    seed, meta_nodes, horizon = values
    if meta_nodes != nodes or horizon < 1:
        raise ValueError(f"{path}: line 1: trace of {horizon} slots x "
                         f"{meta_nodes} nodes; the graph has {nodes}")
    size = horizon * nodes
    # every row takes at least "0,0,0,0\n": refuse before allocating
    if 8 * size > file_bytes:
        raise ValueError(f"{path}: line 1: {horizon} x {nodes} rows "
                         "cannot fit in the file")
    header, end, body = rest.partition("\n")
    if header and not end:
        raise ValueError(f"{path}: line 2: {CUT_SHORT}")
    if header != TRACE_HEADER:
        raise ValueError(f"{path}: line 2: unexpected trace header")
    rows, stop = read_int_rows(body, 4, ",")
    fault = _trace_fault(rows, horizon, nodes)
    if fault is not None:
        k, reason = fault
        raise ValueError(f"{path}: line {k + 3}: {reason}")
    if stop is not None:
        k, line, read = stop
        reason = CUT_SHORT if line is None else NOT_PLAIN if read else \
            "expected four integer fields, each within int64"
        raise ValueError(f"{path}: line {k + 3}: {reason}")
    if len(rows) < size:
        raise ValueError(f"{path}: line {len(rows) + 2}: "
                         f"{size - len(rows)} of {size} (t, node) rows "
                         "missing")
    arrivals, rates = rows[:, 2:].T.reshape(2, horizon, nodes)
    try:
        return TrafficTrace(arrivals, rates, seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
