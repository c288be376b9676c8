"""Discrete-time queueing dynamics, traffic sampling, episodes, and metrics.

A slot proceeds as: the policy picks an independent set from the state
(q(t), r(t)), as a :class:`~linksched.solvers.Schedule` whose (V,) bool
``members`` mask is the one form a schedule takes; scheduled links send
min(rate, backlog) packets; arrivals land on every link. All packet
quantities are integers. :func:`run_episode` is the one per-slot loop: it
runs any number of policies in lockstep on one trace, solving the rows of
all LGS policies in one :func:`~linksched.solvers.lgs_rows` call per slot;
evaluation runs every policy of an instance in one call, and the trainer's
main trajectory runs its one policy. :func:`advance` is the one
implementation of the queue update, q - min(r, q) + a, on a membership mask
of any batch shape; only :func:`run_episode` and :func:`lookahead_compare`
call it. :func:`lookahead_compare` is the one
rollout loop: it rolls a batch of start states forward under two utility
functions at once.

Traces are stored as ``trace.csv``: :func:`save_trace` formats the whole
(slot, node) column block in one string operation, and :func:`load_trace`
parses it in one :func:`~linksched.graph.read_int_rows` call, then checks
every row at once as array operations.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .graph import (INT64_MAX, ConflictGraph, as_rng, is_independent_mask,
                    read_int_rows, scan_int_rows)
from .solvers import Schedule, lgs_rows

# A scheduling policy maps (graph, queues, rates) to an independent set. One
# that schedules with LGS may also carry a true ``schedules_with_lgs`` and a
# ``utilities`` function of the same arguments (see policies).
Policy = Callable[[ConflictGraph, np.ndarray, np.ndarray], Schedule]
# A utility function maps (graph, queues, rates) to per-link utilities; it
# takes (V,) vectors or (B, V) rows alike.
Utilities = Callable[[ConflictGraph, np.ndarray, np.ndarray], np.ndarray]

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


def advance(q: np.ndarray, members, rates, arrivals) -> np.ndarray:
    """Queues after one slot, as a new array: member links drain
    min(rate, backlog), then arrivals land everywhere.

    ``members`` is a bool (or 0/1) membership mask of the schedule. All
    arguments broadcast, so ``q`` and ``members`` may carry any leading
    batch shape, e.g. (policies, rows, V) against (rows, V) rates. Inputs
    are not checked; :func:`run_episode` is the checked entry point.
    """
    return q - np.where(members, np.minimum(rates, q), 0) + arrivals


@dataclass
class EpisodeResult:
    """Recorded trajectory of one simulated episode.

    ``queues`` holds the T+1 states q(0)..q(T) row-wise; ``members`` holds
    the T per-slot schedules as a (T, V) bool mask, and ``rounds`` each
    slot's message rounds (None for centralized solvers).
    """

    graph: ConflictGraph
    queues: np.ndarray
    members: np.ndarray
    rounds: list[int | None]
    trace: TrafficTrace


def run_episode(graph: ConflictGraph, policies: Sequence[Policy],
                trace: TrafficTrace, q0=None,
                steps: int | None = None) -> list[EpisodeResult]:
    """Run every policy for ``steps`` slots (default: full trace) in
    lockstep on one trace; returns one :class:`EpisodeResult` per policy,
    in order.

    This is the one per-slot loop. Each slot, every policy picks a schedule
    from its own state (q(t), r(t)). The policies that schedule with LGS,
    marked by a true ``schedules_with_lgs`` (``SolverPolicy(lgs)`` and
    ``GcnLgsPolicy``), hand over their ``utilities``, and their rows are
    solved together in one :func:`lgs_rows` call; every other policy is
    called on its own row. A membership mask of the wrong shape, or one that
    is not an independent set, raises ValueError; then one :func:`advance`
    applies trace slot t to every row.
    Rows never mix, so each result equals a run of that policy alone. The
    trace was checked when it was built, so only its width is checked
    here. A policy sees read-only views of its queues and of the trace's
    rates, so one that writes into either fails.
    """
    if trace.node_count != graph.node_count:
        raise ValueError("trace width does not match graph size")
    horizon = trace.horizon if steps is None else int(steps)
    if not 1 <= horizon <= trace.horizon:
        raise ValueError(f"steps must lie in [1, {trace.horizon}]")
    n, count = graph.node_count, len(policies)
    queues = np.empty((count, horizon + 1, n), dtype=np.int64)
    if q0 is None:
        queues[:, 0] = 0
    else:
        start = np.asarray(q0, dtype=np.int64)
        if start.shape != (n,) or (start < 0).any():
            raise ValueError("initial queues must be non-negative, one per node")
        queues[:, 0] = start
    states = queues.view()
    states.setflags(write=False)
    members = np.empty((count, horizon, n), dtype=bool)
    batched = [p for p, policy in enumerate(policies)
               if getattr(policy, "schedules_with_lgs", False)]
    batched_rounds = np.empty((len(batched), horizon), dtype=np.int64)
    rounds: list[list[int | None]] = [[] for _ in policies]
    for t in range(horizon):
        q, r, slot = states[:, t], trace.rates[t], members[:, t]
        if batched:
            u = np.array([policies[p].utilities(graph, q[p], r)
                          for p in batched])
            slot[batched], batched_rounds[:, t] = lgs_rows(graph, u)
        for p in range(count):
            if p in batched:
                mask = slot[p]
            else:
                schedule = policies[p](graph, q[p], r)
                mask = schedule.members
                rounds[p].append(schedule.rounds_used)
            # checks the mask's shape as well
            if not is_independent_mask(graph, mask):
                raise ValueError(
                    "schedule is not an independent set of the graph")
            slot[p] = mask
        queues[:, t + 1] = advance(q, slot, r, trace.arrivals[t])
    for p, used in zip(batched, batched_rounds.tolist()):
        rounds[p] = used
    return [EpisodeResult(graph, queues[p], members[p], rounds[p], trace)
            for p in range(count)]


def lookahead_compare(graph: ConflictGraph, starts, utilities: Utilities,
                      baseline_utilities: Utilities, k: int,
                      trace: TrafficTrace) -> np.ndarray:
    """Score a policy against a baseline over k-slot rollouts from many
    start states at once.

    Row b of the (B, V) ``starts`` is rolled k slots under both utility
    functions, each scheduling with LGS, from trace slot b: rollout step i
    consumes trace slot b + i, so the trace must cover B + k - 1 slots.
    Each step solves the 2B rows of both policies in one :func:`lgs_rows`
    call. Row b of the result is (baseline backlog sum) / (policy backlog
    sum) over its k post-step states; values above 1 mean the policy
    accumulated less backlog. A row whose sums are both zero gets 1.0 (no
    traffic: neutral), and one whose policy sum alone is zero gets inf.
    """
    q0 = np.asarray(starts, dtype=np.int64)
    if q0.ndim != 2 or q0.shape[1] != graph.node_count:
        raise ValueError(f"start queues must be (rows, {graph.node_count}), "
                         f"got {q0.shape}")
    rows = q0.shape[0]
    if k < 1:
        raise ValueError("lookahead needs at least one step")
    if trace.horizon < rows + k - 1:
        raise ValueError(f"trace has {trace.horizon} slots, need "
                         f"{rows + k - 1}")
    q = np.stack([q0, q0])  # (policy, baseline) x rows x V
    totals = np.zeros((2, rows), dtype=np.int64)
    for i in range(k):
        r = trace.rates[i:i + rows]
        u = np.concatenate([utilities(graph, q[0], r),
                            baseline_utilities(graph, q[1], r)])
        members, _ = lgs_rows(graph, u)
        q = advance(q, members.reshape(q.shape), r,
                    trace.arrivals[i:i + rows])
        totals += q.sum(axis=2)
    policy_total, baseline_total = totals
    ratios = np.where(baseline_total == 0, 1.0, np.inf)
    scored = policy_total != 0
    ratios[scored] = baseline_total[scored] / policy_total[scored]
    return ratios


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
    """(mean, median, 95th percentile) of the flattened samples, with
    percentiles computed by linear interpolation."""
    flat = np.asarray(samples, dtype=np.float64).ravel()
    median, p95 = np.percentile(flat, [50, 95])
    return float(flat.mean()), float(median), float(p95)


def compute_metrics(result: EpisodeResult) -> MetricsBundle:
    """Summarize an episode's backlog trajectory."""
    qs = result.queues
    mean, median, p95 = backlog_stats(qs)
    objective = float(qs.sum(axis=1).mean() / result.graph.node_count)
    rounds = [r for r in result.rounds if r is not None]
    rounds_mean = float(np.mean(rounds)) if rounds else None
    rounds_max = int(max(rounds)) if rounds else None
    return MetricsBundle(mean, median, p95, objective, rounds_mean, rounds_max)


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
    writer, which wrote this format first."""
    t, v = np.divmod(np.arange(trace.arrivals.size), trace.node_count)
    block = np.column_stack([t, v, trace.arrivals.ravel(),
                             trace.rates.ravel()])
    rows = "%d,%d,%d,%d\r\n" * len(block) % tuple(block.ravel().tolist())
    Path(path).write_text(
        f"# seed={trace.seed} nodes={trace.node_count} "
        f"horizon={trace.horizon}\n{TRACE_HEADER}\r\n{rows}", newline="")


def _trace_fault(rows: np.ndarray, horizon: int,
                 nodes: int) -> tuple[int, str] | None:
    """(row, reason) of the first (t, node, arrival, rate) row, in file
    order, with (t, node) outside horizon x nodes, an arrival or rate
    outside [0, 2**63), or the (t, node) of an earlier row; None if none.
    ``rows`` is int64, or object when a value may miss int64."""
    t, v, a, r = rows.T
    outside = (t < 0) | (t >= horizon) | (v < 0) | (v >= nodes)
    negative = (a < 0) | (a > INT64_MAX) | (r < 0) | (r > INT64_MAX)
    cell = np.where(outside, -1 - np.arange(len(rows)), t * nodes + v)
    repeat = np.ones(len(rows), dtype=bool)
    repeat[np.unique(cell, return_index=True)[1]] = False  # first of each
    bad = outside | negative | repeat
    if not bad.any():
        return None
    k = int(bad.argmax())
    tk, vk, ak, rk = (int(x) for x in rows[k])
    if outside[k]:
        return k, f"(t, node) = ({tk}, {vk}) outside {horizon} x {nodes}"
    if negative[k]:
        return k, f"arrival {ak} and rate {rk} must lie in [0, 2**63)"
    return k, f"duplicate row for (t, node) = ({tk}, {vk})"


def load_trace(path, nodes: int) -> TrafficTrace:
    """Read a trace written by :func:`save_trace` for a graph of ``nodes``
    nodes.

    The rows are parsed in one :func:`~linksched.graph.read_int_rows` call
    and checked as arrays; only a refused parse scans line by line. Fails
    closed: missing or non-integer metadata, a metadata node count other
    than ``nodes``, metadata promising more rows than the file has bytes
    for, a wrong header, a blank row, a row that is not four integers, a
    ``(t, node)`` out of range or repeated, an arrival or rate outside
    [0, 2**63), and a file without one row per (slot, node) each raise
    ValueError naming the path and the first offending line in file order;
    arrivals on one link summing past 2**63 - 1 raise one naming the path.
    """
    with open(path) as fh:
        file_bytes = os.fstat(fh.fileno()).st_size
        text = fh.read()
    meta_line, _, rest = text.partition("\n")
    meta_line = meta_line.strip()
    if not meta_line.startswith("#"):
        raise ValueError(f"{path}: line 1: missing trace metadata comment")
    try:
        meta = dict(part.split("=", 1) for part in meta_line[1:].split())
        seed = None if meta.get("seed") in (None, "None") \
            else int(meta["seed"])
        meta_nodes, horizon = int(meta["nodes"]), int(meta["horizon"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: line 1: trace metadata needs integer "
                         "nodes and horizon") from None
    if meta_nodes != nodes or horizon < 1:
        raise ValueError(f"{path}: line 1: trace of {horizon} slots x "
                         f"{meta_nodes} nodes; the graph has {nodes}")
    size = horizon * nodes
    # every row takes at least "0,0,0,0\n": refuse before allocating
    if 8 * size > file_bytes:
        raise ValueError(f"{path}: line 1: {horizon} x {nodes} rows "
                         "cannot fit in the file")
    header, _, body = rest.partition("\n")
    if header != TRACE_HEADER:
        raise ValueError(f"{path}: line 2: unexpected trace header")
    line_count = body.count("\n") + (body[-1:] not in ("", "\n"))
    rows, stop = read_int_rows(body, 4, ","), None
    # the reader skips blank lines, which a trace refuses
    if rows is None or len(rows) != line_count:
        rows, _, stop = scan_int_rows(body, 4, ",")
    # rows before any refused line sit on consecutive lines from line 3
    fault = _trace_fault(rows, horizon, nodes)
    if fault is not None:
        k, reason = fault
        raise ValueError(f"{path}: line {k + 3}: {reason}")
    if stop is not None:
        raise ValueError(f"{path}: line {stop[0] + 3}: expected four "
                         "integer fields")
    if len(rows) < size:
        raise ValueError(f"{path}: line {len(rows) + 2}: "
                         f"{size - len(rows)} of {size} (t, node) rows "
                         "missing")
    t, v, a, r = np.asarray(rows, dtype=np.int64).T
    cell = t * nodes + v
    arrivals, rates = np.empty(size, np.int64), np.empty(size, np.int64)
    arrivals[cell], rates[cell] = a, r
    try:
        return TrafficTrace(arrivals.reshape(horizon, nodes),
                            rates.reshape(horizon, nodes), seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
