"""Discrete-time queueing dynamics, traffic sampling, episodes, and metrics.

A slot proceeds as: the policy picks an independent set from the state
(q(t), r(t)); scheduled links send min(rate, backlog) packets; arrivals land
on every link. All packet quantities are integers. :func:`advance` is the
one implementation of that queue update, q - min(r, q) + a; ``step``, the
lookahead rollouts and the trainer all call it.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .graph import ConflictGraph, as_rng, is_independent_set
from .solvers import Schedule

# A scheduling policy maps (graph, queues, rates) to an independent set.
Policy = Callable[[ConflictGraph, np.ndarray, np.ndarray], Schedule]

RATE_MEAN = 50.0
RATE_STD = 25.0
RATE_CLIP = (0.0, 100.0)


@dataclass
class NetworkState:
    """Queue lengths and link rates at one time slot."""

    q: np.ndarray
    r: np.ndarray
    t: int = 0


@dataclass
class TrafficTrace:
    """Pre-drawn arrival and rate realizations for one episode.

    Replaying the same trace under different policies puts them under
    identical randomness (common random numbers). ``seed`` records the
    integer seed the trace was drawn from, when one is known.
    """

    arrivals: np.ndarray
    rates: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        self.arrivals = np.asarray(self.arrivals, dtype=np.int64)
        self.rates = np.asarray(self.rates, dtype=np.int64)
        if self.arrivals.ndim != 2 or self.arrivals.shape != self.rates.shape:
            raise ValueError("arrivals and rates must be equal-shape 2-D arrays")
        if (self.arrivals < 0).any() or (self.rates < 0).any():
            raise ValueError("arrivals and rates must be non-negative")

    @property
    def horizon(self) -> int:
        return self.arrivals.shape[0]

    @property
    def node_count(self) -> int:
        return self.arrivals.shape[1]

    def slice(self, start: int, stop: int) -> "TrafficTrace":
        """View-backed sub-trace covering slots [start, stop)."""
        return TrafficTrace(self.arrivals[start:stop], self.rates[start:stop],
                            self.seed)

    def checksum(self) -> str:
        """SHA-256 over shape and contents; equal traces hash equal."""
        h = hashlib.sha256()
        h.update(repr(self.arrivals.shape).encode())
        h.update(np.ascontiguousarray(self.arrivals).tobytes())
        h.update(np.ascontiguousarray(self.rates).tobytes())
        return h.hexdigest()


def sample_traffic(graph: ConflictGraph, horizon: int, arrival_rate: float,
                   rng: np.random.Generator | int | None = None, *,
                   rate_mean: float = RATE_MEAN, rate_std: float = RATE_STD,
                   rate_clip: tuple[float, float] = RATE_CLIP) -> TrafficTrace:
    """Draw a traffic trace: Poisson arrivals and clipped-normal link rates.

    Arrivals are Poisson(arrival_rate) i.i.d. per (slot, node). Rates are
    normal(rate_mean, rate_std) clipped to ``rate_clip`` and rounded to
    integers. Passing an int as ``rng`` seeds the draw and is recorded as
    the trace's provenance.
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
    raw = gen.normal(rate_mean, rate_std, size=shape)
    rates = np.rint(np.clip(raw, *rate_clip)).astype(np.int64)
    return TrafficTrace(arrivals, rates, seed)


def advance(q: np.ndarray, schedule: Schedule, rates: np.ndarray,
            arrivals) -> np.ndarray:
    """Queues after one slot, as a new array: scheduled links drain
    min(rate, backlog), then arrivals land everywhere. Inputs are not
    checked; :func:`step` is the checked entry point."""
    q = q.copy()
    if schedule.nodes:
        idx = np.fromiter(schedule.nodes, dtype=np.int64,
                          count=len(schedule.nodes))
        q[idx] -= np.minimum(rates[idx], q[idx])
    q += arrivals
    return q


def step(state: NetworkState, schedule: Schedule, arrivals, next_rates,
         graph: ConflictGraph | None = None) -> NetworkState:
    """Advance the queue dynamics by one slot.

    Scheduled links drain min(rate, backlog); arrivals then land everywhere.
    Passing ``graph`` additionally enforces that the schedule is an
    independent set.
    """
    a = np.asarray(arrivals, dtype=np.int64)
    if a.shape != state.q.shape:
        raise ValueError("arrival vector length mismatch")
    if (a < 0).any():
        raise ValueError("arrivals must be non-negative")
    if graph is not None and not is_independent_set(graph, schedule.nodes):
        raise ValueError("schedule is not an independent set of the graph")
    return NetworkState(advance(state.q, schedule, state.r, a),
                        np.asarray(next_rates, dtype=np.int64).copy(),
                        state.t + 1)


@dataclass
class EpisodeResult:
    """Recorded trajectory of one simulated episode.

    ``queues`` holds the T+1 states q(0)..q(T) row-wise; ``schedules`` holds
    the T per-slot decisions.
    """

    graph: ConflictGraph
    queues: np.ndarray
    schedules: list[Schedule]
    trace: TrafficTrace


def run_episode(graph: ConflictGraph, policy: Policy, trace: TrafficTrace,
                q0=None, steps: int | None = None) -> EpisodeResult:
    """Iterate policy -> dynamics for ``steps`` slots (default: full trace)."""
    if trace.node_count != graph.node_count:
        raise ValueError("trace width does not match graph size")
    horizon = trace.horizon if steps is None else int(steps)
    if not 1 <= horizon <= trace.horizon:
        raise ValueError(f"steps must lie in [1, {trace.horizon}]")
    if q0 is None:
        q = np.zeros(graph.node_count, dtype=np.int64)
    else:
        q = np.asarray(q0, dtype=np.int64).copy()
        if q.shape != (graph.node_count,) or (q < 0).any():
            raise ValueError("initial queues must be non-negative, one per node")
    queues = np.empty((horizon + 1, graph.node_count), dtype=np.int64)
    queues[0] = q
    schedules: list[Schedule] = []
    for t in range(horizon):
        r = trace.rates[t]
        schedule = policy(graph, q, r)
        nxt = step(NetworkState(q, r, t), schedule, trace.arrivals[t],
                   trace.rates[min(t + 1, trace.horizon - 1)], graph=graph)
        q = nxt.q
        queues[t + 1] = q
        schedules.append(schedule)
    return EpisodeResult(graph, queues, schedules, trace)


def lookahead_compare(graph: ConflictGraph, state: NetworkState,
                      policy: Policy, baseline_policy: Policy, k: int,
                      trace: TrafficTrace) -> float:
    """Score a policy against a baseline over a k-slot rollout.

    Both policies are rolled k slots from the same state while consuming
    the identical trace, and the ratio (baseline backlog sum) / (policy
    backlog sum) over the k post-step states is returned. Values above 1
    mean the policy accumulated less backlog. Returns 1.0 when both sums
    are zero (no traffic: neutral).
    """
    if k < 1:
        raise ValueError("lookahead needs at least one step")
    if trace.horizon < k:
        raise ValueError(f"trace segment has {trace.horizon} slots, need {k}")

    def rollout_backlog(pol: Policy) -> int:
        q = state.q
        total = 0
        for i in range(k):
            r = trace.rates[i]
            q = advance(q, pol(graph, q, r), r, trace.arrivals[i])
            total += int(q.sum())
        return total

    policy_total = rollout_backlog(policy)
    baseline_total = rollout_backlog(baseline_policy)
    if policy_total == 0:
        return 1.0 if baseline_total == 0 else float("inf")
    return baseline_total / policy_total


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
    return (float(flat.mean()), float(np.percentile(flat, 50)),
            float(np.percentile(flat, 95)))


def compute_metrics(result: EpisodeResult) -> MetricsBundle:
    """Summarize an episode's backlog trajectory."""
    qs = result.queues
    mean, median, p95 = backlog_stats(qs)
    objective = float(qs.sum(axis=1).mean() / result.graph.node_count)
    rounds = [s.rounds_used for s in result.schedules
              if s.rounds_used is not None]
    rounds_mean = float(np.mean(rounds)) if rounds else None
    rounds_max = int(max(rounds)) if rounds else None
    return MetricsBundle(mean, median, p95, objective, rounds_mean, rounds_max)


def steady_state_mean(result: EpisodeResult, burn_in: int) -> float:
    """Average per-node backlog over the start-of-slot states q(burn_in)
    .. q(T-1), discarding the first ``burn_in`` slots as transient."""
    horizon = len(result.schedules)
    if not 0 <= burn_in < horizon:
        raise ValueError(f"burn-in must lie in [0, {horizon})")
    return float(result.queues[burn_in:horizon].mean())


# --- persistence --------------------------------------------------------------


def save_trace(trace: TrafficTrace, path) -> None:
    """CSV dump with seed metadata: a ``# seed=... nodes=... horizon=...``
    comment line, a ``t,node,arrival,rate`` header, then one row per
    (slot, node)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={trace.seed} nodes={trace.node_count} "
                 f"horizon={trace.horizon}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "node", "arrival", "rate"])
        for t in range(trace.horizon):
            for v in range(trace.node_count):
                writer.writerow([t, v, int(trace.arrivals[t, v]),
                                 int(trace.rates[t, v])])


def load_trace(path) -> TrafficTrace:
    """Read a trace written by :func:`save_trace`.

    Fails closed: missing or non-integer metadata, a non-integer field, a
    ``(t, node)`` out of range or repeated, and a file without one row per
    (slot, node) each raise ValueError naming the path and line.
    """
    with open(path, newline="") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("#"):
            raise ValueError(f"{path}: line 1: missing trace metadata comment")
        try:
            meta = dict(part.split("=", 1) for part in meta_line[1:].split())
            seed = None if meta.get("seed") in (None, "None") \
                else int(meta["seed"])
            nodes = int(meta["nodes"])
            horizon = int(meta["horizon"])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: line 1: trace metadata needs integer "
                             "nodes and horizon") from None
        if nodes < 1 or horizon < 1:
            raise ValueError(f"{path}: line 1: nodes and horizon must be "
                             "positive")
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "node", "arrival", "rate"]:
            raise ValueError(f"{path}: line 2: unexpected trace header")
        size = horizon * nodes
        arrivals, rates, seen = [0] * size, [0] * size, bytearray(size)
        for row in reader:
            # the metadata line was read before the CSV reader started
            line = reader.line_num + 1
            try:
                t, v, a, r = map(int, row)
            except ValueError:
                raise ValueError(f"{path}: line {line}: expected four "
                                 "integer fields") from None
            if not (0 <= t < horizon and 0 <= v < nodes):
                raise ValueError(f"{path}: line {line}: (t, node) = "
                                 f"({t}, {v}) outside {horizon} x {nodes}")
            cell = t * nodes + v
            if seen[cell]:
                raise ValueError(f"{path}: line {line}: duplicate row for "
                                 f"(t, node) = ({t}, {v})")
            seen[cell] = 1
            arrivals[cell] = a
            rates[cell] = r
        missing = seen.count(0)
        if missing:
            raise ValueError(f"{path}: line {reader.line_num + 1}: "
                             f"{missing} of {size} (t, node) rows missing")
    shape = (horizon, nodes)
    return TrafficTrace(np.array(arrivals).reshape(shape),
                        np.array(rates).reshape(shape), seed)


def write_trajectory_csv(result: EpisodeResult, path) -> None:
    """Per-slot trajectory dump with schema ``t,node,q,scheduled``; ``q`` is
    the start-of-slot backlog."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node", "q", "scheduled"])
        for t, schedule in enumerate(result.schedules):
            members = schedule.nodes
            for v in range(result.graph.node_count):
                writer.writerow([t, v, int(result.queues[t, v]),
                                 int(v in members)])
