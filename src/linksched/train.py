"""Lookahead-reward training loop with experience replay.

Each episode runs the GCN scheduler through a fresh scheduling instance; at
every slot the decision is scored by rolling both the GCN policy and the
baseline K slots forward under identical randomness. Scheduled links are
regressed toward the (activated) backlog ratio, unscheduled links toward
their own current utility, with one Adam step per episode on a replayed
batch.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gcn import (AdamState, GcnParams, Gradients, adam_step, backward,
                  forward, identity_params, init_params, save_checkpoint)
from .graph import ConflictGraph, as_rng, normalized_laplacian
from .policies import GcnLgsPolicy, SolverPolicy
from .presets import parse_graph_config
from .sim import RATE_MEAN, RATE_STD, NetworkState, TrafficTrace, advance, \
    lookahead_compare, sample_traffic
from .solvers import baseline_utility, lgs

DEFAULT_LOADS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08)


@dataclass
class ExperienceTuple:
    """One slot of interaction: features, the schedule taken, and targets.

    ``ratio`` keeps the raw lookahead outcome for win-rate bookkeeping.
    """

    graph: ConflictGraph
    features: np.ndarray   # (V, 1) float64
    indicator: np.ndarray  # (V,) int8, membership of the schedule
    returns: np.ndarray    # (V,) float64 regression targets
    ratio: float


class ReplayBuffer:
    """Bounded FIFO of experience tuples with uniform batch sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("replay capacity must be positive")
        self.capacity = capacity
        self._items: deque[ExperienceTuple] = deque(maxlen=capacity)

    def push(self, item: ExperienceTuple) -> None:
        self._items.append(item)

    def extend(self, items) -> None:
        for item in items:
            self.push(item)

    def __len__(self) -> int:
        return len(self._items)

    def sample(self, batch_size: int,
               rng: np.random.Generator | int | None = None) -> list[ExperienceTuple]:
        """Uniform sample without replacement; shrinks to the buffer size."""
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        take = min(batch_size, len(self._items))
        idx = as_rng(rng).choice(len(self._items), size=take, replace=False)
        return [self._items[i] for i in idx]


def apply_phi(x: float, kind: str) -> float:
    """Reward activation: identity, or a unit step at 1 with step(1) = 1."""
    if kind == "linear":
        return float(x)
    if kind == "heaviside":
        return 1.0 if x >= 1.0 else 0.0
    raise ValueError(f"unknown phi kind: {kind!r}")


def compute_reward(ratio: float, indicator, u_gcn,
                   phi: str = "heaviside") -> np.ndarray:
    """Per-link regression targets for one slot.

    Scheduled links receive phi(ratio); unscheduled links receive their own
    current utility so they contribute nothing to the loss. The result is a
    constant target: no gradient flows through it.
    """
    v = np.asarray(indicator)
    if v.ndim != 1 or not np.isin(v, (0, 1)).all():
        raise ValueError("schedule indicator must be a binary vector")
    u = np.asarray(u_gcn, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("indicator and utility lengths differ")
    vf = v.astype(np.float64)
    return apply_phi(ratio, phi) * vf + u * (1.0 - vf)


def rms_loss(u_gcn, returns) -> float:
    """Root-mean-square deviation between utilities and targets."""
    u = np.asarray(u_gcn, dtype=np.float64)
    rho = np.asarray(returns, dtype=np.float64)
    if u.shape != rho.shape:
        raise ValueError("utility and return lengths differ")
    return float(np.linalg.norm(u - rho) / math.sqrt(u.size))


def loss_gradient(u_gcn, returns) -> np.ndarray:
    """d(rms_loss)/d(utilities); zero at the (non-smooth) minimum."""
    u = np.asarray(u_gcn, dtype=np.float64)
    rho = np.asarray(returns, dtype=np.float64)
    diff = u - rho
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        return np.zeros_like(diff)
    return diff / (norm * math.sqrt(u.size))


@dataclass
class TrainConfig:
    """Training knobs; the defaults reproduce the delivered curriculum
    (mixed star/BA instances, 5-step lookahead, Heaviside rewards,
    batch-64 replay, 6000 episodes)."""

    episodes: int = 6000
    horizon: int = 64
    lookahead: int = 5
    phi: str = "heaviside"
    batch_size: int = 64
    replay_capacity: int = 4096
    graph_mix: tuple[tuple[str, float], ...] = (("star30", 0.8), ("ba-m2", 0.2))
    loads: tuple[float, ...] = DEFAULT_LOADS
    rate_mean: float = RATE_MEAN
    rate_std: float = RATE_STD
    utility_kind: str = "product"
    layer_dims: tuple[int, ...] = (1, 1)
    leaky_slope: float = 0.2
    init: str = "glorot"
    base_lr: float = 1e-3
    lr_decay: float = 0.999
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    recompute_unscheduled: bool = False
    checkpoint_interval: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.episodes < 0:
            raise ValueError("episode count must be non-negative")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one slot")
        if self.lookahead < 1:
            raise ValueError("lookahead must be at least one step")
        if self.batch_size < 1 or self.replay_capacity < 1:
            raise ValueError("batch size and replay capacity must be positive")
        if self.phi not in ("heaviside", "linear"):
            raise ValueError(f"unknown phi kind: {self.phi!r}")
        if self.init not in ("glorot", "identity"):
            raise ValueError(f"unknown initialization: {self.init!r}")
        if self.utility_kind not in ("product", "min"):
            raise ValueError(f"unknown utility kind: {self.utility_kind!r}")
        if not self.graph_mix:
            raise ValueError("graph mix must name at least one family")
        total = sum(p for _, p in self.graph_mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"graph-mix proportions sum to {total}, expected 1")
        for name, prop in self.graph_mix:
            if prop < 0:
                raise ValueError("graph-mix proportions must be non-negative")
            parse_graph_config(name)
        if not self.loads or any(not 0.0 < mu < 1.0 for mu in self.loads):
            raise ValueError("traffic loads must lie in (0, 1)")
        if self.init == "identity" and tuple(self.layer_dims) != (1, 1):
            raise ValueError("identity initialization requires layer dims (1, 1)")


def initial_params(config: TrainConfig,
                   rng: np.random.Generator | int | None = None) -> GcnParams:
    """Starting parameters under the configured initialization scheme."""
    if config.init == "identity":
        return identity_params()
    return init_params(config.layer_dims, rng)


def sample_instance(config: TrainConfig, rng: np.random.Generator,
                    ) -> tuple[str, ConflictGraph, TrafficTrace]:
    """Draw one training instance: (graph family name, graph, trace).

    Draws from ``rng`` in this order: the family from the configured mix,
    the graph, the traffic load, then a trace covering horizon + lookahead
    slots.
    """
    names = [name for name, _ in config.graph_mix]
    probs = np.array([p for _, p in config.graph_mix], dtype=np.float64)
    name = names[int(rng.choice(len(names), p=probs / probs.sum()))]
    graph = parse_graph_config(name).build(rng)
    mu = float(config.loads[int(rng.integers(len(config.loads)))])
    trace = sample_traffic(graph, config.horizon + config.lookahead,
                           mu * config.rate_mean, rng,
                           rate_mean=config.rate_mean,
                           rate_std=config.rate_std)
    return name, graph, trace


def collect_episode(config: TrainConfig, params: GcnParams,
                    graph: ConflictGraph,
                    trace: TrafficTrace) -> list[ExperienceTuple]:
    """Run one episode under the GCN policy and score every slot.

    The trace must cover horizon + lookahead slots: the lookahead rollouts
    are side computations on upcoming trace slots and do not advance the
    main trajectory.
    """
    horizon, k = config.horizon, config.lookahead
    if trace.horizon < horizon + k:
        raise ValueError("trace must cover horizon + lookahead slots")
    gcn_policy = GcnLgsPolicy(params, config.leaky_slope, config.utility_kind)
    baseline = SolverPolicy(lgs, config.utility_kind)
    lap = gcn_policy.laplacian_for(graph)
    q = np.zeros(graph.node_count, dtype=np.int64)
    tuples: list[ExperienceTuple] = []
    for t in range(horizon):
        r = trace.rates[t]
        features = baseline_utility(q, r, config.utility_kind)[:, None]
        u, _ = forward(params, lap, features, config.leaky_slope)
        schedule = lgs(graph, u)
        indicator = schedule.indicator(graph.node_count)
        ratio = lookahead_compare(graph, NetworkState(q, r, t), gcn_policy,
                                  baseline, k, trace.slice(t, t + k))
        returns = compute_reward(ratio, indicator, u, config.phi)
        tuples.append(ExperienceTuple(graph, features, indicator, returns,
                                      ratio))
        q = advance(q, schedule, r, trace.arrivals[t])
    return tuples


def batch_gradients(config: TrainConfig, params: GcnParams,
                    batch: list[ExperienceTuple],
                    ) -> tuple[float, Gradients]:
    """Mean loss over the batch and the accumulated parameter gradients."""
    grads = Gradients.zeros_like(params)
    laps: dict[int, np.ndarray] = {}
    total = 0.0
    for item in batch:
        lap = laps.get(id(item.graph))
        if lap is None:
            lap = normalized_laplacian(item.graph)
            laps[id(item.graph)] = lap
        u, cache = forward(params, lap, item.features, config.leaky_slope)
        returns = item.returns
        if config.recompute_unscheduled:
            vf = item.indicator.astype(np.float64)
            returns = returns * vf + u * (1.0 - vf)
        total += rms_loss(u, returns)
        contribution = backward(params, cache,
                                loss_gradient(u, returns) / len(batch))
        for acc, g in zip(grads.theta0, contribution.theta0):
            acc += g
        for acc, g in zip(grads.theta1, contribution.theta1):
            acc += g
    return total / len(batch), grads


@dataclass
class TrainResult:
    """Final parameters plus the per-episode training log."""

    params: GcnParams
    log: list[dict] = field(default_factory=list)

    def win_rate(self) -> float:
        """Overall fraction of slots whose lookahead tied or beat the baseline."""
        if not self.log:
            return 0.0
        return float(np.mean([row["win_rate"] for row in self.log]))


def train(config: TrainConfig, checkpoint_dir=None) -> TrainResult:
    """Run the full training loop.

    Per episode: collect experiences with lookahead rewards, push them into
    the replay buffer, sample one batch, and apply a single Adam step at the
    decayed learning rate. Given a checkpoint directory, it writes the
    final parameters to ``checkpoint.ckpt`` there, plus interval
    checkpoints when configured; a non-finite batch loss aborts after
    writing ``diagnostic.ckpt`` there.
    """
    config.validate()
    master = np.random.default_rng(config.seed)
    params = initial_params(config, np.random.default_rng(master.integers(2**63)))
    state = AdamState.for_params(params, base_lr=config.base_lr,
                                 decay=config.lr_decay, beta1=config.beta1,
                                 beta2=config.beta2, eps=config.eps)
    buffer = ReplayBuffer(config.replay_capacity)
    out_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    log: list[dict] = []
    for episode in range(config.episodes):
        ep_rng = np.random.default_rng(master.integers(2**63))
        batch_rng = np.random.default_rng(master.integers(2**63))
        model, graph, trace = sample_instance(config, ep_rng)
        tuples = collect_episode(config, params, graph, trace)
        buffer.extend(tuples)
        batch = buffer.sample(config.batch_size, batch_rng)
        loss, grads = batch_gradients(config, params, batch)
        if not math.isfinite(loss):
            if out_dir is not None:
                _write_checkpoint(out_dir / "diagnostic.ckpt", params, config)
            raise RuntimeError(f"non-finite loss at episode {episode}; "
                               "diagnostic checkpoint written"
                               if out_dir is not None else
                               f"non-finite loss at episode {episode}")
        lr = state.base_lr * state.decay ** state.step
        adam_step(params, grads, state)
        win = float(np.mean([1.0 if tp.ratio >= 1.0 else 0.0 for tp in tuples]))
        log.append({"episode": episode, "loss": loss, "win_rate": win,
                    "lr": lr, "graph_model": model})
        if (out_dir is not None and config.checkpoint_interval > 0
                and (episode + 1) % config.checkpoint_interval == 0):
            _write_checkpoint(out_dir / f"checkpoint_ep{episode + 1:05d}.ckpt",
                              params, config)
    if out_dir is not None:
        _write_checkpoint(out_dir / "checkpoint.ckpt", params, config)
    return TrainResult(params, log)


def _write_checkpoint(path: Path, params: GcnParams,
                      config: TrainConfig) -> None:
    save_checkpoint(path, params, slope=config.leaky_slope,
                    base_lr=config.base_lr, decay=config.lr_decay,
                    beta1=config.beta1, beta2=config.beta2, eps=config.eps)


def write_training_log(log: list[dict], path) -> None:
    """CSV log with columns episode,loss,win_rate,lr,graph_model."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "loss", "win_rate", "lr", "graph_model"])
        for row in log:
            writer.writerow([row["episode"], repr(row["loss"]),
                             repr(row["win_rate"]), repr(row["lr"]),
                             row["graph_model"]])
