"""Lookahead-reward training loop with experience replay.

Each episode runs the GCN scheduler through a fresh scheduling instance with
:func:`~linksched.sim.run_episode`, the same per-slot loop evaluation uses;
every slot's decision is then scored by rolling both the GCN policy and the
baseline K slots forward under identical randomness, all slots of the
episode in one batched rollout. Scheduled links are regressed toward the
(activated) backlog ratio, unscheduled links toward their own current
utility, with one Adam step per episode on a replayed batch.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gcn import (BASE_LR, LEAKY_SLOPE, LR_DECAY, AdamState, GcnParams,
                  Gradients, adam_step, backward, forward, identity_params,
                  init_params, save_checkpoint)
from .graph import ConflictGraph, as_rng
from .policies import GcnLgsPolicy, SolverPolicy
from .presets import parse_graph_config
from .sim import RATE_MEAN, TrafficTrace, lookahead_compare, run_episode, \
    sample_traffic
from .solvers import lgs

DEFAULT_LOADS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08)
# The largest value of each size key (for ``layer_dims``, of each width), so
# an absurd size is refused by name before anything is built from it.
# ``batch_size`` needs no cap: a batch shrinks to the replay buffer.
SIZE_CAPS = {"horizon": 100_000, "lookahead": 1_000,
             "replay_capacity": 1_000_000, "layer_dims": 4_096}


@dataclass
class ExperienceTuple:
    """One slot of interaction: features, the schedule taken, and targets.

    ``ratio`` keeps the raw lookahead outcome for win-rate bookkeeping.
    """

    graph: ConflictGraph
    features: np.ndarray   # (V, 1) float64
    indicator: np.ndarray  # (V,) bool, membership mask of the schedule
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


def apply_phi(x, kind: str) -> np.ndarray:
    """Reward activation, elementwise as float64: identity, or a unit step
    at 1 with step(1) = 1."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "linear":
        return x
    if kind == "heaviside":
        return np.where(x >= 1.0, 1.0, 0.0)
    raise ValueError(f"unknown phi kind: {kind!r}")


def compute_reward(ratio, indicator, u_gcn,
                   phi: str = "heaviside") -> np.ndarray:
    """Per-link regression targets for one slot, or for a stack of slots.

    ``indicator`` and ``u_gcn`` are (V,) with a scalar ``ratio``, or (B, V)
    with (B,) ratios, one per row. Scheduled links receive phi(ratio);
    unscheduled links receive their utility at collection time, which adds
    no loss only until the parameters move (replay can recompute it: see
    ``TrainConfig.recompute_unscheduled``). Each row equals the one-slot
    call on that row. The result is a constant target: no gradient flows
    through it.
    """
    v = np.asarray(indicator)
    if v.ndim not in (1, 2) or not ((v == 0) | (v == 1)).all():
        raise ValueError("schedule indicator must be a binary vector or a "
                         "stack of them")
    u = np.asarray(u_gcn, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("indicator and utility lengths differ")
    phi_ratio = apply_phi(ratio, phi)
    if phi_ratio.shape != v.shape[:-1]:
        raise ValueError("need one ratio per indicator row")
    vf = v.astype(np.float64)
    return phi_ratio[..., None] * vf + u * (1.0 - vf)


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
    """Training knobs, the one schema of a training run: each field is a
    ``train --config`` key, parsed by its declared type. The defaults
    reproduce the delivered curriculum (mixed star/BA instances, 5-step
    lookahead, Heaviside rewards, batch-64 replay, 6000 episodes). The
    traffic model (``sim``) and Adam's betas and eps (``gcn``) are fixed."""

    episodes: int = 6000
    horizon: int = 64
    lookahead: int = 5
    phi: str = "heaviside"
    batch_size: int = 64
    replay_capacity: int = 4096
    graph_mix: tuple[tuple[str, float], ...] = (("star30", 0.8), ("ba-m2", 0.2))
    loads: tuple[float, ...] = DEFAULT_LOADS
    utility_kind: str = "product"
    layer_dims: tuple[int, ...] = (1, 1)
    leaky_slope: float = LEAKY_SLOPE
    init: str = "glorot"
    base_lr: float = BASE_LR
    lr_decay: float = LR_DECAY
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
        for name, cap in SIZE_CAPS.items():
            value = getattr(self, name)
            if any(v > cap for v in (value if isinstance(value, tuple)
                                     else (value,))):
                raise ValueError(f"{name} must be at most {cap}")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint interval must be non-negative")
        for name in ("base_lr", "lr_decay", "leaky_slope"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.phi not in ("heaviside", "linear"):
            raise ValueError(f"unknown phi kind: {self.phi!r}")
        if self.init not in ("glorot", "identity"):
            raise ValueError(f"unknown initialization: {self.init!r}")
        if self.utility_kind not in ("product", "min"):
            raise ValueError(f"unknown utility kind: {self.utility_kind!r}")
        if not self.graph_mix:
            raise ValueError("graph mix must name at least one family")
        total = sum(p for _, p in self.graph_mix)
        if not abs(total - 1.0) <= 1e-9:
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
                           mu * RATE_MEAN, rng)
    return name, graph, trace


def collect_episode(config: TrainConfig, params: GcnParams,
                    graph: ConflictGraph,
                    trace: TrafficTrace) -> list[ExperienceTuple]:
    """Run one episode under the GCN policy and score every slot.

    Two phases. First :func:`run_episode` runs the GCN policy for the
    horizon, with evaluation's per-slot checks. The lookahead rollouts never
    feed back into that trajectory, so then all slots are scored at once:
    one stacked forward gives the utilities of the recorded start states
    (bitwise equal per row to the per-slot forward), one
    :func:`lookahead_compare` call rolls slot t on trace slots
    t .. t + lookahead - 1 under the GCN policy and the LGS baseline, and
    one :func:`compute_reward` call gives the targets. The trace must cover
    horizon + lookahead slots.
    """
    horizon, k = config.horizon, config.lookahead
    if trace.horizon < horizon + k:
        raise ValueError("trace must cover horizon + lookahead slots")
    gcn_policy = GcnLgsPolicy(params, config.leaky_slope, config.utility_kind)
    baseline = SolverPolicy(lgs, config.utility_kind)
    result, = run_episode(graph, [gcn_policy], trace, steps=horizon)
    q, r = result.queues[:horizon], trace.rates[:horizon]
    features = gcn_policy.features(q, r)
    u = gcn_policy.utilities(graph, q, r)
    ratios = lookahead_compare(graph, q, gcn_policy.utilities,
                               baseline.utilities, k, trace)
    returns = compute_reward(ratios, result.members, u, config.phi)
    return [ExperienceTuple(graph, *slot) for slot in
            zip(features, result.members, returns, ratios.tolist())]


def batch_gradients(config: TrainConfig, params: GcnParams,
                    batch: list[ExperienceTuple],
                    ) -> tuple[float, Gradients]:
    """Mean loss over the batch and the accumulated parameter gradients."""
    grads = Gradients.zeros_like(params)
    total = 0.0
    for item in batch:
        u, cache = forward(params, item.graph.laplacian, item.features,
                           config.leaky_slope)
        returns = item.returns
        if config.recompute_unscheduled:
            vf = item.indicator.astype(np.float64)
            returns = returns * vf + u * (1.0 - vf)
        total += rms_loss(u, returns)
        contribution = backward(params, cache,
                                loss_gradient(u, returns) / len(batch))
        for acc, g in zip(grads.theta0 + grads.theta1,
                          contribution.theta0 + contribution.theta1):
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
                                 decay=config.lr_decay)
    buffer = ReplayBuffer(config.replay_capacity)
    out_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def save(name: str) -> None:
        save_checkpoint(out_dir / name, params, slope=config.leaky_slope)

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
                save("diagnostic.ckpt")
            raise RuntimeError(f"non-finite loss at episode {episode}; "
                               "diagnostic checkpoint written"
                               if out_dir is not None else
                               f"non-finite loss at episode {episode}")
        lr = state.lr
        adam_step(params, grads, state)
        win = float(np.mean([1.0 if tp.ratio >= 1.0 else 0.0 for tp in tuples]))
        log.append({"episode": episode, "loss": loss, "win_rate": win,
                    "lr": lr, "graph_model": model})
        if (out_dir is not None and config.checkpoint_interval > 0
                and (episode + 1) % config.checkpoint_interval == 0):
            save(f"checkpoint_ep{episode + 1:05d}.ckpt")
    if out_dir is not None:
        save("checkpoint.ckpt")
    return TrainResult(params, log)


def write_training_log(log: list[dict], path) -> None:
    """CSV log with columns episode,loss,win_rate,lr,graph_model."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "loss", "win_rate", "lr", "graph_model"])
        for row in log:
            writer.writerow([row["episode"], repr(row["loss"]),
                             repr(row["win_rate"]), repr(row["lr"]),
                             row["graph_model"]])
