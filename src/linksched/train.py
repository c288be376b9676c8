"""Lookahead-reward training loop with experience replay.

Each episode runs the GCN scheduler, its parameters fixed, through a fresh
instance with :func:`~linksched.sim.run_episode`, evaluation's per-slot
loop, K - 1 slots past the horizon. Its utilities are solved by the
centralized greedy scan, which picks LGS's schedule at a fraction of the
cost; training reads no message rounds. Each slot is scored by the
trajectory's next K states against the baseline's K-slot rollout from the
same state on the same trace, all slots in one call: the rollouts read the
trajectory until the baseline's step leaves it, so only slots where the
GCN's schedule differs from LGS's cost further LGS solves. Scheduled
links are regressed toward 1 where the lookahead tied or beat the baseline
and toward 0 where it lost, unscheduled links toward their own utility,
with one Adam step per episode on a batch replayed from the last
``replay_capacity`` slots. The batch runs one stacked GCN forward and
backward per node count in it, whose convolutions run one product per
Laplacian the group holds, and the per-item losses and gradients
are summed in batch order: the step is bitwise that of an item-by-item loop.
A run resolves its graph mix once (:func:`resolve_mix`): a star family is
built once per run, and its cached tables, its Laplacian among them,
serve every episode drawn on it.

The solvers and the weighing run unchecked; an episode's inputs are
checked where they enter it, by :func:`~linksched.sim.run_episode` and
:func:`~linksched.sim.lookahead_compare`. A run is refused, after it
writes its last finite parameters to ``diagnostic.ckpt``, at the first
non-finite batch loss and at the first Adam step that would make a
parameter non-finite, so no run ends with a checkpoint that
:func:`~linksched.gcn.load_checkpoint` refuses.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gcn import (BASE_LR, LR_DECAY, AdamState, GcnParams, Gradients,
                  adam_step, backward, forward, identity_params, init_params,
                  save_checkpoint)
from .graph import ConflictGraph
from .policies import GcnLgsPolicy
from .presets import GraphConfig, parse_graph_config
from .sim import RATE_MEAN, TrafficTrace, lookahead_compare, run_episode, \
    sample_traffic
from .solvers import baseline_utility

DEFAULT_LOADS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08)
# The largest value of each size key (for ``layer_dims``, of each width), so
# an absurd size is refused by name before anything is built from it.
# ``batch_size`` needs no cap: a batch shrinks to the replay window.
SIZE_CAPS = {"horizon": 100_000, "lookahead": 1_000,
             "replay_capacity": 1_000_000, "layer_dims": 4_096}


@dataclass
class ExperienceTuple:
    """One slot of interaction: the backlog x rate features, the schedule
    taken, and the regression targets of :func:`compute_reward`.

    ``ratio`` keeps the raw lookahead outcome for win-rate bookkeeping.
    """

    graph: ConflictGraph
    features: np.ndarray   # (V, 1) float64
    indicator: np.ndarray  # (V,) bool, membership mask of the schedule
    returns: np.ndarray    # (V,) float64 regression targets
    ratio: float


def compute_reward(ratio, indicator, u_gcn) -> np.ndarray:
    """Per-link regression targets for one slot, or for a stack of slots.

    ``indicator`` and ``u_gcn`` are (V,) with a scalar ``ratio``, or (B, V)
    with (B,) ratios, one per row. Scheduled links receive the unit step of
    the ratio at 1: 1.0 where the lookahead tied or beat the baseline
    (ratio >= 1), else 0.0. Unscheduled links receive their utility at
    collection time, which adds no loss only until the parameters move.
    Each row equals the one-slot call on that row. The result is a constant
    target: no gradient flows through it.
    """
    v = np.asarray(indicator)
    if v.ndim not in (1, 2) or not ((v == 0) | (v == 1)).all():
        raise ValueError("schedule indicator must be a binary vector or a "
                         "stack of them")
    u = np.asarray(u_gcn, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("indicator and utility lengths differ")
    won = np.where(np.asarray(ratio, dtype=np.float64) >= 1.0, 1.0, 0.0)
    if won.shape != v.shape[:-1]:
        raise ValueError("need one ratio per indicator row")
    vf = v.astype(np.float64)
    return won[..., None] * vf + u * (1.0 - vf)


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """sqrt(d @ d) of each row d: the one ``ddot`` of ``np.linalg.norm``."""
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


def rms_loss(u_gcn, returns) -> float | np.ndarray:
    """Root-mean-square deviation between utilities and targets: a float
    for (V,) inputs, one per row for (B, V) stacks, each row's bitwise
    what the row alone gives."""
    u = np.asarray(u_gcn, dtype=np.float64)
    rho = np.asarray(returns, dtype=np.float64)
    if u.shape != rho.shape:
        raise ValueError("utility and return lengths differ")
    loss = _row_norms(u - rho) / math.sqrt(u.shape[-1])
    return float(loss) if loss.ndim == 0 else loss


def loss_gradient(u_gcn, returns) -> np.ndarray:
    """d(rms_loss)/d(utilities), row by row for (B, V) stacks; a row at the
    (non-smooth) minimum, where its norm is 0, gets a zero gradient."""
    u = np.asarray(u_gcn, dtype=np.float64)
    rho = np.asarray(returns, dtype=np.float64)
    diff = u - rho
    norm = _row_norms(diff)
    zero = norm == 0.0
    grad = diff / np.where(zero, 1.0, norm * math.sqrt(u.shape[-1]))[..., None]
    grad[zero] = 0.0
    return grad


@dataclass
class TrainConfig:
    """Training knobs, the one schema of a training run: each field is a
    ``train --config`` key, parsed by its declared type. The defaults
    reproduce the delivered curriculum (mixed star/BA instances, 5-step
    lookahead, batch-64 replay, 6000 episodes). Fixed are the GCN's one
    input, backlog x rate, the reward (:func:`compute_reward`), the
    leaky-ReLU slope (``gcn.LEAKY_SLOPE``), the traffic model (``sim``) and
    Adam's betas and eps (``gcn``)."""

    episodes: int = 6000
    horizon: int = 64
    lookahead: int = 5
    batch_size: int = 64
    replay_capacity: int = 4096
    graph_mix: tuple[tuple[str, float], ...] = (("star30", 0.8), ("ba-m2", 0.2))
    loads: tuple[float, ...] = DEFAULT_LOADS
    layer_dims: tuple[int, ...] = (1, 1)
    init: str = "glorot"
    base_lr: float = BASE_LR
    lr_decay: float = LR_DECAY
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
        dims = self.layer_dims
        if len(dims) < 2 or dims[0] != 1 or dims[-1] != 1 or min(dims) < 1:
            raise ValueError("layer_dims must read 1,...,1 with no width "
                             "below 1: one feature in, one utility out")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint interval must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("base_lr", "lr_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.init not in ("glorot", "identity"):
            raise ValueError(f"unknown initialization: {self.init!r}")
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


def resolve_mix(config: TrainConfig) -> list[GraphConfig]:
    """The families of ``config.graph_mix``, in its order, resolved once
    for a run: a star family is built here and gives that one graph on
    every draw (:meth:`GraphConfig.for_run`), so a run builds it and its
    cached tables once. The graphs live as long as the list, which
    :func:`train` holds for one run only: a star of 10,000 nodes has an
    800 MB Laplacian."""
    return [parse_graph_config(name).for_run() for name, _ in config.graph_mix]


def sample_instance(config: TrainConfig, rng: np.random.Generator,
                    families: list[GraphConfig] | None = None,
                    ) -> tuple[str, ConflictGraph, TrafficTrace]:
    """Draw one training instance: (graph family name, graph, trace).

    Draws from ``rng`` in this order: the family from the configured mix,
    the graph, the traffic load, then a trace covering horizon + lookahead
    slots. ``families`` is :func:`resolve_mix`'s list for the run, resolved
    on this call if not given; a star draws nothing, so the draws are the
    same either way.
    """
    if families is None:
        families = resolve_mix(config)
    probs = np.array([p for _, p in config.graph_mix], dtype=np.float64)
    k = int(rng.choice(len(families), p=probs / probs.sum()))
    name, graph = config.graph_mix[k][0], families[k].build(rng)
    mu = float(config.loads[int(rng.integers(len(config.loads)))])
    trace = sample_traffic(graph, config.horizon + config.lookahead,
                           mu * RATE_MEAN, rng)
    return name, graph, trace


def collect_episode(config: TrainConfig, params: GcnParams,
                    graph: ConflictGraph,
                    trace: TrafficTrace) -> list[ExperienceTuple]:
    """Run one episode under the GCN policy and score every slot.

    Two phases. First :func:`run_episode` runs the GCN policy, with
    evaluation's checks, for horizon + lookahead - 1 slots: the
    horizon's slots and the lookahead's future of the last one. It solves
    with ``"greedy"``: LGS's local maxima are the greedy set in (utility,
    node ID) order, so the schedule is LGS's on every row, and training
    reads no message rounds, which only LGS reports. Then the
    first horizon slots are scored at once, their features weighed in one
    :func:`baseline_utility` call on run_episode's own queues, which are
    non-negative by construction: one :func:`lookahead_compare`
    call compares the trajectory's next lookahead states from slot t with
    the LGS baseline rolled from q(t) on the same trace slots, which
    follows the trajectory until its step leaves it, and one
    :func:`compute_reward` call gives the targets from the utilities each
    slot's schedule was solved on. The trace must cover horizon + lookahead
    slots.
    """
    horizon, k = config.horizon, config.lookahead
    if trace.horizon < horizon + k:
        raise ValueError("trace must cover horizon + lookahead slots")
    gcn_policy = GcnLgsPolicy(params, solver="greedy")
    result, = run_episode(graph, [gcn_policy], trace, steps=horizon + k - 1)
    members = result.members[:horizon]
    features = baseline_utility(result.queues[:horizon],
                                trace.rates[:horizon])[..., None]
    ratios = lookahead_compare(graph, result.queues, k, trace)
    returns = compute_reward(ratios, members, result.utilities[:horizon])
    return [ExperienceTuple(graph, *slot) for slot in
            zip(features, members, returns, ratios.tolist())]


def batch_gradients(params: GcnParams, batch: list[ExperienceTuple],
                    ) -> tuple[float, Gradients]:
    """Mean loss over the batch and the summed parameter gradients.

    The items are grouped by node count, and each group runs one stacked
    :func:`forward`, with one Laplacian per row, and one stacked
    :func:`backward`. Items of one graph hold its one cached Laplacian, so
    each layer's convolution runs one broadcast product per graph in the
    group: one for all of a run's star items. Each item's loss and
    gradients are bitwise those of the item alone; they are summed in
    batch order, one item at a time onto a zero, so the result is that of
    a loop over the items.
    """
    size = len(batch)
    groups: dict[int, list[int]] = {}
    for row, item in enumerate(batch, start=1):
        groups.setdefault(item.graph.node_count, []).append(row)
    # one row per item in batch order, after row 0: the zero the sums start on
    losses = np.zeros(size + 1)
    per_item = [np.zeros((size + 1, *t.shape))
                for t in params.theta0 + params.theta1]
    for rows in groups.values():
        items = [batch[row - 1] for row in rows]
        u, cache = forward(params, [item.graph.laplacian for item in items],
                           np.array([item.features for item in items]))
        returns = np.array([item.returns for item in items])
        losses[rows] = rms_loss(u, returns)
        grads = backward(params, cache, loss_gradient(u, returns) / size)
        for acc, g in zip(per_item, grads.theta0 + grads.theta1):
            acc[rows] = g
    total, *sums = [np.add.accumulate(acc)[-1] for acc in (losses, *per_item)]
    layers = params.num_layers
    return float(total) / size, Gradients(sums[:layers], sums[layers:])


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


def train(config: TrainConfig, checkpoint_dir) -> TrainResult:
    """Run the full training loop, writing to ``checkpoint_dir``.

    Per episode: collect experiences with lookahead rewards into the replay
    deque, sample one batch of up to ``batch_size`` without replacement, and
    apply a single Adam step at the decayed learning rate. The final
    parameters go to ``checkpoint.ckpt`` there, plus interval checkpoints
    when configured. A non-finite batch loss, and an Adam step that
    :func:`~linksched.gcn.adam_step` refuses because it would make a
    parameter non-finite, each abort the run with RuntimeError after
    writing the last finite parameters to ``diagnostic.ckpt`` there.
    """
    config.validate()
    master = np.random.default_rng(config.seed)
    params = initial_params(config, np.random.default_rng(master.integers(2**63)))
    state = AdamState.for_params(params, base_lr=config.base_lr,
                                 decay=config.lr_decay)
    buffer: deque[ExperienceTuple] = deque(maxlen=config.replay_capacity)
    families = resolve_mix(config)
    out_dir = Path(checkpoint_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log: list[dict] = []
    for episode in range(config.episodes):
        ep_rng = np.random.default_rng(master.integers(2**63))
        batch_rng = np.random.default_rng(master.integers(2**63))
        model, graph, trace = sample_instance(config, ep_rng, families)
        tuples = collect_episode(config, params, graph, trace)
        buffer.extend(tuples)
        batch = [buffer[i] for i in batch_rng.choice(
            len(buffer), size=min(config.batch_size, len(buffer)),
            replace=False)]
        loss, grads = batch_gradients(params, batch)
        lr = state.lr
        try:
            if not math.isfinite(loss):
                raise ValueError("non-finite loss")
            adam_step(params, grads, state)
        except ValueError as exc:
            save_checkpoint(out_dir / "diagnostic.ckpt", params)
            raise RuntimeError(f"{exc} at episode {episode}; diagnostic "
                               "checkpoint written") from None
        win = float(np.mean([1.0 if tp.ratio >= 1.0 else 0.0 for tp in tuples]))
        log.append({"episode": episode, "loss": loss, "win_rate": win,
                    "lr": lr, "graph_model": model})
        if (config.checkpoint_interval > 0
                and (episode + 1) % config.checkpoint_interval == 0):
            save_checkpoint(out_dir / f"checkpoint_ep{episode + 1:05d}.ckpt",
                            params)
    save_checkpoint(out_dir / "checkpoint.ckpt", params)
    return TrainResult(params, log)
