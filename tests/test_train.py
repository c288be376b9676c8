import numpy as np
import pytest

from linksched.gcn import (AdamState, adam_step, backward, forward,
                           identity_params, init_params)
from linksched.graph import generate_er, generate_star, normalized_laplacian
from linksched import policies
from linksched.policies import GcnLgsPolicy, SolverPolicy
from linksched import train as train_module
from linksched.sim import RATE_MEAN, TrafficTrace, run_episode, sample_traffic
from linksched.solvers import Schedule, baseline_utility, lgs
from linksched.train import (ExperienceTuple, ReplayBuffer, TrainConfig,
                             batch_gradients, collect_episode, compute_reward,
                             loss_gradient, rms_loss, sample_instance, train)


def small_config(**overrides):
    base = dict(episodes=4, horizon=8, lookahead=2, batch_size=8,
                replay_capacity=64, graph_mix=(("star5", 1.0),),
                loads=(0.05,), seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def sampled_episode(config, params, seed):
    _, graph, trace = sample_instance(config, np.random.default_rng(seed))
    return collect_episode(config, params, graph, trace)


class TestComputeReward:
    def test_heaviside_win(self):
        rho = compute_reward(1.2, [1, 0], [0.7, 0.3], "heaviside")
        assert rho.tolist() == [1.0, 0.3]

    def test_heaviside_loss(self):
        rho = compute_reward(0.8, [1, 1], [0.7, 0.3], "heaviside")
        assert rho.tolist() == [0.0, 0.0]

    def test_linear(self):
        rho = compute_reward(1.2, [1, 0], [0.7, 0.3], "linear")
        assert rho.tolist() == [1.2, 0.3]

    def test_tie_counts_as_win(self):
        rho = compute_reward(1.0, [1], [5.0], "heaviside")
        assert rho.tolist() == [1.0]

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(1.0, [2, 0], [0.1, 0.2], "heaviside")

    @pytest.mark.parametrize("phi", ["heaviside", "linear"])
    def test_stack_equals_rows(self, phi):
        ratios = np.array([0.0, 1.0, 3.0, np.inf])
        indicators = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [1, 0, 0]],
                              dtype=np.int8)
        u = np.random.default_rng(0).normal(size=indicators.shape)
        with np.errstate(invalid="ignore"):  # linear: inf * 0 off-schedule
            stacked = compute_reward(ratios, indicators, u, phi)
            rows = [compute_reward(float(ratio), ind, uu, phi)
                    for ratio, ind, uu in zip(ratios, indicators, u)]
        assert stacked.shape == indicators.shape
        for got, want in zip(stacked, rows):
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="one ratio per"):
            compute_reward(ratios[:3], indicators, u, phi)


class TestLoss:
    def test_zero_at_target(self):
        assert rms_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_example(self):
        assert rms_loss([1.0, 0.0], [0.0, 0.0]) == pytest.approx(2 ** -0.5)

    def test_unscheduled_contribute_nothing(self):
        u = np.array([3.0, -1.0, 2.0])
        rho = compute_reward(2.0, [1, 0, 0], u, "heaviside")
        # only the scheduled entry differs from u
        assert rms_loss(u, rho) == pytest.approx(abs(u[0] - 1.0) / np.sqrt(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rms_loss([1.0], [1.0, 2.0])

    def test_gradient_zero_at_minimum(self):
        assert not loss_gradient([1.0, 2.0], [1.0, 2.0]).any()

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=6)
        rho = rng.normal(size=6)
        grad = loss_gradient(u, rho)
        h = 1e-7
        for i in range(6):
            bumped = u.copy()
            bumped[i] += h
            fd = (rms_loss(bumped, rho) - rms_loss(u, rho)) / h
            assert grad[i] == pytest.approx(fd, rel=1e-4)


class TestReplayBuffer:
    @staticmethod
    def dummy_tuple(tag):
        g = generate_star(2)
        return ExperienceTuple(g, np.zeros((3, 1)), np.zeros(3, np.int8),
                               np.full(3, float(tag)), 1.0)

    def test_capacity_is_fifo(self):
        buf = ReplayBuffer(4)
        buf.extend(self.dummy_tuple(i) for i in range(6))
        assert len(buf) == 4
        kept = sorted(item.returns[0] for item in buf.sample(4, 0))
        assert kept == [2.0, 3.0, 4.0, 5.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(16)
        buf.extend(self.dummy_tuple(i) for i in range(16))
        tags = [item.returns[0] for item in buf.sample(16, 1)]
        assert len(set(tags)) == 16

    def test_sample_reproducible(self):
        buf = ReplayBuffer(32)
        buf.extend(self.dummy_tuple(i) for i in range(32))
        a = [t.returns[0] for t in buf.sample(8, 42)]
        b = [t.returns[0] for t in buf.sample(8, 42)]
        assert a == b

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)


def reference_episode(config, params, graph, trace):
    # plain loops: the main trajectory, and from each of its start states
    # both policies rolled k slots with an explicit q - min(r, q) + a
    gcn = GcnLgsPolicy(params, config.leaky_slope, config.utility_kind)
    baseline = SolverPolicy(lgs, config.utility_kind)

    def slot(q, schedule, t):
        q = q.copy()
        for v in np.flatnonzero(schedule.members):
            q[v] -= min(trace.rates[t][v], q[v])
        return q + trace.arrivals[t]

    def rollout_total(policy, q, t):
        total = 0
        for i in range(config.lookahead):
            q = slot(q, policy(graph, q, trace.rates[t + i]), t + i)
            total += int(q.sum())
        return total

    q = np.zeros(graph.node_count, dtype=np.int64)
    out = []
    for t in range(config.horizon):
        r = trace.rates[t]
        features = baseline_utility(q, r, config.utility_kind)[:, None]
        u = gcn.utilities(graph, q, r)
        schedule = gcn(graph, q, r)
        indicator = schedule.members
        policy_total = rollout_total(gcn, q, t)
        baseline_total = rollout_total(baseline, q, t)
        if policy_total == 0:
            ratio = 1.0 if baseline_total == 0 else float("inf")
        else:
            ratio = baseline_total / policy_total
        out.append((features, indicator,
                    compute_reward(ratio, indicator, u, config.phi), ratio))
        q = slot(q, schedule, t)
    return out


class TestCollectEpisode:
    @pytest.mark.parametrize("phi,kind", [("heaviside", "product"),
                                          ("linear", "min")])
    def test_matches_plain_loop_rollouts(self, phi, kind):
        config = small_config(horizon=20, lookahead=4, phi=phi,
                              utility_kind=kind, layer_dims=(1, 4, 1),
                              graph_mix=(("star8", 0.5), ("er", 0.5)),
                              loads=(0.08,))
        ratios = []
        for seed in range(4):
            params = init_params(config.layer_dims, seed)
            _, graph, trace = sample_instance(config,
                                              np.random.default_rng(seed))
            tuples = collect_episode(config, params, graph, trace)
            want = reference_episode(config, params, graph, trace)
            assert len(tuples) == len(want)
            for item, (features, indicator, returns, ratio) in zip(tuples,
                                                                   want):
                assert np.array_equal(item.features, features)
                assert np.array_equal(item.indicator, indicator)
                assert np.array_equal(item.returns, returns)
                assert item.ratio == ratio
                ratios.append(ratio)
        # the rollouts must have told the policies apart somewhere
        assert len(set(ratios)) > 2

    def test_tuple_count_matches_horizon(self):
        config = small_config(horizon=12)
        params = init_params(config.layer_dims, 0)
        tuples = sampled_episode(config, params, 1)
        assert len(tuples) == 12

    def test_zero_traffic_targets(self):
        config = small_config()
        params = init_params(config.layer_dims, 0)
        g = generate_star(5)
        from linksched.sim import TrafficTrace
        horizon = config.horizon + config.lookahead
        trace = TrafficTrace(np.zeros((horizon, 6), np.int64),
                             np.full((horizon, 6), 50, np.int64))
        tuples = collect_episode(config, params, g, trace)
        for item in tuples:
            assert item.ratio == 1.0
            assert (item.returns[item.indicator] == 1.0).all()

    def test_identity_params_always_tie(self):
        config = small_config(graph_mix=(("ba-m2", 1.0),), horizon=6)
        tuples = sampled_episode(config, identity_params(), 3)
        assert all(item.ratio == 1.0 for item in tuples)

    def test_indicator_is_valid_schedule(self):
        from linksched.graph import is_independent_mask
        config = small_config()
        params = init_params(config.layer_dims, 5)
        for item in sampled_episode(config, params, 6):
            assert item.indicator.dtype == bool
            assert is_independent_mask(item.graph, item.indicator)

    def test_non_independent_schedule_rejected(self, monkeypatch):
        # the main trajectory runs evaluation's per-slot checks
        config = small_config()
        params = init_params(config.layer_dims, 0)
        monkeypatch.setattr(
            policies, "lgs",
            lambda graph, u: Schedule(np.ones(graph.node_count, bool)))
        with pytest.raises(ValueError, match="independent"):
            sampled_episode(config, params, 1)

    def test_main_trajectory_matches_run_episode(self):
        # the trainer and the simulator share one queue update
        config = small_config(horizon=24, lookahead=3)
        params = init_params(config.layer_dims, 7)
        g = generate_er(12, 0.3, 4)
        drawn = sample_traffic(g, config.horizon + config.lookahead, 20.0, 5)
        trace = TrafficTrace(drawn.arrivals, np.maximum(drawn.rates, 1))
        tuples = collect_episode(config, params, g, trace)
        result, = run_episode(g, [GcnLgsPolicy(params)], trace,
                              steps=config.horizon)
        assert result.queues.max() > 0
        assert np.array_equal([item.indicator for item in tuples],
                              result.members)
        for t, item in enumerate(tuples):
            # rates are at least 1, so the q * r features pin the queues
            assert np.array_equal(item.features[:, 0],
                                  result.queues[t] * trace.rates[t])


class TestBatchGradients:
    def test_zero_loss_fixpoint(self):
        # when u already equals rho everywhere the Adam step is a no-op
        config = small_config()
        params = identity_params()
        g = generate_star(3)
        lap = normalized_laplacian(g)
        rng = np.random.default_rng(0)
        batch = []
        for _ in range(4):
            features = rng.random((4, 1))
            u, _ = forward(params, lap, features)
            batch.append(ExperienceTuple(g, features, np.zeros(4, np.int8),
                                         u.copy(), 1.0))
        loss, grads = batch_gradients(config, params, batch)
        assert loss == 0.0
        assert not any(t.any() for t in grads.theta0 + grads.theta1)
        state = AdamState.for_params(params)
        adam_step(params, grads, state)
        assert params.theta0[0].item() == 1.0
        assert params.theta1[0].item() == 0.0

    def test_gradient_matches_manual_chain(self):
        config = small_config()
        params = identity_params()
        g = generate_star(3)
        lap = normalized_laplacian(g)
        features = np.array([[2.0], [1.0], [1.0], [1.0]])
        u, cache = forward(params, lap, features)
        rho = np.zeros(4)
        batch = [ExperienceTuple(g, features, np.ones(4, np.int8), rho, 0.5)]
        loss, grads = batch_gradients(config, params, batch)
        want = backward(params, cache, loss_gradient(u, rho))
        assert loss == pytest.approx(rms_loss(u, rho))
        assert np.allclose(grads.theta0[0], want.theta0[0])
        assert np.allclose(grads.theta1[0], want.theta1[0])

    def test_recompute_unscheduled_zeroes_drift(self):
        # after params drift, frozen targets give unscheduled nodes a pull;
        # the recompute switch removes it exactly
        g = generate_star(3)
        lap = normalized_laplacian(g)
        features = np.array([[2.0], [1.0], [1.0], [1.0]])
        old = identity_params()
        u_old, _ = forward(old, lap, features)
        indicator = np.array([False, True, True, True])
        rho = compute_reward(1.5, indicator, u_old, "heaviside")
        batch = [ExperienceTuple(g, features, indicator, rho, 1.5)]
        drifted = identity_params()
        drifted.theta0[0][0, 0] = 1.25
        frozen_cfg = small_config()
        recompute_cfg = small_config(recompute_unscheduled=True)
        _, g_frozen = batch_gradients(frozen_cfg, drifted, batch)
        _, g_recompute = batch_gradients(recompute_cfg, drifted, batch)
        assert g_frozen.theta0[0].any()
        # with recomputation only scheduled nodes feed the gradient
        u_new, cache = forward(drifted, lap, features)
        target = np.where(indicator, rho, u_new)
        want = backward(drifted, cache, loss_gradient(u_new, target))
        assert np.allclose(g_recompute.theta0[0], want.theta0[0])


class TestTrain:
    def test_zero_episodes_returns_init(self):
        config = small_config(episodes=0)
        result = train(config)
        master = np.random.default_rng(config.seed)
        expected = init_params(config.layer_dims,
                               np.random.default_rng(master.integers(2**63)))
        assert np.array_equal(result.params.theta0[0], expected.theta0[0])
        assert np.array_equal(result.params.theta1[0], expected.theta1[0])
        assert result.log == []

    def test_deterministic(self):
        a = train(small_config(episodes=3))
        b = train(small_config(episodes=3))
        assert np.array_equal(a.params.theta0[0], b.params.theta0[0])
        assert np.array_equal(a.params.theta1[0], b.params.theta1[0])
        assert a.log == b.log

    def test_log_columns(self):
        result = train(small_config(episodes=3))
        assert len(result.log) == 3
        for row in result.log:
            assert set(row) == {"episode", "loss", "win_rate", "lr",
                                "graph_model"}
            assert 0.0 <= row["win_rate"] <= 1.0

    def test_identity_init_win_rate_one(self):
        config = small_config(episodes=2, init="identity")
        result = train(config)
        assert result.win_rate() == 1.0

    def test_lr_decays(self):
        config = small_config(episodes=3, lr_decay=0.5, base_lr=0.1)
        result = train(config)
        assert [row["lr"] for row in result.log] == [0.1, 0.05, 0.025]

    def test_regression_sanity(self):
        # frozen synthetic batch with fixed targets drawn from a reachable
        # ground truth: repeated optimizer steps drive the loss toward zero
        config = small_config()
        g = generate_star(5)
        lap = normalized_laplacian(g)
        rng = np.random.default_rng(1)
        batch = []
        for _ in range(8):
            features = rng.random((6, 1)) * 4
            target = 2.0 * features[:, 0] - 0.5 * (lap @ features)[:, 0]
            batch.append(ExperienceTuple(g, features, np.ones(6, np.int8),
                                         target, 1.0))
        params = init_params((1, 1), 3)
        state = AdamState.for_params(params, base_lr=0.05, decay=1.0)
        first = batch_gradients(config, params, batch)[0]
        losses = []
        for _ in range(500):
            loss, grads = batch_gradients(config, params, batch)
            losses.append(loss)
            adam_step(params, grads, state)
        final = batch_gradients(config, params, batch)[0]
        assert final < first
        assert final < 0.05

    def test_graph_mix_validation(self):
        with pytest.raises(ValueError):
            small_config(graph_mix=(("star5", 0.5),)).validate()
        with pytest.raises(ValueError):
            small_config(graph_mix=(("nonsense", 1.0),)).validate()

    @pytest.mark.parametrize("overrides, message", [
        pytest.param(dict(checkpoint_interval=-1), "checkpoint interval",
                     id="checkpoint_interval"),
        pytest.param(dict(base_lr=float("nan")), "base_lr", id="base_lr"),
        pytest.param(dict(lr_decay=float("inf")), "lr_decay", id="lr_decay"),
        pytest.param(dict(leaky_slope=-float("inf")), "leaky_slope",
                     id="leaky_slope"),
        pytest.param(dict(graph_mix=(("star5", float("nan")),)), "sum to nan",
                     id="graph_mix-nan"),
    ])
    def test_validate_refuses(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(**overrides).validate()

    def test_arrival_rate_is_generates(self, monkeypatch):
        # training draws traffic as generate does: at rate mu * RATE_MEAN
        seen = []
        monkeypatch.setattr(train_module, "sample_traffic",
                            lambda graph, steps, rate, rng: seen.append(rate))
        sample_instance(small_config(loads=(0.04,)), np.random.default_rng(8))
        assert seen == [0.04 * RATE_MEAN]

    def test_checkpoints_written(self, tmp_path):
        config = small_config(episodes=4, checkpoint_interval=2)
        train(config, checkpoint_dir=tmp_path)
        assert (tmp_path / "checkpoint_ep00002.ckpt").exists()
        assert (tmp_path / "checkpoint_ep00004.ckpt").exists()
