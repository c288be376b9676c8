import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksched.cli import main
from linksched.gcn import (AdamState, Gradients, adam_step, backward, forward,
                           identity_params, init_params, load_checkpoint)
from linksched.graph import generate_er, generate_star, normalized_laplacian
from linksched import sim
from linksched.policies import GcnLgsPolicy, SolverPolicy
from linksched.presets import parse_graph_config
from linksched import train as train_module
from linksched.sim import RATE_MEAN, TrafficTrace, run_episode, sample_traffic
from linksched.solvers import baseline_utility, greedy_centralized, lgs_rows
from linksched.train import (ExperienceTuple, TrainConfig, batch_gradients,
                             collect_episode, compute_reward, loss_gradient,
                             resolve_mix, rms_loss, sample_instance, train)


def small_config(**overrides):
    base = dict(episodes=4, horizon=8, lookahead=2, batch_size=8,
                replay_capacity=64, graph_mix=(("star5", 1.0),),
                loads=(0.05,), seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def reference_batch_gradients(params, batch):
    """The item-by-item loop ``batch_gradients`` replaced, kept as the
    reference: one forward and one backward per item, the loss and its
    gradient from ``np.linalg.norm``, and the sums in batch order."""
    grads = Gradients.zeros_like(params)
    total = 0.0
    for item in batch:
        u, cache = forward(params, item.graph.laplacian, item.features)
        diff = u - item.returns
        norm = np.linalg.norm(diff)
        total += float(norm / math.sqrt(u.size))
        out_grad = (np.zeros_like(diff) if norm == 0.0
                    else diff / (norm * math.sqrt(u.size)))
        contribution = backward(params, cache, out_grad / len(batch))
        for acc, g in zip(grads.theta0 + grads.theta1,
                          contribution.theta0 + contribution.theta1):
            acc += g
    return total / len(batch), grads


def sampled_episode(config, params, seed):
    _, graph, trace = sample_instance(config, np.random.default_rng(seed))
    return collect_episode(config, params, graph, trace)


class TestComputeReward:
    def test_heaviside_win(self):
        rho = compute_reward(1.2, [1, 0], [0.7, 0.3])
        assert rho.tolist() == [1.0, 0.3]

    def test_heaviside_loss(self):
        rho = compute_reward(0.8, [1, 1], [0.7, 0.3])
        assert rho.tolist() == [0.0, 0.0]

    def test_tie_counts_as_win(self):
        rho = compute_reward(1.0, [1], [5.0])
        assert rho.tolist() == [1.0]

    def test_stack_equals_rows(self):
        ratios = np.array([0.0, 1.0, 3.0, np.inf])
        indicators = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [1, 0, 0]],
                              dtype=np.int8)
        u = np.random.default_rng(0).normal(size=indicators.shape)
        stacked = compute_reward(ratios, indicators, u)
        rows = [compute_reward(float(ratio), ind, uu)
                for ratio, ind, uu in zip(ratios, indicators, u)]
        assert stacked.shape == indicators.shape
        for got, want in zip(stacked, rows):
            assert got.tobytes() == want.tobytes()


class TestLoss:
    def test_zero_at_target(self):
        assert rms_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_example(self):
        assert rms_loss([1.0, 0.0], [0.0, 0.0]) == pytest.approx(2 ** -0.5)

    def test_unscheduled_contribute_nothing(self):
        u = np.array([3.0, -1.0, 2.0])
        rho = compute_reward(2.0, [1, 0, 0], u)
        # only the scheduled entry differs from u
        assert rms_loss(u, rho) == pytest.approx(abs(u[0] - 1.0) / np.sqrt(3))

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

    def test_rows_bitwise_equal_unbatched(self):
        # rows of all kinds: zero norm, one entry off, entries whose squares
        # underflow to a zero norm, and rows too long for one SIMD block
        rng = np.random.default_rng(3)
        for n in (1, 2, 31, 70):
            u = rng.normal(scale=1e3, size=(6, n))
            rho = u.copy()
            rho[1, 0] += 1.0
            u[2], rho[2] = 0.0, 1e-170
            rho[3:] = rng.normal(size=(3, n))
            losses = rms_loss(u, rho)
            grads = loss_gradient(u, rho)
            assert losses.shape == (6,) and grads.shape == (6, n)
            for loss, grad, uu, rr in zip(losses, grads, u, rho):
                norm = np.linalg.norm(uu - rr)
                assert loss == rms_loss(uu, rr) == norm / math.sqrt(n)
                assert grad.tobytes() == loss_gradient(uu, rr).tobytes()
            assert losses[0] == losses[2] == 0.0
            assert grads[2].tobytes() == np.zeros(n).tobytes()


def reference_episode(config, params, graph, trace):
    # plain loops: the main trajectory, and from each of its start states
    # both policies rolled k slots with an explicit q - min(r, q) + a
    gcn = GcnLgsPolicy(params)
    baseline = SolverPolicy("lgs")

    def schedule(policy, q, t):
        # both policies schedule with LGS, here on one row: the LGS oracle
        # for training's greedy main trajectory
        u = policy.utilities(graph, baseline_utility(q, trace.rates[t]))
        return lgs_rows(graph, u[None])[0][0]

    def slot(q, members, t):
        q = q.copy()
        for v in np.flatnonzero(members):
            q[v] -= min(trace.rates[t][v], q[v])
        return q + trace.arrivals[t]

    def rollout_total(policy, q, t):
        total = 0
        for i in range(config.lookahead):
            q = slot(q, schedule(policy, q, t + i), t + i)
            total += int(q.sum())
        return total

    q = np.zeros(graph.node_count, dtype=np.int64)
    out = []
    for t in range(config.horizon):
        r = trace.rates[t]
        features = baseline_utility(q, r)[:, None]
        u = gcn.utilities(graph, baseline_utility(q, r))
        indicator = schedule(gcn, q, t)
        policy_total = rollout_total(gcn, q, t)
        baseline_total = rollout_total(baseline, q, t)
        if policy_total == 0:
            ratio = 1.0 if baseline_total == 0 else float("inf")
        else:
            ratio = baseline_total / policy_total
        out.append((features, indicator,
                    compute_reward(ratio, indicator, u), ratio))
        q = slot(q, indicator, t)
    return out


class TestCollectEpisode:
    @pytest.mark.parametrize("overrides", [
        # the one reward (a unit step at ratio 1) on backlog x rate features
        pytest.param(dict(), id="heaviside-product"),
        # the edges of the window arithmetic: one rollout step, and a
        # lookahead that reaches past twice the horizon
        pytest.param(dict(lookahead=1), id="lookahead-1"),
        pytest.param(dict(horizon=3, lookahead=7),
                     id="lookahead-past-horizon"),
        pytest.param(dict(init="identity", layer_dims=(1, 1)),
                     id="identity-init")])
    def test_matches_plain_loop_rollouts(self, overrides):
        config = small_config(**(dict(
            horizon=20, lookahead=4, layer_dims=(1, 4, 1),
            graph_mix=(("star8", 0.5), ("er", 0.5)), loads=(0.08,))
            | overrides))
        ratios = []
        for seed in range(4):
            params = train_module.initial_params(config, seed)
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
        if config.init == "identity":  # the GCN is the baseline
            assert set(ratios) == {1.0}
        else:  # the rollouts must have told the policies apart somewhere
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
        # the main trajectory runs evaluation's per-slot checks on its
        # greedy schedules
        config = small_config()
        params = init_params(config.layer_dims, 0)
        monkeypatch.setattr(sim, "greedy_centralized",
                            lambda graph, u: np.ones(np.shape(u), bool))
        with pytest.raises(ValueError, match="independent"):
            sampled_episode(config, params, 1)

    def test_lookahead_slots_checked(self, monkeypatch):
        # the GCN's lookahead future is the main trajectory, run with
        # evaluation's checks past the horizon: a stand-in solver that
        # breaks independence only in a lookahead slot is refused, naming
        # that slot, once every slot is solved
        config = small_config(horizon=6, lookahead=3)
        params = init_params(config.layer_dims, 0)
        calls = []

        def late_conflict(graph, u):
            calls.append(u)
            members = greedy_centralized(graph, u)
            if len(calls) > config.horizon:
                members[:] = True
            return members
        monkeypatch.setattr(sim, "greedy_centralized", late_conflict)
        with pytest.raises(ValueError, match=f"slot {config.horizon}: .* "
                           "independent"):
            sampled_episode(config, params, 1)
        assert len(calls) == config.horizon + config.lookahead - 1

    def test_main_trajectory_matches_run_episode(self):
        # the trainer and the simulator share one queue update, and the
        # trainer's greedy solves schedule what evaluation's LGS does, on
        # glorot utilities of both signs
        config = small_config(horizon=24, lookahead=3)
        params = init_params(config.layer_dims, 8)  # theta0 < 0 < theta1
        for g in (generate_er(12, 0.3, 4),
                  *(parse_graph_config(name).build(4)
                    for name in ("star30", "ba-m2"))):
            drawn = sample_traffic(g, config.horizon + config.lookahead,
                                   20.0, 5)
            trace = TrafficTrace(drawn.arrivals, np.maximum(drawn.rates, 1))
            tuples = collect_episode(config, params, g, trace)
            result, = run_episode(g, [GcnLgsPolicy(params)], trace,
                                  steps=config.horizon)
            assert result.rounds is not None  # solved by LGS
            assert (result.utilities < 0).any()
            assert result.queues.max() > 0
            assert np.array_equal([item.indicator for item in tuples],
                                  result.members)
            for t, item in enumerate(tuples):
                # rates are at least 1, so the q * r features pin the queues
                assert np.array_equal(item.features[:, 0],
                                      result.queues[t] * trace.rates[t])


class TestBatchGradients:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(1, 1), (1, 4, 1)]),
           size=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @example(dims=(1, 1), size=1, seed=0)
    @example(dims=(1, 4, 1), size=1, seed=1)
    def test_bitwise_equal_to_item_loop(self, dims, size, seed):
        # items of 6, 11 and n nodes from real episodes, all three sizes in
        # any batch of three or more, replayed under parameters that moved
        # since collection; one item's returns are the new utilities, so
        # its norm is 0
        rng = np.random.default_rng(seed)
        config = small_config(horizon=6, layer_dims=dims)
        collected = init_params(dims, rng)
        episodes = []
        for g in (generate_star(5), generate_star(10),
                  generate_er(int(rng.choice([1, 2, 4, 13, 19])), 0.3, rng)):
            trace = sample_traffic(g, config.horizon + config.lookahead,
                                   20.0, rng)
            episodes.append(collect_episode(config, collected, g, trace))
        params = init_params(dims, rng)
        pool = [item for items in episodes for item in items]
        batch = [items[int(rng.integers(len(items)))]
                 for items in episodes][:size]
        batch += [pool[i] for i in rng.choice(len(pool), size - len(batch))]
        rng.shuffle(batch)
        k = int(rng.integers(size))
        fit = batch[k]
        u, _ = forward(params, fit.graph.laplacian, fit.features)
        batch[k] = ExperienceTuple(fit.graph, fit.features, fit.indicator, u,
                                   fit.ratio)
        loss, grads = batch_gradients(params, batch)
        want_loss, want = reference_batch_gradients(params, batch)
        assert type(loss) is float and loss == want_loss
        for got, ref in zip(grads.theta0 + grads.theta1,
                            want.theta0 + want.theta1):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_batch_spans_node_counts(self, monkeypatch):
        # one forward and one backward for each node count in the batch
        config = small_config(graph_mix=(("star5", 0.4), ("star10", 0.3),
                                         ("ba-m2", 0.3)))
        params = init_params(config.layer_dims, 0)
        batch = [item for seed in range(6)
                 for item in sampled_episode(config, params, seed)]
        counts = {item.graph.node_count for item in batch}
        assert len(counts) == 3
        calls = []
        for name, real in (("forward", forward), ("backward", backward)):
            def counted(*args, name=name, real=real):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(train_module, name, counted)
        batch_gradients(params, batch)
        assert calls == ["forward", "backward"] * 3

    def test_zero_loss_fixpoint(self):
        # when u already equals rho everywhere the Adam step is a no-op
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
        loss, grads = batch_gradients(params, batch)
        assert loss == 0.0
        assert not any(t.any() for t in grads.theta0 + grads.theta1)
        state = AdamState.for_params(params)
        adam_step(params, grads, state)
        assert params.theta0[0].item() == 1.0
        assert params.theta1[0].item() == 0.0

    def test_gradient_matches_manual_chain(self):
        params = identity_params()
        g = generate_star(3)
        lap = normalized_laplacian(g)
        features = np.array([[2.0], [1.0], [1.0], [1.0]])
        u, cache = forward(params, lap, features)
        rho = np.zeros(4)
        batch = [ExperienceTuple(g, features, np.ones(4, np.int8), rho, 0.5)]
        loss, grads = batch_gradients(params, batch)
        want = backward(params, cache, loss_gradient(u, rho))
        assert loss == pytest.approx(rms_loss(u, rho))
        assert np.allclose(grads.theta0[0], want.theta0[0])
        assert np.allclose(grads.theta1[0], want.theta1[0])


class TestTrain:
    def test_zero_episodes_returns_init(self, tmp_path):
        config = small_config(episodes=0)
        result = train(config, tmp_path)
        master = np.random.default_rng(config.seed)
        expected = init_params(config.layer_dims,
                               np.random.default_rng(master.integers(2**63)))
        assert np.array_equal(result.params.theta0[0], expected.theta0[0])
        assert np.array_equal(result.params.theta1[0], expected.theta1[0])
        assert result.log == []
        assert (tmp_path / "checkpoint.ckpt").exists()

    def test_deterministic(self, tmp_path):
        a = train(small_config(episodes=3), tmp_path / "a")
        b = train(small_config(episodes=3), tmp_path / "b")
        assert np.array_equal(a.params.theta0[0], b.params.theta0[0])
        assert np.array_equal(a.params.theta1[0], b.params.theta1[0])
        assert a.log == b.log
        assert (tmp_path / "a" / "checkpoint.ckpt").read_bytes() == \
            (tmp_path / "b" / "checkpoint.ckpt").read_bytes()

    def test_replay_window(self, tmp_path, monkeypatch):
        # the replay window is a FIFO of the last replay_capacity slots, and
        # each batch draws min(batch_size, window) of them without
        # replacement, from its episode's batch generator, in window order
        config = small_config(episodes=3, horizon=4, replay_capacity=5,
                              batch_size=8)
        collected, batches = [], []
        collect, gradients = collect_episode, batch_gradients

        def recording_collect(*args):
            collected.extend(collect(*args))
            return collected[-config.horizon:]

        def recording_gradients(params, batch):
            batches.append(list(batch))
            return gradients(params, batch)

        monkeypatch.setattr(train_module, "collect_episode", recording_collect)
        monkeypatch.setattr(train_module, "batch_gradients",
                            recording_gradients)
        train(config, tmp_path)
        master = np.random.default_rng(config.seed)
        master.integers(2**63)  # the initial parameters' draw
        assert len(batches) == config.episodes
        for k, batch in enumerate(batches):
            master.integers(2**63)  # episode k's instance
            batch_rng = np.random.default_rng(master.integers(2**63))
            n = min(5, 4 * (k + 1))
            window = collected[4 * (k + 1) - n:4 * (k + 1)]
            picks = batch_rng.choice(n, size=min(8, n), replace=False)
            assert len(batch) == min(8, n)
            assert len({id(item) for item in batch}) == len(batch)
            assert all(got is window[i] for got, i in zip(batch, picks))

    def test_non_finite_loss_aborts_with_diagnostic(self, tmp_path,
                                                     monkeypatch):
        # a NaN batch loss at episode 2 stops the run before its Adam step:
        # diagnostic.ckpt holds the parameters after episodes 0 and 1,
        # those a 2-episode run ends with, and no checkpoint.ckpt is written
        train(small_config(episodes=2), tmp_path / "two")
        gradients, calls = batch_gradients, []

        def nan_at_episode_2(params, batch):
            loss, grads = gradients(params, batch)
            calls.append(loss)
            return (float("nan") if len(calls) == 3 else loss), grads

        monkeypatch.setattr(train_module, "batch_gradients", nan_at_episode_2)
        with pytest.raises(RuntimeError, match="non-finite loss at episode 2;"):
            train(small_config(episodes=4), tmp_path / "nan")
        assert len(calls) == 3
        assert (tmp_path / "nan" / "diagnostic.ckpt").read_bytes() == \
            (tmp_path / "two" / "checkpoint.ckpt").read_bytes()
        assert not (tmp_path / "nan" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_non_finite_step_aborts_with_diagnostic(self, tmp_path, episodes,
                                                    capsys):
        # at this learning rate the first Adam step would overflow the
        # parameters: the run stops there, whatever its length, writes the
        # parameters it started from, those a 0-episode run ends with, to
        # diagnostic.ckpt, and exits 1 through the CLI; no checkpoint.ckpt
        # is written, so none is left that load_checkpoint refuses
        def config(episodes):
            return TrainConfig(graph_mix=(("star5", 1.0),), loads=(0.5,),
                               base_lr=1e308, episodes=episodes)
        train(config(0), tmp_path / "zero")
        with pytest.raises(RuntimeError, match=re.escape(
                "optimizer step would make a parameter non-finite at "
                "episode 0; diagnostic checkpoint written")):
            train(config(episodes), tmp_path / "run")
        diagnostic = tmp_path / "run" / "diagnostic.ckpt"
        assert diagnostic.read_bytes() == \
            (tmp_path / "zero" / "checkpoint.ckpt").read_bytes()
        load_checkpoint(diagnostic)
        assert not (tmp_path / "run" / "checkpoint.ckpt").exists()
        conf = tmp_path / "big.cfg"
        conf.write_text("graph_mix = star5:1\nloads = 0.5\n"
                        "base_lr = 1e308\n")
        assert main(["train", "--config", str(conf), "--episodes",
                     str(episodes), "--out", str(tmp_path / "cli")]) == 1
        assert capsys.readouterr().err == (
            "error: optimizer step would make a parameter non-finite at "
            "episode 0; diagnostic checkpoint written\n")
        load_checkpoint(tmp_path / "cli" / "diagnostic.ckpt")
        assert not (tmp_path / "cli" / "checkpoint.ckpt").exists()

    def test_log_columns(self, tmp_path):
        result = train(small_config(episodes=3), tmp_path)
        assert len(result.log) == 3
        for row in result.log:
            assert set(row) == {"episode", "loss", "win_rate", "lr",
                                "graph_model"}
            assert 0.0 <= row["win_rate"] <= 1.0

    def test_identity_init_win_rate_one(self, tmp_path):
        config = small_config(episodes=2, init="identity")
        result = train(config, tmp_path)
        assert result.win_rate() == 1.0

    def test_lr_decays(self, tmp_path):
        config = small_config(episodes=3, lr_decay=0.5, base_lr=0.1)
        result = train(config, tmp_path)
        assert [row["lr"] for row in result.log] == [0.1, 0.05, 0.025]

    def test_regression_sanity(self):
        # frozen synthetic batch with fixed targets drawn from a reachable
        # ground truth: repeated optimizer steps drive the loss toward zero
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
        first = batch_gradients(params, batch)[0]
        losses = []
        for _ in range(500):
            loss, grads = batch_gradients(params, batch)
            losses.append(loss)
            adam_step(params, grads, state)
        final = batch_gradients(params, batch)[0]
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
        # one input feature per link, one utility out, no empty layer
        pytest.param(dict(layer_dims=(2, 1)), "layer_dims", id="layer_dims-2,1"),
        pytest.param(dict(layer_dims=(1, 3)), "layer_dims", id="layer_dims-1,3"),
        pytest.param(dict(layer_dims=(1,)), "layer_dims", id="layer_dims-1"),
        pytest.param(dict(layer_dims=(1, 0, 1)), "layer_dims",
                     id="layer_dims-1,0,1"),
        pytest.param(dict(graph_mix=(("star5", float("nan")),)), "sum to nan",
                     id="graph_mix-nan"),
        # a batch shrinks to the replay window, but neither may be empty
        pytest.param(dict(batch_size=0), "batch size and replay capacity "
                     "must be positive", id="batch_size"),
        pytest.param(dict(replay_capacity=0), "batch size and replay "
                     "capacity must be positive", id="replay_capacity"),
    ])
    def test_validate_refuses(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(**overrides).validate()

    def test_star_built_once_per_run(self, tmp_path, monkeypatch):
        # a run resolves its mix once: every star30 episode trains on one
        # graph, a second run builds its own, and a BA family draws a new
        # graph each time; the draws and the outputs are those of
        # resolving the mix on every draw
        config = small_config(episodes=8, graph_mix=(("star30", 0.5),
                                                     ("ba-m2", 0.5)))
        seen = []
        collect = train_module.collect_episode

        def recorded(config, params, graph, trace):
            seen.append((graph.node_count, graph))
            return collect(config, params, graph, trace)
        monkeypatch.setattr(train_module, "collect_episode", recorded)
        runs = [train(config, tmp_path / name) for name in ("a", "b")]
        stars = [[g for n, g in seen[k:k + 8] if n == 31] for k in (0, 8)]
        bas = [g for n, g in seen if n == 70]
        assert len(stars[0]) >= 2 and len(bas) >= 2
        for run in stars:
            assert all(g is run[0] for g in run)
        assert stars[0][0] is not stars[1][0]
        assert len({id(g) for g in bas}) == len(bas)
        assert runs[0].log == runs[1].log
        families = resolve_mix(config)
        for seed in range(6):
            once = sample_instance(config, np.random.default_rng(seed),
                                   families)
            fresh = sample_instance(config, np.random.default_rng(seed))
            assert once[0] == fresh[0]
            assert np.array_equal(once[1].edge_array(),
                                  fresh[1].edge_array())
            assert once[2].checksum() == fresh[2].checksum()

    def test_star_family_builds_afresh_outside_a_run(self):
        # no process-wide cache: parsing a star twice, or building it
        # twice, gives new graphs; only a run's resolved family reuses one
        star = parse_graph_config("star30")
        assert star.fixed and not parse_graph_config("ba-m2").fixed
        assert star.build(0) is not star.build(1)
        assert parse_graph_config("star30").build(0) is not star.build(0)
        once = star.for_run()
        assert once.build(0) is once.build(1)
        assert once.build(0) is not star.for_run().build(0)
        ba = parse_graph_config("ba-m2")
        assert ba.for_run() is ba

    def test_arrival_rate_is_generates(self, monkeypatch):
        # training draws traffic as generate does: at rate mu * RATE_MEAN
        seen = []
        monkeypatch.setattr(train_module, "sample_traffic",
                            lambda graph, steps, rate, rng: seen.append(rate))
        sample_instance(small_config(loads=(0.04,)), np.random.default_rng(8))
        assert seen == [0.04 * RATE_MEAN]

    def test_checkpoints_written(self, tmp_path):
        config = small_config(episodes=4, checkpoint_interval=2)
        train(config, tmp_path)
        assert (tmp_path / "checkpoint_ep00002.ckpt").exists()
        assert (tmp_path / "checkpoint_ep00004.ckpt").exists()
