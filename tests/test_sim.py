import re

import numpy as np
import pytest

from linksched.graph import ConflictGraph, generate_er, generate_star
from linksched.policies import SolverPolicy
from linksched.sim import (NetworkState, TrafficTrace, backlog_stats,
                           compute_metrics, load_trace, lookahead_compare,
                           run_episode, sample_traffic, save_trace,
                           steady_state_mean, step, write_trajectory_csv)
from linksched.solvers import Schedule, greedy_centralized, lgs


def constant_trace(horizon, nodes, arrival=1, rate=2):
    return TrafficTrace(np.full((horizon, nodes), arrival, dtype=np.int64),
                        np.full((horizon, nodes), rate, dtype=np.int64))


class TestStep:
    def test_star_transition(self):
        g = generate_star(5)
        state = NetworkState(np.array([2, 1, 1, 1, 1, 1]),
                             np.full(6, 2), t=0)
        nxt = step(state, Schedule(frozenset({0})), np.ones(6, int),
                   np.full(6, 2), graph=g)
        assert nxt.q.tolist() == [1, 2, 2, 2, 2, 2]
        assert nxt.t == 1

    def test_empty_queue_noop(self):
        state = NetworkState(np.zeros(3, int), np.full(3, 5), t=0)
        nxt = step(state, Schedule(frozenset({0, 2})), np.zeros(3, int),
                   np.full(3, 5))
        assert not nxt.q.any()

    def test_service_clamped_by_queue(self):
        state = NetworkState(np.array([1]), np.array([2]), t=0)
        nxt = step(state, Schedule(frozenset({0})), np.array([1]),
                   np.array([2]))
        assert nxt.q.tolist() == [1]

    def test_non_independent_schedule_rejected(self):
        g = generate_star(5)
        state = NetworkState(np.ones(6, int), np.full(6, 2), t=0)
        with pytest.raises(ValueError):
            step(state, Schedule(frozenset({0, 1})), np.ones(6, int),
                 np.full(6, 2), graph=g)

    def test_negative_arrivals_rejected(self):
        state = NetworkState(np.ones(2, int), np.ones(2, int), t=0)
        with pytest.raises(ValueError):
            step(state, Schedule(frozenset()), np.array([-1, 0]),
                 np.ones(2, int))


class TestSampleTraffic:
    def test_zero_rate_means_no_arrivals(self):
        g = generate_star(3)
        trace = sample_traffic(g, 10, 0.0, 0)
        assert not trace.arrivals.any()

    def test_rates_within_bounds(self):
        g = generate_er(20, 0.1, 0)
        trace = sample_traffic(g, 200, 3.5, 1)
        assert trace.rates.min() >= 0
        assert trace.rates.max() <= 100

    def test_means(self):
        g = generate_er(50, 0.1, 0)
        trace = sample_traffic(g, 2000, 3.5, 2)  # 1e5 draws
        assert np.mean(trace.arrivals) == pytest.approx(3.5, rel=0.05)
        assert np.mean(trace.rates) == pytest.approx(50.0, abs=1.0)

    def test_deterministic_and_seed_recorded(self):
        g = generate_star(4)
        a = sample_traffic(g, 16, 2.0, 7)
        b = sample_traffic(g, 16, 2.0, 7)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.rates, b.rates)
        assert a.seed == 7

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_traffic(generate_star(2), 4, -1.0, 0)


class TestRunEpisode:
    def test_no_traffic(self):
        g = generate_star(5)
        trace = constant_trace(10, 6, arrival=0)
        result = run_episode(g, SolverPolicy(lgs), trace)
        metrics = compute_metrics(result)
        assert metrics.mean == 0 and metrics.objective == 0
        assert metrics.median == 0 and metrics.p95 == 0

    def test_trajectory_shape(self):
        g = generate_er(12, 0.2, 0)
        trace = sample_traffic(g, 20, 2.0, 1)
        result = run_episode(g, SolverPolicy(lgs), trace)
        assert result.queues.shape == (21, 12)
        assert len(result.schedules) == 20

    def test_conservation(self):
        g = generate_er(15, 0.2, 2)
        trace = sample_traffic(g, 30, 3.0, 3)
        result = run_episode(g, SolverPolicy(lgs), trace)
        for t, schedule in enumerate(result.schedules):
            served = np.zeros(15, dtype=np.int64)
            for v in schedule.nodes:
                served[v] = min(trace.rates[t, v], result.queues[t, v])
            assert np.array_equal(result.queues[t + 1] - result.queues[t],
                                  trace.arrivals[t] - served)
        assert (result.queues >= 0).all()

    def test_reproducible(self):
        g = generate_er(10, 0.3, 4)
        trace = sample_traffic(g, 16, 2.5, 5)
        a = run_episode(g, SolverPolicy(lgs), trace)
        b = run_episode(g, SolverPolicy(lgs), trace)
        assert np.array_equal(a.queues, b.queues)
        assert [s.nodes for s in a.schedules] == [s.nodes for s in b.schedules]

    def test_toy_steady_states(self):
        g = generate_star(5)
        trace = constant_trace(128, 6)
        greedy = run_episode(g, SolverPolicy(greedy_centralized, "queue"),
                             trace)
        assert steady_state_mean(greedy, 20) == pytest.approx(1.5, abs=1e-12)


class TestLookahead:
    def test_identical_policies(self):
        g = generate_er(10, 0.3, 0)
        trace = sample_traffic(g, 8, 2.0, 1)
        state = NetworkState(np.arange(10, dtype=np.int64), trace.rates[0])
        ratio = lookahead_compare(g, state, SolverPolicy(lgs),
                                  SolverPolicy(lgs), 4, trace)
        assert ratio == 1.0

    def test_ratio_matches_independent_rollout(self):
        # replicate both rollouts with plain loops and compare the ratio
        g = generate_star(4)
        trace = sample_traffic(g, 6, 1.5, 2)
        q0 = np.array([3, 1, 0, 2, 1], dtype=np.int64)
        pol_a = SolverPolicy(lgs)
        pol_b = SolverPolicy(greedy_centralized, "queue")

        def oracle_total(policy, k):
            q = q0.copy()
            total = 0
            for i in range(k):
                sched = policy(g, q, trace.rates[i])
                for v in sched.nodes:
                    q[v] -= min(trace.rates[i][v], q[v])
                q = q + trace.arrivals[i]
                total += q.sum()
            return total

        k = 3
        want = oracle_total(pol_b, k) / oracle_total(pol_a, k)
        state = NetworkState(q0, trace.rates[0])
        assert lookahead_compare(g, state, pol_a, pol_b, k, trace) == want

    def test_zero_over_zero_is_one(self):
        g = generate_star(3)
        trace = constant_trace(5, 4, arrival=0)
        state = NetworkState(np.zeros(4, dtype=np.int64), trace.rates[0])
        assert lookahead_compare(g, state, SolverPolicy(lgs),
                                 SolverPolicy(greedy_centralized), 3,
                                 trace) == 1.0

    def test_state_not_mutated(self):
        g = generate_star(3)
        trace = sample_traffic(g, 5, 2.0, 3)
        q = np.array([5, 1, 2, 0], dtype=np.int64)
        state = NetworkState(q, trace.rates[0])
        lookahead_compare(g, state, SolverPolicy(lgs),
                          SolverPolicy(greedy_centralized), 3, trace)
        assert state.q.tolist() == [5, 1, 2, 0]

    def test_bad_k(self):
        g = generate_star(3)
        trace = constant_trace(5, 4)
        state = NetworkState(np.zeros(4, dtype=np.int64), trace.rates[0])
        with pytest.raises(ValueError):
            lookahead_compare(g, state, SolverPolicy(lgs),
                              SolverPolicy(lgs), 0, trace)
        with pytest.raises(ValueError):
            lookahead_compare(g, state, SolverPolicy(lgs),
                              SolverPolicy(lgs), 9, trace)


class TestMetrics:
    def test_constant_samples(self):
        mean, median, p95 = backlog_stats(np.full((4, 3), 7.0))
        assert (mean, median, p95) == (7.0, 7.0, 7.0)

    def test_linear_interpolation_percentile(self):
        _, _, p95 = backlog_stats(np.arange(100.0))
        assert p95 == pytest.approx(94.05)

    def test_percentile_ordering(self):
        rng = np.random.default_rng(0)
        m = compute_metrics(run_episode(generate_er(10, 0.3, rng),
                                        SolverPolicy(lgs),
                                        sample_traffic(generate_er(10, 0.3, 0),
                                                       12, 2.0, 1)))
        assert m.p95 >= m.median >= 0
        assert m.rounds_mean is not None and m.rounds_mean >= 1

    def test_monotone_in_load(self):
        # one-sided sign test over 100 seeds: higher arrivals, same rates
        g = generate_er(12, 0.2, 0)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rates = np.rint(np.clip(rng.normal(50, 25, (16, 12)),
                                    0, 100)).astype(np.int64)
            lo = np.random.default_rng(1000 + seed).poisson(1.0, (16, 12))
            hi = np.random.default_rng(2000 + seed).poisson(4.0, (16, 12))
            m_lo = compute_metrics(run_episode(
                g, SolverPolicy(lgs), TrafficTrace(lo, rates)))
            m_hi = compute_metrics(run_episode(
                g, SolverPolicy(lgs), TrafficTrace(hi, rates)))
            wins += m_hi.mean >= m_lo.mean
        assert wins >= 80


class TestPersistence:
    def test_trace_roundtrip(self, tmp_path):
        g = generate_er(6, 0.4, 0)
        trace = sample_traffic(g, 12, 2.0, 9)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.arrivals, trace.arrivals)
        assert np.array_equal(loaded.rates, trace.rates)
        assert loaded.seed == 9
        assert loaded.checksum() == trace.checksum()

    GOOD_TRACE = ["# seed=1 nodes=2 horizon=2", "t,node,arrival,rate",
                  "0,0,1,5", "0,1,0,5", "1,0,2,5", "1,1,0,5"]

    @pytest.mark.parametrize("edits, line", [
        pytest.param({0: "# seed=1 horizon=2"}, 1, id="no-nodes"),
        pytest.param({0: "# seed=1 nodes=2"}, 1, id="no-horizon"),
        pytest.param({0: "# seed=1 nodes=2 horizon=two"}, 1, id="meta-int"),
        pytest.param({0: "# seed=1 nodes=0 horizon=2"}, 1, id="meta-empty"),
        pytest.param({4: "1,0,x,5"}, 5, id="field-int"),
        pytest.param({4: "1,0,2"}, 5, id="short-row"),
        pytest.param({5: "-1,1,0,5"}, 6, id="t-negative"),
        pytest.param({5: "2,1,0,5"}, 6, id="t-at-horizon"),
        pytest.param({3: "0,2,0,5"}, 4, id="node-out-of-range"),
        pytest.param({5: "1,0,0,5"}, 6, id="duplicate"),
        pytest.param({5: None}, 5, id="row-missing"),
    ])
    def test_malformed_trace_rejected(self, tmp_path, edits, line):
        lines = [edits.get(i, text) for i, text in enumerate(self.GOOD_TRACE)]
        path = tmp_path / "trace.csv"
        path.write_text("".join(f"{text}\n" for text in lines
                                if text is not None))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: line {line}:")):
            load_trace(path)

    def test_trajectory_schema(self, tmp_path):
        g = generate_star(2)
        trace = constant_trace(3, 3)
        result = run_episode(g, SolverPolicy(lgs), trace)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,node,q,scheduled"
        assert len(lines) == 1 + 3 * 3
        t, node, q, sched = lines[1].split(",")
        assert (t, node, q) == ("0", "0", "0")
        assert sched in ("0", "1")
