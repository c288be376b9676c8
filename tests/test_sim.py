import re
import warnings

import numpy as np
import pytest

from linksched.graph import ConflictGraph, generate_er, generate_star
from linksched.policies import SolverPolicy
from linksched.sim import (TrafficTrace, backlog_stats, compute_metrics,
                           load_trace, lookahead_compare, run_episode,
                           sample_traffic, save_trace, steady_state_mean)
from linksched.solvers import Schedule, greedy_centralized, lgs


def constant_trace(horizon, nodes, arrival=1, rate=2):
    return TrafficTrace(np.full((horizon, nodes), arrival, dtype=np.int64),
                        np.full((horizon, nodes), rate, dtype=np.int64))


def one_slot(graph, q0, nodes, arrivals, rates):
    """Queues after one run_episode slot under a fixed schedule."""
    members = np.zeros(graph.node_count, dtype=bool)
    members[list(nodes)] = True
    trace = TrafficTrace(np.array([arrivals]), np.array([rates]))
    result = run_episode(graph, lambda g, q, r: Schedule(members), trace,
                         q0=q0)
    assert result.queues.shape == (2, graph.node_count)
    assert np.array_equal(result.members, [members])
    assert result.rounds == [None]
    return result.queues[1]


class TestStep:
    def test_star_transition(self):
        q = one_slot(generate_star(5), [2, 1, 1, 1, 1, 1], {0},
                     np.ones(6, int), np.full(6, 2))
        assert q.tolist() == [1, 2, 2, 2, 2, 2]

    def test_empty_queue_noop(self):
        path = ConflictGraph.from_edges(3, [(0, 1), (1, 2)])
        q = one_slot(path, np.zeros(3, int), {0, 2}, np.zeros(3, int),
                     np.full(3, 5))
        assert not q.any()

    def test_service_clamped_by_queue(self):
        q = one_slot(ConflictGraph.from_edges(1, []), [1], {0}, [1], [2])
        assert q.tolist() == [1]

    def test_non_independent_schedule_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            one_slot(generate_star(5), np.ones(6, int), {0, 1},
                     np.ones(6, int), np.full(6, 2))

    def test_schedule_must_be_a_bool_mask(self):
        # node IDs, int8 masks and 2-D masks are not schedules
        for members in (np.array([0, 2]), np.array([1, 0, 1], np.int8),
                        np.zeros((1, 6), bool), [True] * 6):
            with pytest.raises(ValueError, match="1-D bool mask"):
                Schedule(members)
        # a bool mask cannot name a node outside the graph, but it can have
        # the wrong length
        g = generate_star(5)
        for n in (5, 7):
            with pytest.raises(ValueError, match="does not match 6 nodes"):
                run_episode(g, lambda graph, q, r: Schedule(np.zeros(n, bool)),
                            constant_trace(1, 6))

    @pytest.mark.parametrize("node", [-1, 6])
    def test_out_of_range_schedule_rejected(self, node):
        # node IDs are not a schedule, so a negative ID cannot wrap around to
        # the last link and an ID past the graph cannot reach run_episode
        with pytest.raises(ValueError, match="1-D bool mask"):
            Schedule(np.array([2, node]))
        with pytest.raises(ValueError, match="1-D bool mask"):
            run_episode(generate_star(5),
                        lambda g, q, r: Schedule(np.array([2, node])),
                        constant_trace(1, 6))

    def test_negative_arrivals_rejected(self):
        # the trace checks its arrivals once, so no slot can see a negative
        with pytest.raises(ValueError, match="non-negative"):
            one_slot(ConflictGraph.from_edges(2, []), np.ones(2, int), set(),
                     [-1, 0], np.ones(2, int))


class TestTrafficTrace:
    def test_arrays_read_only(self):
        trace = constant_trace(3, 2)
        with pytest.raises(ValueError):
            trace.arrivals[0, 0] = 5
        with pytest.raises(ValueError):
            trace.rates[1] = 0
        assert trace.rates[1:3].flags.writeable is False

    def test_source_array_copied(self):
        arrivals = np.ones((2, 3), dtype=np.int64)
        rates = np.full((2, 3), 4, dtype=np.int64)
        trace = TrafficTrace(arrivals, rates)
        arrivals[:] = -1
        rates[:] = 0
        assert (trace.arrivals == 1).all() and (trace.rates == 4).all()
        assert arrivals.flags.writeable and rates.flags.writeable


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
        assert result.members.shape == (20, 12) and len(result.rounds) == 20

    def test_conservation(self):
        g = generate_er(15, 0.2, 2)
        trace = sample_traffic(g, 30, 3.0, 3)
        result = run_episode(g, SolverPolicy(lgs), trace)
        for t, members in enumerate(result.members):
            served = np.zeros(15, dtype=np.int64)
            for v in np.flatnonzero(members):
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
        assert np.array_equal(a.members, b.members) and a.rounds == b.rounds

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
        q0 = np.arange(10, dtype=np.int64)
        ratio = lookahead_compare(g, q0[None], SolverPolicy(lgs).utilities,
                                  SolverPolicy(lgs).utilities, 4, trace)[0]
        assert ratio == 1.0

    def test_ratio_matches_independent_rollout(self):
        # replicate both rollouts with plain loops and compare the ratio
        g = generate_star(4)
        trace = sample_traffic(g, 6, 1.5, 2)
        q0 = np.array([3, 1, 0, 2, 1], dtype=np.int64)
        pol_a = SolverPolicy(lgs)
        pol_b = SolverPolicy(lgs, "queue")

        def oracle_total(policy, k):
            q = q0.copy()
            total = 0
            for i in range(k):
                sched = policy(g, q, trace.rates[i])
                for v in np.flatnonzero(sched.members):
                    q[v] -= min(trace.rates[i][v], q[v])
                q = q + trace.arrivals[i]
                total += q.sum()
            return total

        k = 3
        want = oracle_total(pol_b, k) / oracle_total(pol_a, k)
        assert lookahead_compare(g, q0[None], pol_a.utilities,
                                 pol_b.utilities, k, trace)[0] == want

    def test_zero_over_zero_is_one(self):
        g = generate_star(3)
        trace = constant_trace(5, 4, arrival=0)
        q0 = np.zeros((1, 4), dtype=np.int64)
        assert lookahead_compare(g, q0, SolverPolicy(lgs).utilities,
                                 SolverPolicy(greedy_centralized).utilities, 3,
                                 trace)[0] == 1.0

    def test_state_not_mutated(self):
        g = generate_star(3)
        trace = sample_traffic(g, 5, 2.0, 3)
        q = np.array([5, 1, 2, 0], dtype=np.int64)
        lookahead_compare(g, q[None], SolverPolicy(lgs).utilities,
                          SolverPolicy(greedy_centralized).utilities, 3, trace)
        assert q.tolist() == [5, 1, 2, 0]

    def test_row_conventions(self):
        # K2, no arrivals: the policy always picks node 0, the baseline node 1
        g = ConflictGraph.from_edges(2, [(0, 1)])
        starts = np.array([[1, 0], [0, 0], [3, 1], [0, 2]], dtype=np.int64)
        k = 2
        trace = constant_trace(len(starts) + k - 1, 2, arrival=0, rate=5)

        def prefer(node):
            return lambda graph, q, r: np.tile(np.eye(2)[node], (len(q), 1))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratios = lookahead_compare(g, starts, prefer(0), prefer(1), k,
                                       trace)
        # x/0 is inf, 0/0 is 1.0, then 6/2 and 0/4
        assert ratios.tolist() == [float("inf"), 1.0, 3.0, 0.0]
        with pytest.raises(ValueError):
            lookahead_compare(g, starts, prefer(0), prefer(1), k,
                              TrafficTrace(trace.arrivals[:-1],
                                           trace.rates[:-1]))

    def test_bad_k(self):
        g = generate_star(3)
        trace = constant_trace(5, 4)
        q0 = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            lookahead_compare(g, q0, SolverPolicy(lgs).utilities,
                              SolverPolicy(lgs).utilities, 0, trace)
        with pytest.raises(ValueError):
            lookahead_compare(g, q0, SolverPolicy(lgs).utilities,
                              SolverPolicy(lgs).utilities, 9, trace)


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
        loaded = load_trace(path, 6)
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
        # 10^22 rows cannot fit in the file: refused before allocating
        pytest.param({0: "# seed=1 nodes=100000000000 horizon=100000000000"},
                     1, id="meta-oversized"),
        pytest.param({0: "# seed=1 nodes=2 horizon=100000000000000000000000"},
                     1, id="meta-horizon-oversized"),
        pytest.param({0: "# seed=1 nodes=3 horizon=2"}, 1,
                     id="meta-nodes-mismatch"),
        # fields outside int64, or negative, are refused at their line
        pytest.param({2: "0,0,100000000000000000000000,5"}, 3,
                     id="arrival-overflow"),
        pytest.param({3: "0,1,0,9223372036854775808"}, 4, id="rate-overflow"),
        pytest.param({4: "1,0,-1,5"}, 5, id="arrival-negative"),
        pytest.param({5: "1,1,0,-5"}, 6, id="rate-negative"),
    ])
    def test_malformed_trace_rejected(self, tmp_path, edits, line):
        lines = [edits.get(i, text) for i, text in enumerate(self.GOOD_TRACE)]
        path = tmp_path / "trace.csv"
        path.write_text("".join(f"{text}\n" for text in lines
                                if text is not None))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: line {line}:")):
            load_trace(path, 2)
