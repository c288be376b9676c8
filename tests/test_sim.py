import csv
import functools
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linksched import policies as policies_module
from linksched import solvers
from linksched.gcn import GcnParams, init_params
from linksched.graph import (ConflictGraph, generate_er, generate_star,
                             is_independent_mask)
from linksched.policies import GcnLgsPolicy, SolverPolicy
from linksched.sim import (TrafficTrace, advance, backlog_stats,
                           compute_metrics, load_trace, lookahead_compare,
                           run_episode, sample_traffic, save_trace,
                           steady_state_mean)
from linksched.solvers import (Schedule, exact_mwis, greedy_centralized, lgs,
                               lgs_rows)


def reference_load_trace(path, nodes):
    """The row-by-row reader ``load_trace`` replaced, kept as the reference
    for its diagnostics: the first bad row in file order, one at a time."""
    with open(path, newline="") as fh:
        meta = dict(part.split("=", 1)
                    for part in fh.readline().strip()[1:].split())
        horizon = int(meta["horizon"])
        if 8 * horizon * nodes > os.fstat(fh.fileno()).st_size:
            raise ValueError(f"{path}: line 1: {horizon} x {nodes} rows "
                             "cannot fit in the file")
        reader = csv.reader(fh)
        assert next(reader) == ["t", "node", "arrival", "rate"]
        size = horizon * nodes
        arrivals, rates, seen = [0] * size, [0] * size, [False] * size
        for row in reader:
            line = reader.line_num + 1
            try:
                t, v, a, r = map(int, row)
            except ValueError:
                raise ValueError(f"{path}: line {line}: expected four "
                                 "integer fields") from None
            if not (0 <= t < horizon and 0 <= v < nodes):
                raise ValueError(f"{path}: line {line}: (t, node) = "
                                 f"({t}, {v}) outside {horizon} x {nodes}")
            if not (0 <= a < 2**63 and 0 <= r < 2**63):
                raise ValueError(f"{path}: line {line}: arrival {a} and "
                                 f"rate {r} must lie in [0, 2**63)")
            cell = t * nodes + v
            if seen[cell]:
                raise ValueError(f"{path}: line {line}: duplicate row for "
                                 f"(t, node) = ({t}, {v})")
            seen[cell] = True
            arrivals[cell], rates[cell] = a, r
        missing = seen.count(False)
        if missing:
            raise ValueError(f"{path}: line {reader.line_num + 1}: "
                             f"{missing} of {size} (t, node) rows missing")
    return TrafficTrace(np.reshape(arrivals, (horizon, nodes)),
                        np.reshape(rates, (horizon, nodes)))


def constant_trace(horizon, nodes, arrival=1, rate=2):
    return TrafficTrace(np.full((horizon, nodes), arrival, dtype=np.int64),
                        np.full((horizon, nodes), rate, dtype=np.int64))


def one_slot(graph, q0, nodes, arrivals, rates):
    """Queues after one run_episode slot under a fixed schedule."""
    members = np.zeros(graph.node_count, dtype=bool)
    members[list(nodes)] = True
    trace = TrafficTrace(np.array([arrivals]), np.array([rates]))
    result, = run_episode(graph, [lambda g, q, r: Schedule(members)], trace,
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
                run_episode(g, [lambda graph, q, r: Schedule(np.zeros(n, bool))],
                            constant_trace(1, 6))

    @pytest.mark.parametrize("node", [-1, 6])
    def test_out_of_range_schedule_rejected(self, node):
        # node IDs are not a schedule, so a negative ID cannot wrap around to
        # the last link and an ID past the graph cannot reach run_episode
        with pytest.raises(ValueError, match="1-D bool mask"):
            Schedule(np.array([2, node]))
        with pytest.raises(ValueError, match="1-D bool mask"):
            run_episode(generate_star(5),
                        [lambda g, q, r: Schedule(np.array([2, node]))],
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

    def test_arrivals_summing_past_int64_refused(self):
        arrivals = np.zeros((4, 6), dtype=np.int64)
        arrivals[:, 3] = 2**62
        with pytest.raises(ValueError, match=re.escape(
                "arrivals on link 3 sum past 2**63 - 1 by slot 1")):
            TrafficTrace(arrivals, np.ones((4, 6), dtype=np.int64))
        arrivals[1:, 3] = [2**62 - 1, 0, 0]  # exactly 2**63 - 1 is allowed
        TrafficTrace(arrivals, np.ones((4, 6), dtype=np.int64))


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
        result, = run_episode(g, [SolverPolicy(lgs)], trace)
        metrics = compute_metrics(result)
        assert metrics.mean == 0 and metrics.objective == 0
        assert metrics.median == 0 and metrics.p95 == 0

    def test_trajectory_shape(self):
        g = generate_er(12, 0.2, 0)
        trace = sample_traffic(g, 20, 2.0, 1)
        result, = run_episode(g, [SolverPolicy(lgs)], trace)
        assert result.queues.shape == (21, 12)
        assert result.members.shape == (20, 12) and len(result.rounds) == 20

    def test_conservation(self):
        g = generate_er(15, 0.2, 2)
        trace = sample_traffic(g, 30, 3.0, 3)
        result, = run_episode(g, [SolverPolicy(lgs)], trace)
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
        a, = run_episode(g, [SolverPolicy(lgs)], trace)
        b, = run_episode(g, [SolverPolicy(lgs)], trace)
        assert np.array_equal(a.queues, b.queues)
        assert np.array_equal(a.members, b.members) and a.rounds == b.rounds

    def test_toy_steady_states(self):
        g = generate_star(5)
        trace = constant_trace(128, 6)
        greedy, = run_episode(g, [SolverPolicy(greedy_centralized, "queue")],
                              trace)
        assert steady_state_mean(greedy, 20) == pytest.approx(1.5, abs=1e-12)


def reference_episode(graph, policy, trace, q0=None):
    """The one-policy slot loop ``run_episode`` replaced, kept as the
    reference: the policy is called on every slot, whatever it schedules
    with. Returns (queues, members, rounds)."""
    n = graph.node_count
    q = np.zeros(n, np.int64) if q0 is None else np.array(q0, np.int64)
    queues, members, rounds = [q], [], []
    for t in range(trace.horizon):
        schedule = policy(graph, q, trace.rates[t])
        assert is_independent_mask(graph, schedule.members)
        q = advance(q, schedule.members, trace.rates[t], trace.arrivals[t])
        queues.append(q)
        members.append(schedule.members)
        rounds.append(schedule.rounds_used)
    return np.array(queues), np.array(members).reshape(-1, n), rounds


# the trained HEAD checkpoint: theta0 = -0.634 makes an isolated idle link's
# utility -0.0, which ties with 0.0 elsewhere
HEAD_GCN = GcnParams((1, 1), [np.array([[-0.634]])], [np.array([[0.292]])])


def quiet(graph, q, r):
    # a plain callable: schedules nobody
    return Schedule(np.zeros(graph.node_count, dtype=bool))


def lgs_on_negated_queues(graph, q, r):
    # a plain callable that calls lgs itself, on utilities of mixed sign
    return lgs(graph, 1.0 - q)


LOCKSTEP_POLICIES = {
    "baseline": lambda: SolverPolicy(lgs),
    "baseline-min": lambda: SolverPolicy(lgs, "min"),
    "greedy": lambda: SolverPolicy(greedy_centralized),
    "exact": lambda: SolverPolicy(exact_mwis, "queue"),
    "gcn-head": lambda: GcnLgsPolicy(HEAD_GCN),
    "gcn-deep": lambda: GcnLgsPolicy(init_params((1, 4, 1), 3), 0.1),
    "quiet": lambda: quiet,
    "lgs-callable": lambda: lgs_on_negated_queues,
}


@st.composite
def lockstep_cases(draw):
    # a graph on up to 10 nodes whose edges join only the first k nodes, so
    # nodes k.. are isolated and the graph may have no edges at all; small
    # integer arrivals, rates and start queues, so utilities tie often
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    graph = ConflictGraph.from_edges(n, [p for p, x in zip(pairs, keep) if x])
    horizon = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 3), min_size=horizon * n,
                     max_size=horizon * n)
    trace = TrafficTrace(np.reshape(draw(cells), (horizon, n)),
                         np.reshape(draw(cells), (horizon, n)))
    q0 = draw(st.none() | st.lists(st.integers(0, 4), min_size=n,
                                   max_size=n))
    names = draw(st.lists(st.sampled_from(sorted(LOCKSTEP_POLICIES)),
                          min_size=1, max_size=6))
    return graph, trace, q0, names


class TestLockstep:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(lockstep_cases())
    def test_equals_each_policy_alone(self, case):
        graph, trace, q0, names = case
        policies = [LOCKSTEP_POLICIES[name]() for name in names]
        together = run_episode(graph, policies, trace, q0=q0)
        assert len(together) == len(policies)
        for policy, result in zip(policies, together):
            alone, = run_episode(graph, [policy], trace, q0=q0)
            queues, members, rounds = reference_episode(graph, policy, trace,
                                                        q0)
            for other in (alone, result):
                assert np.array_equal(other.queues, queues)
                assert np.array_equal(other.members, members)
                assert other.rounds == rounds
            assert compute_metrics(result) == compute_metrics(alone)

    def test_lgs_policies_share_one_solve_per_slot(self, monkeypatch):
        # baseline and gcn rows go to lgs_rows together; greedy is called
        calls = []

        def counted(graph, u):
            calls.append(np.shape(u))
            return lgs_rows(graph, u)
        monkeypatch.setattr("linksched.sim.lgs_rows", counted)
        g = generate_er(12, 0.3, 1)
        trace = sample_traffic(g, 5, 2.0, 2)
        run_episode(g, [SolverPolicy(lgs), SolverPolicy(greedy_centralized),
                        GcnLgsPolicy(HEAD_GCN)], trace)
        assert calls == [(2, 12)] * 5

    def test_wrapped_lgs_still_batched(self, monkeypatch):
        # a functools.wraps wrapper, as a tracer installs, is still lgs; a
        # stand-in of another kind is called slot by slot
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)
            return wrapper
        original = solvers.lgs
        for module in (solvers, policies_module):
            monkeypatch.setattr(module, "lgs", wrap(original))
        assert SolverPolicy(policies_module.lgs).schedules_with_lgs
        assert SolverPolicy(original).schedules_with_lgs
        assert GcnLgsPolicy(HEAD_GCN).schedules_with_lgs
        assert not SolverPolicy(greedy_centralized).schedules_with_lgs
        assert not SolverPolicy(lambda g, u: original(g, u)).schedules_with_lgs
        monkeypatch.setattr(policies_module, "lgs",
                            lambda g, u: original(g, u))
        assert not GcnLgsPolicy(HEAD_GCN).schedules_with_lgs

    @pytest.mark.parametrize("which", ["queues", "rates"])
    def test_policy_writing_its_inputs_fails(self, which):
        g = generate_star(4)

        def vandal(graph, q, r):
            (q if which == "queues" else r)[:] = 0
            return quiet(graph, q, r)
        with pytest.raises(ValueError, match="read-only"):
            run_episode(g, [SolverPolicy(lgs), vandal],
                        constant_trace(3, 5))

    def test_no_policies(self):
        assert run_episode(generate_star(3), [], constant_trace(2, 4)) == []


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
                                        [SolverPolicy(lgs)],
                                        sample_traffic(generate_er(10, 0.3, 0),
                                                       12, 2.0, 1))[0])
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
                g, [SolverPolicy(lgs)], TrafficTrace(lo, rates))[0])
            m_hi = compute_metrics(run_episode(
                g, [SolverPolicy(lgs)], TrafficTrace(hi, rates))[0])
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

    def test_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(TrafficTrace([[1, 20], [300, 0]], [[5, 6], [7, 8]], 4),
                   path)
        assert path.read_bytes() == (b"# seed=4 nodes=2 horizon=2\n"
                                     b"t,node,arrival,rate\r\n"
                                     b"0,0,1,5\r\n0,1,20,6\r\n"
                                     b"1,0,300,7\r\n1,1,0,8\r\n")

    def test_rows_in_any_order(self, tmp_path):
        trace = sample_traffic(generate_star(3), 5, 2.0, 3)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        rows = lines[2:]
        np.random.default_rng(0).shuffle(rows)
        path.write_text("".join(f"{line}\n" for line in lines[:2] + rows))
        assert load_trace(path, 4).checksum() == trace.checksum()

    def test_arrivals_past_int64_name_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# seed=None nodes=6 horizon=4\nt,node,arrival,rate\n"
                        + "".join(f"{t},{v},{2**62},5\n" for t in range(4)
                                  for v in range(6)))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: arrivals on link 0 sum past 2**63 - 1 by slot 1")):
            load_trace(path, 6)

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

    @pytest.mark.parametrize("row", ["", "1,0,1_0,5", '"1",0,2,5',
                                     "1,0,2.0,5", "1,0,2,5,"])
    def test_rows_numpy_cannot_read_name_line(self, tmp_path, row):
        # blank rows, underscores, quotes and floats are refused at their line
        lines = self.GOOD_TRACE[:4] + [row] + self.GOOD_TRACE[5:]
        path = tmp_path / "trace.csv"
        path.write_text("".join(f"{text}\n" for text in lines))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 5: expected four integer fields")):
            load_trace(path, 2)

    CORRUPTIONS = ("none", "junk", "short", "outside", "negative",
                   "duplicate", "beyond-int64", "blank", "cut")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.sampled_from(CORRUPTIONS), st.data())
    def test_corrupted_row_matches_reference(self, tmp_path_factory, horizon,
                                             nodes, seed, kind, data):
        # one body row corrupted: the error names that row's line, as the
        # row-by-row reference does; uncorrupted, both read the same trace
        rng = np.random.default_rng(seed)
        trace = TrafficTrace(rng.integers(0, 1000, (horizon, nodes)),
                             rng.integers(0, 101, (horizon, nodes)))
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        first = 1 if kind == "duplicate" else 0  # a duplicate needs an original
        assume(horizon * nodes > first)
        k = data.draw(st.integers(first, horizon * nodes - 1))
        earlier = lines[2 + data.draw(st.integers(0, max(k - 1, 0)))]
        t, v, a, r = lines[2 + k].split(",")
        lines[2 + k] = {
            "none": lines[2 + k],
            "junk": "junk",
            "short": f"{t},{v},{a}",
            "outside": f"{horizon},{v},{a},{r}",
            "negative": f"{t},{v},-1,{r}",
            "duplicate": earlier,
            "beyond-int64": f"{t},{v},{a},{2**63}",
            "blank": "",
            "cut": None,  # this row and all after it missing
        }[kind]
        if kind == "cut":
            del lines[2 + k:]
        path.write_text("".join(f"{line}\r\n" for line in lines),
                        newline="")
        if kind == "none":
            assert load_trace(path, nodes).checksum() == trace.checksum()
            assert reference_load_trace(path, nodes).checksum() == \
                trace.checksum()
            return
        with pytest.raises(ValueError) as expected:
            reference_load_trace(path, nodes)
        with pytest.raises(ValueError) as got:
            load_trace(path, nodes)
        assert str(got.value) == str(expected.value)
        if kind != "cut":  # a cut file may not fit its metadata (line 1)
            assert str(got.value).startswith(f"{path}: line {k + 3}: ")
