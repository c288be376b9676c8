import itertools
import math
import os
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linksched import sim
from linksched.gcn import GcnParams, init_params
from linksched.graph import (ConflictGraph, generate_ba, generate_er,
                             generate_power_law_tree, generate_star,
                             is_independent_mask, load_graph, save_graph)
from linksched.policies import GcnLgsPolicy, SolverPolicy
from linksched.presets import parse_graph_config
from linksched.sim import (TrafficTrace, advance, backlog_ratio,
                           backlog_stats, compute_metrics, load_trace,
                           lookahead_compare, ratio_quartiles, run_episode,
                           sample_traffic, save_trace, steady_state_mean)
from linksched.solvers import (EXACT_NODE_CAP, baseline_utility,
                               exact_mwis, greedy_centralized, lgs_rows)
from test_graph import CUT_SHORT, NOT_PLAIN, is_int64, plain_line, \
    reference_load_edges


def trace_text(lines) -> str:
    """Trace file lines joined with the line ends ``save_trace`` writes:
    ``\\n`` after the metadata line and ``\\r\\n`` after every other."""
    return "".join(f"{line}\n" if k == 0 else f"{line}\r\n"
                   for k, line in enumerate(lines))


def write_trace_lines(path, lines) -> None:
    Path(path).write_bytes(trace_text(lines).encode())


def reference_load_trace(path, nodes):
    """A line-at-a-time reader of the one layout ``save_trace`` writes, the
    reference for ``load_trace``'s diagnostics: the first line in file
    order that does not end as written, then the first that is no row or
    not the row k = (t, node) there, a last line without its line end,
    then the row count."""
    with open(path, newline="") as fh:
        text = fh.read()
        file_bytes = os.fstat(fh.fileno()).st_size
    lines = text.split("\n")
    cut = lines.pop()  # what follows the last line end: a line cut short
    for k, line in enumerate(lines + [cut]):
        # the writer's "\r" ends every line but the first, and a cut line
        # may end in it
        inner = line if k == 0 else line[:-1]
        if "\r" in inner or 0 < k < len(lines) and not line.endswith("\r"):
            end = "'\\n'" if k == 0 else "'\\r\\n'"
            raise ValueError(f"{path}: line {k + 1}: line end other than "
                             f"{end}")
    lines[1:] = [line[:-1] for line in lines[1:]]
    meta = dict(part.split("=", 1) for part in lines[0][2:].split(" "))
    horizon = int(meta["horizon"])
    if 8 * horizon * nodes > file_bytes:
        raise ValueError(f"{path}: line 1: {horizon} x {nodes} rows "
                         "cannot fit in the file")
    assert lines[1] == "t,node,arrival,rate"
    size = horizon * nodes
    arrivals, rates = [], []
    for k, line in enumerate(lines[2:]):
        fields = line.split(",")
        if len(fields) != 4 or not all(map(is_int64, fields)):
            raise ValueError(f"{path}: line {k + 3}: expected four integer "
                             "fields, each within int64")
        if line != plain_line(fields, ","):
            raise ValueError(f"{path}: line {k + 3}: {NOT_PLAIN}")
        t, v, a, r = map(int, fields)
        want = f"({k // nodes}, {k % nodes})" if k < size else \
            f"no row after the {horizon} x {nodes} of line 1"
        if k >= size or (t, v) != divmod(k, nodes):
            raise ValueError(f"{path}: line {k + 3}: (t, node) = ({t}, {v}),"
                             f" expected {want}")
        if a < 0 or r < 0:
            raise ValueError(f"{path}: line {k + 3}: arrival {a} and rate "
                             f"{r} must lie in [0, 2**63)")
        arrivals.append(a)
        rates.append(r)
    if cut:
        raise ValueError(f"{path}: line {len(lines) + 1}: {CUT_SHORT}")
    if len(arrivals) < size:
        raise ValueError(f"{path}: line {len(arrivals) + 2}: "
                         f"{size - len(arrivals)} of {size} (t, node) rows "
                         "missing")
    return TrafficTrace(np.reshape(arrivals, (horizon, nodes)),
                        np.reshape(rates, (horizon, nodes)))


def constant_trace(horizon, nodes, arrival=1, rate=2):
    return TrafficTrace(np.full((horizon, nodes), arrival, dtype=np.int64),
                        np.full((horizon, nodes), rate, dtype=np.int64))


class Stub:
    """A stand-in policy: zero utilities for sim's ``exact`` kernel, which
    :func:`run_stub` replaces."""

    solver = "exact"

    def utilities(self, graph, x):
        return np.zeros(np.shape(x))


def run_stub(graph, schedule, trace):
    """One :class:`Stub` policy's episode, with ``schedule(graph, u)`` as
    sim's ``exact_kernel``: a fault injected where ``run_episode`` calls it,
    once a slot on the (1, V) stack of the one row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "exact_kernel", schedule)
        return run_episode(graph, [Stub()], trace)


def one_slot(graph, q0, nodes, arrivals, rates):
    """Queues after one run_episode slot from ``q0`` under a fixed
    schedule. Every episode starts empty, so a first slot that schedules
    nobody and brings ``q0`` as its arrivals sets that state up."""
    n = graph.node_count
    members = np.zeros(n, dtype=bool)
    members[list(nodes)] = True
    schedules = iter([np.zeros(n, dtype=bool), members])
    trace = TrafficTrace(np.array([q0, arrivals]), np.array([rates, rates]))
    result, = run_stub(graph, lambda g, u: next(schedules)[None], trace)
    assert result.queues.shape == (3, n)
    assert np.array_equal(result.queues[1], q0)
    assert np.array_equal(result.members, [np.zeros(n, dtype=bool), members])
    assert result.rounds is None
    return result.queues[2]


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
        # node IDs, int8 masks of the right length and lists are not
        # schedules
        g = generate_star(5)
        for members in (np.array([[0, 2, 0, 0, 0, 0]]),
                        np.array([[1, 0, 1, 1, 1, 1]], np.int8),
                        [[False] * 6]):
            with pytest.raises(ValueError, match="1-D bool mask"):
                run_stub(g, lambda graph, u: members, constant_trace(1, 6))
        # a bool mask cannot name a node outside the graph, but it can have
        # the wrong length or rank: one row is a (1, V) stack
        for members in (np.zeros((1, 5), bool), np.zeros((1, 7), bool),
                        np.zeros(6, bool), np.zeros((1, 1, 6), bool)):
            with pytest.raises(ValueError, match="does not match 6 nodes"):
                run_stub(g, lambda graph, u: members, constant_trace(1, 6))

    @pytest.mark.parametrize("first", [False, True])
    def test_bad_row_beside_valid_rows(self, first):
        # each solver's block of rows is checked for dtype and shape as it
        # is stored, so a faulty greedy row raises its own message whether
        # the caller names valid policies before it or after it, and
        # whatever the valid lgs and exact rows solved before and after it
        # hold; independence is checked over all rows at once
        g = generate_star(5)
        valid = [SolverPolicy("lgs"), Quiet()]
        policies = [SolverPolicy("greedy"), *valid] if first \
            else [*valid, SolverPolicy("greedy")]
        for members, match in (
                (np.array([[1, 0, 0, 0, 0, 0]], np.int8), "1-D bool mask"),
                ([[False] * 6], "1-D bool mask"),
                (np.zeros((1, 5), bool),
                 r"shape \(1, 5\) does not match 6 nodes"),
                (np.zeros(6, bool), r"shape \(6,\) does not match 6 nodes"),
                ((np.arange(6) < 2)[None], "not an independent set")):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim, "greedy_kernel",
                              lambda graph, u: members)
                with pytest.raises(ValueError, match=match):
                    run_episode(g, policies, constant_trace(1, 6))

    def test_first_faulty_slot_named(self):
        # schedules are checked for independence once, after the last
        # slot; the error names the first faulty slot, its policy by its
        # place in the caller's order, and its trace, and nothing is
        # returned
        g = generate_star(5)
        slots = []

        def late_conflict(graph, u):
            members = greedy_centralized(graph, u)
            slots.append(len(slots))
            if slots[-1] == 2:
                members[2] = True  # the greedy row of trace 2
            return members
        returned = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "greedy_kernel", late_conflict)
            with pytest.raises(ValueError, match=re.escape(
                    "slot 2: the schedule of policy 2 ('greedy') on trace 2 "
                    "is not an independent set of the graph")):
                returned = run_episode(
                    g, [Quiet(), SolverPolicy("lgs"), SolverPolicy("greedy")],
                    *(sample_traffic(g, 4, 2.0, seed) for seed in (1, 2, 3)))
        assert returned is None
        assert slots == [0, 1, 2, 3]  # every slot was solved

    @pytest.mark.parametrize("node", [-1, 6])
    def test_out_of_range_schedule_rejected(self, node):
        # node IDs are not a schedule, so a negative ID cannot wrap around to
        # the last link and an ID past the graph cannot reach the queues
        for ids in (np.array([[2, node]]),
                    np.array([[2, node, 0, 0, 0, 0]])):
            with pytest.raises(ValueError, match="1-D bool mask"):
                run_stub(generate_star(5), lambda g, u: ids,
                         constant_trace(1, 6))

    def test_queues_reach_the_trace_bound_without_wrapping(self):
        # every run starts from empty queues, so no queue exceeds the sum of
        # its link's arrivals, which a trace bounds by 2**63 - 1
        arrivals = np.array([[2**62] * 3, [2**62 - 1] * 3])
        trace = TrafficTrace(arrivals, np.zeros((2, 3), dtype=np.int64))
        for policy in (SolverPolicy("lgs"), Quiet()):
            result, = run_episode(generate_star(2), [policy], trace)
            assert result.queues[-1].tolist() == [2**63 - 1] * 3

    def test_negative_arrivals_rejected(self):
        # the trace checks its arrivals once, so no slot can see a negative
        with pytest.raises(ValueError, match="non-negative"):
            one_slot(ConflictGraph.from_edges(2, []), np.ones(2, int), set(),
                     [-1, 0], np.ones(2, int))


@st.composite
def advance_cases(draw):
    # a (P, K, V) batch of queues up to 10 or up to 2**63 - 1 against one
    # slot's (K, V) rates and arrivals, the arrivals at most what keeps
    # every queue within int64; a bool or a 0/1 int64 mask
    p, k, v = (draw(st.integers(1, top)) for top in (4, 3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([10, 2**63 - 1]))
    q = rng.integers(0, top, (p, k, v), endpoint=True)
    rates = rng.integers(0, top, (k, v), endpoint=True)
    room = 2**63 - 1 - q.max(axis=0)
    arrivals = (rng.random((k, v)) * room).astype(np.int64)
    members = rng.random((p, k, v)) < 0.5
    if draw(st.booleans()):
        members = members.astype(np.int64)
    return q, members, rates, arrivals, rng


class TestAdvance:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=advance_cases())
    def test_out_equals_allocating_form(self, case):
        # written into ``out``, whatever it held, the update is the
        # allocating form's and the masked formula's bit for bit
        q, members, rates, arrivals, rng = case
        want = q - np.where(members, np.minimum(rates, q), 0) + arrivals
        made = advance(q, members, rates, arrivals)
        out = rng.integers(-2**63, 2**63 - 1, q.shape, endpoint=True)
        got = advance(q, members, rates, arrivals, out=out)
        assert got is out
        for array in (made, got):
            assert array.dtype == np.int64 and array.shape == q.shape
            assert array.tobytes() == want.tobytes()


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
        result, = run_episode(g, [SolverPolicy("lgs")], trace)
        metrics = compute_metrics(result)
        assert metrics.mean == 0 and metrics.objective == 0
        assert metrics.median == 0 and metrics.p95 == 0

    def test_trajectory_shape(self):
        g = generate_er(12, 0.2, 0)
        trace = sample_traffic(g, 20, 2.0, 1)
        result, = run_episode(g, [SolverPolicy("lgs")], trace)
        assert result.queues.shape == (21, 12)
        assert result.members.shape == (20, 12)
        assert result.utilities.shape == (20, 12)
        assert result.rounds.shape == (20,) and result.rounds.dtype == np.int64

    def test_conservation(self):
        g = generate_er(15, 0.2, 2)
        trace = sample_traffic(g, 30, 3.0, 3)
        result, = run_episode(g, [SolverPolicy("lgs")], trace)
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
        a, = run_episode(g, [SolverPolicy("lgs")], trace)
        b, = run_episode(g, [SolverPolicy("lgs")], trace)
        assert np.array_equal(a.queues, b.queues)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.rounds, b.rounds)

    def test_toy_steady_states(self):
        g = generate_star(5)
        trace = constant_trace(128, 6)
        greedy, = run_episode(g, [SolverPolicy("greedy")], trace)
        assert steady_state_mean(greedy, 20) == pytest.approx(1.5, abs=1e-12)


def reference_episode(graph, policy, trace):
    """The one-policy slot loop ``run_episode`` replaced, kept as the
    reference: from empty queues, every slot, the policy's utilities of
    that slot's backlog x rate go to its solver on their own, an LGS row as
    a batch of one. Returns (queues, members, utilities, rounds), rounds
    None for a centralized solver."""
    n = graph.node_count
    q = np.zeros(n, np.int64)
    queues, members, utilities, rounds = [q], [], [], []
    for t in range(trace.horizon):
        u = policy.utilities(graph, baseline_utility(q, trace.rates[t]))
        if policy.solver == "lgs":
            batch_members, batch_rounds = lgs_rows(graph, u[None])
            mask = batch_members[0]
            rounds.append(int(batch_rounds[0]))
        else:
            solver = {"greedy": greedy_centralized, "exact": exact_mwis}
            mask = solver[policy.solver](graph, u)
        assert is_independent_mask(graph, mask)
        q = advance(q, mask, trace.rates[t], trace.arrivals[t])
        queues.append(q)
        members.append(mask)
        utilities.append(u)
    return (np.array(queues), np.array(members).reshape(-1, n),
            np.array(utilities).reshape(-1, n),
            np.array(rounds) if policy.solver == "lgs" else None)


# the trained HEAD checkpoint: theta0 = -0.634 makes an isolated idle link's
# utility -0.0, which ties with 0.0 elsewhere
HEAD_GCN = GcnParams((1, 1), [np.array([[-0.634]])], [np.array([[0.292]])])


class Quiet:
    # zero weights: the exact solver schedules nobody
    solver = "exact"

    def utilities(self, graph, x):
        return np.zeros(np.shape(x))


class Residues:
    # backlog x rate modulo 7: a second weight beside backlog x rate, not
    # in its order and with many ties
    def __init__(self, solver):
        self.solver = solver

    def utilities(self, graph, x):
        return x % 7


class Negated:
    # LGS on utilities of mixed sign
    solver = "lgs"

    def utilities(self, graph, x):
        return 1.0 - x


LOCKSTEP_POLICIES = {
    "baseline": lambda: SolverPolicy("lgs"),
    "baseline-residue": lambda: Residues("lgs"),
    "greedy": lambda: SolverPolicy("greedy"),
    "exact": lambda: Residues("exact"),
    "gcn-head": lambda: GcnLgsPolicy(HEAD_GCN),
    "gcn-deep": lambda: GcnLgsPolicy(init_params((1, 4, 1), 3), 0.1),
    "quiet": Quiet,
    "lgs-negated": Negated,
}


@st.composite
def lockstep_cases(draw):
    # a graph on up to 10 nodes whose edges join only the first k nodes, so
    # nodes k.. are isolated and the graph may have no edges at all; small
    # integer arrivals and rates, so utilities tie often
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
    names = draw(st.lists(st.sampled_from(sorted(LOCKSTEP_POLICIES)),
                          min_size=1, max_size=6))
    return graph, trace, names


class TestLockstep:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(lockstep_cases())
    def test_equals_each_policy_alone(self, case):
        graph, trace, names = case
        policies = [LOCKSTEP_POLICIES[name]() for name in names]
        together = run_episode(graph, policies, trace)
        assert len(together) == len(policies)
        for policy, result in zip(policies, together):
            alone, = run_episode(graph, [policy], trace)
            queues, members, utilities, rounds = reference_episode(
                graph, policy, trace)
            for other in (alone, result):
                assert np.array_equal(other.queues, queues)
                assert np.array_equal(other.members, members)
                assert np.array_equal(other.utilities, utilities)
                if rounds is None:
                    assert other.rounds is None
                else:
                    assert np.array_equal(other.rounds, rounds)
            assert compute_metrics(result) == compute_metrics(alone)

    def test_lgs_policies_share_one_solve_per_slot(self, monkeypatch):
        # baseline and gcn rows go to lgs_kernel together; greedy is called
        # on its own row
        calls = []

        def counted(graph, u):
            calls.append(np.shape(u))
            return lgs_rows(graph, u)
        monkeypatch.setattr("linksched.sim.lgs_kernel", counted)
        g = generate_er(12, 0.3, 1)
        trace = sample_traffic(g, 5, 2.0, 2)
        run_episode(g, [SolverPolicy("lgs"), SolverPolicy("greedy"),
                        GcnLgsPolicy(HEAD_GCN)], trace)
        assert calls == [(2, 12)] * 5

    def test_lgs_rows_passed_as_a_view(self, monkeypatch):
        # in every policy order, with one trace or two, the rows of the LGS
        # policies, policy-major in the caller's order and one per trace,
        # reach lgs_kernel as one slice of the episode's utilities
        passed = []

        def recorded(graph, u):
            passed.append(u)
            return lgs_rows(graph, u)
        monkeypatch.setattr("linksched.sim.lgs_kernel", recorded)
        g = generate_er(12, 0.3, 1)
        for traces, order in itertools.product(
                (1, 2), itertools.permutations(["greedy", "lgs", "gcn",
                                                "exact"])):
            trace_list = [sample_traffic(g, 3, 2.0, seed)
                          for seed in range(2, 2 + traces)]
            policies = [GcnLgsPolicy(HEAD_GCN) if name == "gcn"
                        else SolverPolicy(name) for name in order]
            lgs = [p for p, name in enumerate(order)
                   if name in ("lgs", "gcn")]
            passed.clear()
            results = run_episode(g, policies, *trace_list)
            everything = results[0].utilities.base
            assert len(passed) == 3
            for t, u in enumerate(passed):
                assert u.base is everything
                assert same_bits(u, [results[j * 4 + p].utilities[t]
                                     for p in lgs for j in range(traces)])

    def test_solvers_looked_up_at_call_time(self, monkeypatch):
        # a solver kernel rebound in sim, as a tracer rebinds it, is the one
        # called: once per slot on the rows of the policies that name it,
        # their utilities, policy-major over one trace or two
        calls = []

        def counted(name, solver):
            def wrapper(graph, u):
                calls.append((name, u.tolist()))
                return solver(graph, u)
            return wrapper
        monkeypatch.setattr(sim, "greedy_kernel",
                            counted("greedy", greedy_centralized))
        monkeypatch.setattr(sim, "exact_kernel", counted("exact", exact_mwis))
        g = generate_star(3)
        for traces in (1, 2):
            calls.clear()
            results = run_episode(
                g, [SolverPolicy("greedy"), Residues("exact"),
                    SolverPolicy("lgs")],
                *(sample_traffic(g, 4, 2.0, seed)
                  for seed in range(3, 3 + traces)))
            assert calls == [(name, [results[j * 3 + p].utilities[t].tolist()
                                     for j in range(traces)])
                             for t in range(4)
                             for p, name in enumerate(("greedy", "exact"))]

    def test_unknown_solver_refused(self):
        # a solver is named, never passed: a function object is refused
        g = generate_star(3)
        for solver in ("lgs_rows", greedy_centralized):
            with pytest.raises(ValueError, match="unknown solver"):
                run_episode(g, [SolverPolicy("lgs"), SolverPolicy(solver)],
                            constant_trace(2, 4))

    def test_utilities_one_per_node(self):
        # one trace is one (1, V) row: a (V,) vector is refused
        g = generate_star(3)
        for shape in ((), (3,), (4,), (5,), (1, 3), (2, 4), (1, 4, 1)):
            policy = SolverPolicy("lgs")
            policy.utilities = lambda graph, x: np.zeros(shape)
            with pytest.raises(ValueError, match="utilities of shape"):
                run_episode(g, [policy], constant_trace(2, 4))
        policy.utilities = lambda graph, x: np.zeros((1, 4))
        result, = run_episode(g, [policy], constant_trace(2, 4))
        assert same_bits(result.utilities, np.zeros((2, 4)))

    @pytest.mark.parametrize("traces", [1, 2])
    def test_permuted_policies(self, traces):
        # the results permute with the policies, bit for bit, and the
        # policies' utilities are called in the caller's order every slot
        g = generate_er(10, 0.4, 5)
        trace_list = [sample_traffic(g, 4, 2.0, seed)
                      for seed in range(7, 7 + traces)]
        names = ["baseline", "greedy", "exact", "gcn-head", "lgs-negated"]
        calls = []

        class Logged:
            def __init__(self, name):
                self.name, self.policy = name, LOCKSTEP_POLICIES[name]()
                self.solver = self.policy.solver

            def utilities(self, graph, x):
                calls.append(self.name)
                return self.policy.utilities(graph, x)
        first = run_episode(g, [Logged(name) for name in names], *trace_list)
        for order in itertools.permutations(range(len(names))):
            calls.clear()
            results = run_episode(g, [Logged(names[p]) for p in order],
                                  *trace_list)
            assert calls == [names[p] for p in order] * 4
            for j in range(traces):
                for got, p in zip(results[j * 5:(j + 1) * 5], order):
                    want = first[j * 5 + p]
                    assert same_bits(got.queues, want.queues)
                    assert same_bits(got.members, want.members)
                    assert same_bits(got.utilities, want.utilities)
                    assert (got.rounds is None) == (want.rounds is None)
                    if want.rounds is not None:
                        assert same_bits(got.rounds, want.rounds)

    @pytest.mark.parametrize("which", ["queues", "rates", "reopened"])
    def test_policy_writing_its_inputs_fails(self, which):
        # a policy's backlog x rate rows are read-only: it can neither
        # empty the backlog factor by assignment, nor rescale the rate
        # factor in place, nor make its rows writable and then write
        g = generate_star(4)

        class Vandal(Quiet):
            def utilities(self, graph, x):
                if which == "queues":
                    x[:] = 0
                elif which == "rates":
                    x *= 2
                else:
                    x.setflags(write=True)
                    x[:] = 0
                return super().utilities(graph, x)
        with pytest.raises(ValueError, match="read-only|WRITEABLE"):
            run_episode(g, [SolverPolicy("lgs"), Vandal()],
                        constant_trace(3, 5))

    def test_no_policies(self):
        assert run_episode(generate_star(3), [], constant_trace(2, 4)) == []


# the lockstep policies plus the two solver and utility pairs they lack
MULTI_TRACE_POLICIES = {
    **LOCKSTEP_POLICIES,
    "greedy-residue": lambda: Residues("greedy"),
    "exact-product": lambda: SolverPolicy("exact"),
}


@st.composite
def multi_trace_cases(draw):
    # an ER, BA or star graph with up to 3 isolated nodes after it, and 1..5
    # traces of one shape; small integer arrivals and rates, so utilities
    # tie often
    family = draw(st.sampled_from(["er", "ba", "star"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "er":
        base = generate_er(draw(st.integers(1, 10)),
                           draw(st.floats(0.0, 1.0)), seed)
    elif family == "ba":
        size = draw(st.integers(2, 10))
        base = generate_ba(size, draw(st.integers(1, size - 1)), seed)
    else:
        base = generate_star(draw(st.integers(1, 10)))
    graph = ConflictGraph.from_edges(base.node_count + draw(st.integers(0, 3)),
                                     base.edge_array())
    n = graph.node_count
    horizon = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 3), min_size=horizon * n,
                     max_size=horizon * n)
    traces = [TrafficTrace(np.reshape(draw(cells), (horizon, n)),
                           np.reshape(draw(cells), (horizon, n)))
              for _ in range(draw(st.integers(1, 5)))]
    steps = draw(st.none() | st.integers(1, horizon))
    names = draw(st.lists(st.sampled_from(sorted(MULTI_TRACE_POLICIES)),
                          min_size=1, max_size=5))
    return graph, traces, steps, names


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class TestTraces:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(multi_trace_cases())
    def test_equals_each_trace_alone(self, case):
        # rows are (trace, policy) pairs, trace-major; each trace's rows are
        # bit for bit what its run alone gives
        graph, traces, steps, names = case
        policies = [MULTI_TRACE_POLICIES[name]() for name in names]
        count = len(policies)
        together = run_episode(graph, policies, *traces, steps=steps)
        assert len(together) == len(traces) * count
        for k, trace in enumerate(traces):
            alone = run_episode(graph, policies, trace, steps=steps)
            for want, got in zip(alone, together[k * count:(k + 1) * count],
                                 strict=True):
                assert same_bits(got.queues, want.queues)
                assert same_bits(got.members, want.members)
                assert same_bits(got.utilities, want.utilities)
                if want.rounds is None:
                    assert got.rounds is None
                else:
                    assert same_bits(got.rounds, want.rounds)

    def test_one_lgs_solve_per_slot_over_every_trace(self, monkeypatch):
        # the LGS rows of both policies in all three traces go to one
        # lgs_kernel call a slot; each policy's utilities are one call on its
        # (K, V) rows
        calls, shapes = [], []

        def counted(graph, u):
            calls.append(np.shape(u))
            return lgs_rows(graph, u)

        class Recorded(SolverPolicy):
            def utilities(self, graph, x):
                shapes.append(np.shape(x))
                return super().utilities(graph, x)
        monkeypatch.setattr("linksched.sim.lgs_kernel", counted)
        g = generate_er(12, 0.3, 1)
        traces = [sample_traffic(g, 5, 2.0, seed) for seed in (2, 3, 4)]
        run_episode(g, [Recorded("lgs"), SolverPolicy("greedy"),
                        GcnLgsPolicy(HEAD_GCN)], *traces)
        assert calls == [(6, 12)] * 5
        assert shapes == [(3, 12)] * 5

    def test_refusals(self):
        g = generate_star(3)
        lgs = [SolverPolicy("lgs")]
        with pytest.raises(ValueError, match="at least one trace"):
            run_episode(g, lgs)
        with pytest.raises(ValueError, match="trace width"):
            run_episode(g, lgs, constant_trace(3, 4), constant_trace(3, 5))
        with pytest.raises(ValueError, match=r"steps must lie in \[1, 2\]"):
            run_episode(g, lgs, constant_trace(4, 4), constant_trace(2, 4),
                        steps=3)
        with pytest.raises(ValueError, match="unequal horizons"):
            run_episode(g, lgs, constant_trace(4, 4), constant_trace(2, 4))
        # with steps, traces longer than the steps run their first slots
        short, = run_episode(g, lgs, constant_trace(2, 4))
        both = run_episode(g, lgs, constant_trace(4, 4),
                           constant_trace(2, 4), steps=2)
        assert all(same_bits(r.queues, short.queues) for r in both)

    def test_utilities_one_row_per_trace(self):
        g = generate_star(3)
        policy = SolverPolicy("lgs")
        policy.utilities = lambda graph, x: np.zeros(4)
        with pytest.raises(ValueError, match=r"utilities of shape \(4,\)"):
            run_episode(g, [policy], constant_trace(2, 4),
                        constant_trace(2, 4))

    @pytest.mark.parametrize("which", ["queues", "rates", "reopened"])
    def test_policy_writing_its_inputs_fails(self, which):
        # a policy's (K, V) block of backlog x rate rows is read-only:
        # it can neither empty the backlog factor by assignment, nor rescale
        # the rate factor in place, nor make the block writable and write
        g = generate_star(4)

        class Vandal(Quiet):
            def utilities(self, graph, x):
                if which == "queues":
                    x[:] = 0
                elif which == "rates":
                    x *= 2
                else:
                    x.setflags(write=True)
                    x[:] = 0
                return super().utilities(graph, x)
        with pytest.raises(ValueError, match="read-only|WRITEABLE"):
            run_episode(g, [SolverPolicy("lgs"), Vandal()],
                        constant_trace(3, 5), constant_trace(3, 5))


QUEUE_BOUND = 2**63 - 1


@st.composite
def bounded_cases(draw):
    # a star, BA or ER graph of up to 45 nodes, and one or two traces in
    # which some links get arrivals that sum to exactly 2**63 - 1, split
    # over one to three slots, and every rate may be 0; the policies are
    # LGS, greedy, exact up to its node cap, and GCNs of both signs
    family = draw(st.sampled_from(["star", "ba", "er"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "star":
        graph = generate_star(draw(st.integers(1, 44)))
    elif family == "ba":
        size = draw(st.integers(2, 45))
        graph = generate_ba(size, draw(st.integers(1, min(size - 1, 4))),
                            seed)
    else:
        graph = generate_er(draw(st.integers(1, 45)),
                            draw(st.sampled_from([0.0, 0.05, 0.2])), seed)
    n = graph.node_count
    horizon = draw(st.integers(1, 8))
    traces = []
    for _ in range(draw(st.integers(1, 2))):
        arrivals = np.array(draw(st.lists(
            st.integers(0, 3), min_size=horizon * n,
            max_size=horizon * n)), dtype=object).reshape(horizon, n)
        for v in draw(st.lists(st.integers(0, n - 1), max_size=3,
                               unique=True)):
            slots = draw(st.lists(st.integers(0, horizon - 1), min_size=1,
                                  max_size=3, unique=True))
            column = arrivals[:, v]
            column[slots] = 0
            rest = QUEUE_BOUND - sum(column)
            column[slots] = rest // len(slots)
            column[slots[0]] += rest % len(slots)
        rates = draw(st.lists(st.sampled_from([0, 0, 1, 2, 50, 100]),
                              min_size=horizon * n, max_size=horizon * n))
        traces.append(TrafficTrace(arrivals.astype(np.int64),
                                   np.reshape(rates, (horizon, n))))
    names = ["lgs", "greedy", "gcn-lgs", "gcn-greedy", "gcn-head"]
    if n <= EXACT_NODE_CAP:
        names.append("exact")
    policies = [
        GcnLgsPolicy(init_params((1, 4, 1), seed), solver=name[4:])
        if name in ("gcn-lgs", "gcn-greedy") else
        GcnLgsPolicy(HEAD_GCN) if name == "gcn-head" else SolverPolicy(name)
        for name in draw(st.lists(st.sampled_from(names), min_size=1,
                                  max_size=4))]
    return graph, traces, policies


class TestQueueBounds:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(bounded_cases())
    def test_every_queue_within_its_arrivals(self, case):
        # run_episode weighs with the plain product, no sign test, because
        # every queue at every slot lies in [0, its link's arrivals so far],
        # whatever the policy schedules; with arrivals at the trace's
        # 2**63 - 1 bound that is also the largest queue int64 can hold
        graph, traces, policies = case
        results = run_episode(graph, policies, *traces)
        for k, trace in enumerate(traces):
            arrived = np.zeros((trace.horizon + 1, graph.node_count),
                               dtype=np.int64)
            np.cumsum(trace.arrivals, axis=0, out=arrived[1:])
            for result in results[k * len(policies):(k + 1) * len(policies)]:
                assert result.queues.dtype == np.int64
                assert (result.queues >= 0).all()
                assert (result.queues <= arrived).all()


class FaultAt:
    """Backlog x rate, but at slot ``slot`` the last node's utility is
    ``value``."""

    def __init__(self, solver, slot, value):
        self.solver, self.slot, self.value = solver, slot, value
        self.calls = 0

    def utilities(self, graph, x):
        u = np.array(x)
        if self.calls == self.slot:
            u[:, -1] = self.value
        self.calls += 1
        return u


KERNELS = {"lgs": "lgs_kernel", "greedy": "greedy_kernel",
           "exact": "exact_kernel"}


class TestRefusalPlaces:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", sorted(KERNELS))
    def test_non_finite_utility_refused_before_its_slot_is_solved(
            self, solver, value, monkeypatch):
        # slots 0 to 2 are solved; at slot 3 the policies fill their rows,
        # one pass finds the non-finite one, and no kernel sees slot 3
        g = generate_star(5)
        solved = Counter()

        def counted(name, kernel):
            def wrapper(graph, u):
                solved[name] += 1
                return kernel(graph, u)
            return wrapper
        for name, attr in KERNELS.items():
            monkeypatch.setattr(sim, attr, counted(name, getattr(sim, attr)))
        faulty = FaultAt(solver, 3, value)
        policies = [SolverPolicy("lgs"), faulty, SolverPolicy("greedy")]
        with pytest.raises(ValueError, match="^utilities must be finite$"):
            run_episode(g, policies, constant_trace(6, 6))
        assert faulty.calls == 4
        assert solved == {name: 3 for name in {"lgs", "greedy", solver}}

    def test_negative_exact_utility_refused(self):
        g = generate_star(5)
        with pytest.raises(ValueError, match="exact solver requires "
                           "non-negative utilities"):
            run_episode(g, [FaultAt("exact", 2, -1.0)], constant_trace(4, 6))

    def test_exact_cap_refused_before_any_policy(self):
        # star40 has 41 nodes: the cap is checked once, before the first
        # slot, so no policy is called, an LGS one ahead of it included
        g = generate_star(EXACT_NODE_CAP)
        policies = [FaultAt("lgs", 0, 0.0), FaultAt("exact", 0, 0.0)]
        with pytest.raises(ValueError, match=re.escape(
                f"exact solver capped at {EXACT_NODE_CAP} nodes, got "
                f"{EXACT_NODE_CAP + 1}")):
            run_episode(g, policies, constant_trace(3, EXACT_NODE_CAP + 1))
        assert [p.calls for p in policies] == [0, 0]
        # without an exact policy the graph is fine
        run_episode(g, policies[:1], constant_trace(3, EXACT_NODE_CAP + 1))
        assert policies[0].calls == 3


def ran(graph, policy, trace):
    """The queue trajectory ``policy`` runs over the whole trace."""
    result, = run_episode(graph, [policy], trace)
    return result.queues


def rollout_reference(graph, queues, k, trace) -> list[float]:
    """Each row's lookahead ratio by plain loops: the baseline rolled k
    slots from q(b), one row at a time, each slot an explicit
    q - min(r, q) + a on LGS's schedule of that row alone."""
    def slot(q, t):
        u = baseline_utility(q, trace.rates[t])
        q = q.copy()
        for v in np.flatnonzero(lgs_rows(graph, u[None])[0][0]):
            q[v] -= min(trace.rates[t][v], q[v])
        return q + trace.arrivals[t]

    want = []
    for b in range(len(queues) - k):
        q, baseline_total = queues[b], 0
        for i in range(k):
            q = slot(q, b + i)
            baseline_total += int(q.sum())
        policy_total = sum(int(x.sum()) for x in queues[b + 1:b + k + 1])
        want.append(baseline_total / policy_total if policy_total else
                    1.0 if baseline_total == 0 else math.inf)
    return want


def angle_params(degrees) -> GcnParams:
    """The ``1,1`` GCN at angle atan2(theta1, theta0) = ``degrees``."""
    a = math.radians(degrees)
    return GcnParams((1, 1), [np.array([[math.cos(a)]])],
                     [np.array([[math.sin(a)]])])


@st.composite
def lookahead_cases(draw):
    # a star, BA, ER or tree graph of 2 to 12 nodes, B = 1 to 12 rows and
    # k = 1 to 9 steps, so k > B too. The trajectory is the baseline's own,
    # so every step agrees; a GCN's at an angle, where some or no steps
    # agree (180 degrees schedules the smallest weights); the baseline's
    # with a few states nudged, so the rollouts depart where a nudged state
    # should have come, rows of one departure need different depths, and
    # the rollout from there rejoins the next state; or random queues that
    # are no trajectory
    family = draw(st.sampled_from(["star", "ba", "er", "tree"]))
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(2, 12))
    if family == "star":
        graph = generate_star(size - 1)
    elif family == "ba":
        graph = generate_ba(size, draw(st.integers(1, size - 1)), seed)
    elif family == "er":
        graph = generate_er(size, draw(st.sampled_from([0.2, 0.5])), seed)
    else:
        graph = generate_power_law_tree(size, 3.0, seed)
    rows, k = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    trace = sample_traffic(graph, rows + k - 1,
                           draw(st.sampled_from([0.5, 3.0, 20.0])), seed)
    mode = draw(st.sampled_from(["baseline", "gcn", "nudged", "random"]))
    if mode == "random":
        queues = np.reshape(draw(st.lists(
            st.integers(0, 60), min_size=(rows + k) * size,
            max_size=(rows + k) * size)), (rows + k, size))
    elif mode == "gcn":
        degrees = draw(st.sampled_from([30, 100, 155, 180, 270]))
        queues = ran(graph, GcnLgsPolicy(angle_params(degrees)), trace)
    else:
        queues = np.array(ran(graph, SolverPolicy("lgs"), trace))
        if mode == "nudged":
            for t in draw(st.lists(st.integers(1, rows + k - 1), min_size=1,
                                   max_size=3, unique=True)):
                queues[t, draw(st.integers(0, size - 1))] += \
                    draw(st.integers(1, 3))
    return graph, np.array(queues, dtype=np.int64), k, trace


class TestLookahead:
    def test_identical_policies(self):
        # the baseline scored against its own trajectory ties everywhere
        g = generate_er(10, 0.3, 0)
        trace = sample_traffic(g, 8, 2.0, 1)
        queues = ran(g, SolverPolicy("lgs"), trace)
        ratios = lookahead_compare(g, queues, 4, trace)
        assert ratios.tolist() == [1.0] * 5

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(lookahead_cases())
    def test_ratio_matches_independent_rollout(self, case):
        # the rollouts that read the trajectory until they leave it, and
        # share what follows a departure, score every row as a rollout of
        # its own with plain loops does, bit for bit
        graph, queues, k, trace = case
        got = lookahead_compare(graph, queues, k, trace)
        assert got.tolist() == rollout_reference(graph, queues, k, trace)

    def test_zero_over_zero_is_one(self):
        g = generate_star(3)
        trace = constant_trace(5, 4, arrival=0)
        queues = ran(g, SolverPolicy("greedy"), trace)
        assert lookahead_compare(g, queues, 3, trace).tolist() == [1.0] * 3

    def test_state_not_mutated(self):
        g = generate_star(3)
        trace = sample_traffic(g, 5, 2.0, 3)
        queues = ran(g, SolverPolicy("greedy"), trace)
        before = queues.copy()
        lookahead_compare(g, queues, 3, trace)
        assert np.array_equal(queues, before)

    def test_row_conventions(self):
        # K2, no arrivals, rates (0, 5): node 0's backlog x rate is 0, so
        # the baseline always picks node 1, on ties by its larger ID; the
        # trajectory is written by hand, as lookahead_compare reads it as
        # given
        g = ConflictGraph.from_edges(2, [(0, 1)])
        queues = np.array([[1, 0], [0, 0], [0, 0], [3, 1], [0, 2]],
                          dtype=np.int64)
        k = 1
        trace = TrafficTrace(np.zeros((len(queues) - 1, 2)),
                             np.tile([0, 5], (len(queues) - 1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratios = lookahead_compare(g, queues, k, trace)
        # x/0 is inf, 0/0 is 1.0, then 0/4 and 3/2
        assert ratios.tolist() == [float("inf"), 1.0, 0.0, 1.5]
        with pytest.raises(ValueError, match="trace has 3 slots, need 4"):
            lookahead_compare(g, queues, k,
                              TrafficTrace(trace.arrivals[:-1],
                                           trace.rates[:-1]))

    def test_trajectory_shape(self):
        # B + k states give B ratios; a trajectory of the wrong width or
        # rank, or without a state past its last k, is refused
        g = generate_star(3)
        trace = constant_trace(6, 4)
        queues = ran(g, SolverPolicy("lgs"), trace)
        for k in (1, 2, 6):
            assert lookahead_compare(g, queues, k, trace).shape == (7 - k,)
        for bad in (queues[:, :3], queues[0], queues[:2]):
            with pytest.raises(ValueError, match="trajectory must be"):
                lookahead_compare(g, bad, 2, trace)

    def test_one_lgs_rows_call_then_shared_continuations(self, monkeypatch):
        # one checked baseline step from each of q(0)..q(B + k - 2), through
        # sim's names at call time, as a tracer rebinds them; on the
        # baseline's own trajectory that is all. Rollouts that leave the
        # trajectory roll on through the kernels, one row per distinct
        # departure: at most B rows, for at most k - 1 steps, fewer as the
        # late departures run out of slots
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append((name, np.shape(args[-1])))
                return function(*args)
            return wrapper
        g = generate_er(12, 0.3, 1)
        trace = sample_traffic(g, 9, 2.0, 2)
        agreeing = ran(g, SolverPolicy("lgs"), trace)
        leaving = ran(g, GcnLgsPolicy(HEAD_GCN), trace)
        for name in ("lgs_rows", "baseline_utility", "lgs_kernel",
                     "baseline_kernel"):
            monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
        first = [("baseline_utility", (9, 12)), ("lgs_rows", (9, 12))]
        assert lookahead_compare(g, agreeing, 4, trace).tolist() == [1.0] * 6
        assert calls == first
        calls.clear()
        lookahead_compare(g, leaving, 4, trace)
        assert calls[:2] == first
        widths = [shape[0] for _, shape in calls[2::2]]
        assert calls[2:] == [call for d in widths for call in (
            ("baseline_kernel", (d, 12)), ("lgs_kernel", (d, 12)))]
        assert 1 <= len(widths) <= 3
        assert 6 >= widths[0] and widths == sorted(widths, reverse=True)

    def test_shared_departure_depths(self, monkeypatch):
        # K2 with no arrivals, rates (5, 5): the baseline drains the larger
        # backlog, ties to node 1. The hand-written trajectory agrees with
        # it until q(3), which no step reaches: rows 0 to 2 depart at slot
        # 2, needing 2, 1 and 0 more steps of the one shared rollout, so
        # the continuation solves one row, twice
        g = ConflictGraph.from_edges(2, [(0, 1)])
        queues = np.array([[9, 9], [9, 4], [4, 4], [3, 3], [3, 0], [0, 0],
                           [0, 0]], dtype=np.int64)
        k = 3
        trace = TrafficTrace(np.zeros((6, 2)), np.full((6, 2), 5))
        widths = []
        kernel = sim.lgs_kernel

        def counted(graph, u):
            widths.append(len(u))
            return kernel(graph, u)
        monkeypatch.setattr(sim, "lgs_kernel", counted)
        got = lookahead_compare(g, queues, k, trace)
        assert got.tolist() == rollout_reference(g, queues, k, trace)
        # the baseline's states from q(2) = (4, 4): (4, 0), (0, 0), (0, 0)
        assert got.tolist() == [(13 + 8 + 4) / (13 + 8 + 6),
                                (8 + 4 + 0) / (8 + 6 + 3),
                                (4 + 0 + 0) / (6 + 3 + 0),
                                (3 + 0 + 0) / (3 + 0 + 0)]
        assert widths == [1, 1]

    def test_wrapped_continuation_refused(self):
        # one node, always scheduled, rate 0: the step from 2**63 - 1 with
        # one arrival wraps. The trajectory does not go there, so the
        # rollout departs, and its next weighing refuses the wrapped queue,
        # as baseline_utility does; with k = 1 nothing weighs it
        g = ConflictGraph.from_edges(1, [])
        queues = np.array([[QUEUE_BOUND], [0], [0]], dtype=np.int64)
        trace = TrafficTrace([[1], [0]], [[0], [0]])
        with pytest.raises(ValueError, match="queues and rates must be "
                           "non-negative"):
            lookahead_compare(g, queues, 2, trace)
        assert lookahead_compare(g, queues[:2], 1, trace).tolist() == \
            [math.inf]

    def test_negative_queue_refused_where_a_step_starts(self):
        # a step starts from each of q(0)..q(B + k - 2), so a negative queue
        # there is refused; q(B + k - 1) is only summed
        g = generate_star(3)
        trace = constant_trace(5, 4)
        queues = ran(g, SolverPolicy("lgs"), trace)
        for t in range(len(queues)):
            bad = queues.copy()
            bad[t, 2] = -1
            if t < len(queues) - 1:
                with pytest.raises(ValueError, match="non-negative"):
                    lookahead_compare(g, bad, 3, trace)
            else:
                lookahead_compare(g, bad, 3, trace)

    def test_bad_k(self):
        g = generate_star(3)
        trace = constant_trace(5, 4)
        queues = ran(g, SolverPolicy("lgs"), trace)
        for k in (0, -1, 6):
            with pytest.raises(ValueError):
                lookahead_compare(g, queues, k, trace)


class TestBacklogRatio:
    def test_conventions(self):
        # 0/0 is a tie, x/0 is inf, and the rest is plain division
        got = backlog_ratio([0, 3, 0, 6, 1e-300], [0, 0, 4, 4, 3.0])
        assert got.dtype == np.float64
        assert got.tolist() == [1.0, float("inf"), 0.0, 1.5, 1e-300 / 3.0]

    def test_matches_python_division(self):
        # eval writes the ratios through tolist(), as Python floats
        rng = np.random.default_rng(0)
        value, reference = rng.random(50) * 100, rng.random(50) * 7
        got = backlog_ratio(value, reference).tolist()
        assert all(type(x) is float for x in got)
        assert got == [a / b for a, b in zip(value.tolist(),
                                             reference.tolist())]


class TestRatioQuartiles:
    def test_inf_neighbors(self):
        # an exact order statistic is itself; any weight on inf gives inf
        inf = float("inf")
        assert ratio_quartiles([1.0, 2.0, inf]) == [1.5, 2.0, inf]
        assert ratio_quartiles([inf, 2.0, 1.0]) == [1.5, 2.0, inf]
        assert ratio_quartiles([1.0, inf]) == [inf] * 3
        assert ratio_quartiles([inf, inf]) == [inf] * 3
        assert ratio_quartiles([inf]) == [inf] * 3
        assert ratio_quartiles([0.5, 1.0, 2.0, 3.0, inf]) == [1.0, 2.0, 3.0]
        assert ratio_quartiles([0.0, 1.0, 2.0, inf]) == [0.75, 1.5, inf]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6) | st.sampled_from([0.0, 1.0]),
                    min_size=1, max_size=40))
    def test_finite_equals_numpy_percentile(self, ratios):
        got = ratio_quartiles(ratios)
        assert all(type(x) is float for x in got)
        assert got == np.percentile(ratios, [25, 50, 75]).tolist()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6) | st.just(float("inf")), min_size=1,
                    max_size=40))
    def test_equals_large_stand_in(self, ratios):
        # inf read as a value far above every finite ratio: a quartile that
        # gives it any weight lands above them all, and reads inf
        a = np.asarray(ratios)
        top = a[np.isfinite(a)].max(initial=0.0)
        stand_in = np.percentile(np.where(np.isfinite(a), a, 8 * (top + 1)),
                                 [25, 50, 75])
        assert ratio_quartiles(ratios) == [x if x <= top else float("inf")
                                           for x in stand_in.tolist()]


QS = (0, 25, 50, 75, 95, 100)


class TestPercentiles:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 3).map(float)
                    | st.sampled_from([0.0, -0.0])
                    | st.floats(-1e300, 1e300, allow_nan=False),
                    min_size=1, max_size=400),
           st.lists(st.sampled_from(QS), min_size=1, max_size=6))
    def test_equals_numpy_percentile_bytes(self, values, qs):
        # tie-heavy values, signed zeros and magnitudes up to 1e300: the
        # same float64 bytes as numpy's, so a -0.0 for a 0.0 counts
        got = sim.percentiles(values, qs)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.percentile(values, qs).tobytes()

    def test_signed_zeros_as_numpy(self):
        # numpy's weight at the top rank is vi + 1, and its partition puts
        # the ranks 0 and n - 1 in place too; both decide a zero's sign
        for values in ([-0.0], [-0.0, -0.0], [0.0, -0.0, 0.0, -0.0, -0.0],
                       [0.0, 0.0, 0.0, -0.0, -0.0]):
            for qs in [QS, *([q] for q in QS)]:
                assert np.array(sim.percentiles(values, qs)).tobytes() == \
                    np.percentile(values, qs).tobytes()

    def test_input_kept_unless_overwritten(self):
        values = np.array([3.0, 1.0, 2.0])
        assert sim.percentiles(values, (50,)) == [2.0]
        assert values.tolist() == [3.0, 1.0, 2.0]
        assert sim.percentiles(values, (50,), overwrite_input=True) == [2.0]
        assert values[1] == 2.0  # partitioned in place

    @pytest.mark.parametrize("values, qs, message", [
        ([1.0, float("nan")], (50,), "NaN"),
        ([float("nan")], (0,), "NaN"),
        ([-float("inf"), 1.0], (100,), "-inf"),
        ([], (50,), "no values"),
        ([1.0], (101,), r"percentile 101 outside \[0, 100\]"),
        ([1.0], (-1,), r"percentile -1 outside \[0, 100\]")])
    def test_refused(self, values, qs, message):
        with pytest.raises(ValueError, match=message):
            sim.percentiles(values, qs)


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
                                        [SolverPolicy("lgs")],
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
                g, [SolverPolicy("lgs")], TrafficTrace(lo, rates))[0])
            m_hi = compute_metrics(run_episode(
                g, [SolverPolicy("lgs")], TrafficTrace(hi, rates))[0])
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

    def test_int64_top_roundtrip(self, tmp_path):
        # one arrival of 2**63 - 1, the most a link may receive, makes its
        # column 19 digits wide; every other number keeps its own digits
        arrivals = np.zeros((3, 2), np.int64)
        arrivals[1, 1] = 2**63 - 1
        trace = TrafficTrace(arrivals, [[5, 6], [7, 100], [0, 9]], 4)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        assert path.read_bytes().endswith(
            b"1,0,0,7\r\n1,1,9223372036854775807,100\r\n2,0,0,0\r\n"
            b"2,1,0,9\r\n")
        loaded = load_trace(path, 2)
        assert loaded.checksum() == trace.checksum() and loaded.seed == 4

    def test_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(TrafficTrace([[1, 20], [300, 0]], [[5, 6], [7, 8]], 4),
                   path)
        assert path.read_bytes() == (b"# seed=4 nodes=2 horizon=2\n"
                                     b"t,node,arrival,rate\r\n"
                                     b"0,0,1,5\r\n0,1,20,6\r\n"
                                     b"1,0,300,7\r\n1,1,0,8\r\n")

    @pytest.mark.parametrize("cut, line", [
        pytest.param(3, 4, id="inside-last-row"),
        pytest.param(2, 4, id="before-last-line-end"),
        pytest.param(5, 4, id="before-last-field"),
        pytest.param(13, 3, id="end-of-row-before"),
        pytest.param(30, 2, id="inside-header"),
        pytest.param(22, 2, id="before-header-line-end"),
        pytest.param(50, 1, id="inside-metadata")])
    def test_cut_last_line_refused(self, tmp_path, cut, line):
        # every line save_trace writes has a line end, so a last line
        # without one was cut short, perhaps inside a number (a rate of 50
        # read as 5), and is refused at its line, whatever it holds
        path = tmp_path / "trace.csv"
        save_trace(TrafficTrace([[1, 12]], [[5, 50]], 4), path)
        text = path.read_bytes()
        assert text.endswith(b"\n0,1,12,50\r\n") and len(text) == 68
        path.write_bytes(text[:len(text) - cut])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {line}: {CUT_SHORT}")):
            load_trace(path, 2)

    @pytest.mark.parametrize("edit, line, end", [
        pytest.param(lambda text: text.replace("\r\n", "\n"), 2, "\r\n",
                     id="lf"),
        pytest.param(lambda text: text.replace("\r\n", "\r"), 2, "\r\n",
                     id="cr-after-metadata"),
        pytest.param(lambda text: text.replace("\r\n", "\r").replace(
            "\n", "\r"), 1, "\n", id="cr"),
        pytest.param(lambda text: text.replace("\n", "\r\n", 1), 1, "\n",
                     id="crlf-metadata"),
        pytest.param(lambda text: text.replace("0,1,12,50\r\n",
                                               "0,1,12,50\n"), 4, "\r\n",
                     id="lf-last-row"),
        pytest.param(lambda text: text.replace("0,0,", "0,\r0,"), 3, "\r\n",
                     id="cr-inside-row"),
        pytest.param(lambda text: text[:-1] + "\r\r", 4, "\r\n",
                     id="cr-before-cut")])
    def test_line_ends_read_as_written(self, tmp_path, edit, line, end):
        # save_trace ends line 1 in \n and every other line in \r\n, and
        # any other line end is refused at its line: a file rewritten with
        # \n or lone \r ends among them
        path = tmp_path / "trace.csv"
        save_trace(TrafficTrace([[1, 12]], [[5, 50]], 4), path)
        text = path.read_bytes().decode()
        path.write_bytes(edit(text).encode())
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {line}: line end other than {end!r}")):
            load_trace(path, 2)
        # the cut between the last \r and \n is cut short
        path.write_bytes(text[:-1].encode())
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4: {CUT_SHORT}")):
            load_trace(path, 2)

    def test_swapped_rows_refused(self, tmp_path):
        # save_trace writes the rows slot-major, and no other order is read
        trace = sample_traffic(generate_star(3), 5, 2.0, 3)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        lines[6], lines[7] = lines[7], lines[6]  # rows (1, 0) and (1, 1)
        write_trace_lines(path, lines)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 7: (t, node) = (1, 1), expected (1, 0)")):
            load_trace(path, 4)

    def test_row_past_the_horizon_refused(self, tmp_path):
        # a row after the last (slot, node) is refused at its line, even one
        # that continues the slot-major count
        path = tmp_path / "trace.csv"
        write_trace_lines(path, self.GOOD_TRACE + ["2,0,0,5"])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 7: (t, node) = (2, 0), expected no row after "
                "the 2 x 2 of line 1")):
            load_trace(path, 2)

    @pytest.mark.parametrize("meta, reason", [
        ("# seed=abc nodes=2 horizon=2",
         "metadata field 1 reads 'seed=abc', expected 'seed=<int or None>'"),
        ("# seed=5 nodes=2 nodes=3 horizon=2",
         "metadata field 3 reads 'nodes=3', expected 'horizon=<int>'"),
        ("# seed=5 nodes=2 horizon=2 horizon=3",
         "metadata field 4 reads 'horizon=3', expected the end of the line"),
        ("# seed=5 horizon=2 nodes=2",
         "metadata field 2 reads 'horizon=2', expected 'nodes=<int>'"),
        ("# seed=5 nodes=2 horizon=2_0",
         "metadata field 3 reads 'horizon=2_0', expected 'horizon=<int>'"),
        ("# seed=5 nodes=02 horizon=2",
         "metadata field 2 reads 'nodes=02', expected 'nodes=<int>'"),
        ("# seed=5 nodes=2 horizon=+2",
         "metadata field 3 reads 'horizon=+2', expected 'horizon=<int>'"),
        ("# seed=05 nodes=2 horizon=2",
         "metadata field 1 reads 'seed=05', expected 'seed=<int or None>'"),
        ("#seed=5 nodes=2 horizon=2", "missing trace metadata comment")])
    def test_metadata_read_as_written(self, tmp_path, meta, reason):
        # line 1 is read exactly as save_trace writes it, and the field that
        # departs from it is named
        path = tmp_path / "trace.csv"
        write_trace_lines(path, [meta] + self.GOOD_TRACE[1:])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 1: {reason}")):
            load_trace(path, 2)

    def test_arrivals_past_int64_name_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_lines(path, ["# seed=None nodes=6 horizon=4",
                                 "t,node,arrival,rate"]
                          + [f"{t},{v},{2**62},5" for t in range(4)
                             for v in range(6)])
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
        write_trace_lines(path, [text for text in lines if text is not None])
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: line {line}:")):
            load_trace(path, 2)

    @pytest.mark.parametrize("row", ["1,0,+2,5", "1,0,02,5", "01,0,2,5",
                                     "1,0, 2,5", "1,0,2,5 ", "1,-0,2,5"])
    def test_numerals_read_as_written(self, tmp_path, row):
        # numpy reads each of these as the row (1, 0, 2, 5), but save_trace
        # writes plain decimal with no whitespace: refused at its line
        lines = self.GOOD_TRACE[:4] + [row] + self.GOOD_TRACE[5:]
        path = tmp_path / "trace.csv"
        write_trace_lines(path, lines)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 5: {NOT_PLAIN}")):
            load_trace(path, 2)

    @pytest.mark.parametrize("row", ["", "1,0,1_0,5", '"1",0,2,5',
                                     "1,0,2.0,5", "1,0,2,5,"])
    def test_rows_numpy_cannot_read_name_line(self, tmp_path, row):
        # blank rows, underscores, quotes and floats are refused at their line
        lines = self.GOOD_TRACE[:4] + [row] + self.GOOD_TRACE[5:]
        path = tmp_path / "trace.csv"
        write_trace_lines(path, lines)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 5: expected four integer fields")):
            load_trace(path, 2)

    CORRUPTIONS = ("none", "junk", "short", "outside", "negative",
                   "duplicate", "beyond-int64", "blank", "cut", "swap",
                   "extra", "unplain")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.sampled_from(CORRUPTIONS), st.data())
    def test_corrupted_row_matches_reference(self, tmp_path_factory, horizon,
                                             nodes, seed, kind, data):
        # one body row corrupted: the error names that row's line, as the
        # line-at-a-time reference does; uncorrupted, both read the same
        # trace
        rng = np.random.default_rng(seed)
        trace = TrafficTrace(rng.integers(0, 1000, (horizon, nodes)),
                             rng.integers(0, 101, (horizon, nodes)))
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        size = horizon * nodes
        first = 1 if kind == "duplicate" else 0  # a duplicate needs an original
        last = size - 2 if kind == "swap" else size - 1  # a swap needs a next
        assume(first <= last)
        k = data.draw(st.integers(first, last))
        earlier = lines[2 + data.draw(st.integers(0, max(k - 1, 0)))]
        row = lines[2 + k]
        t, v, a, r = row.split(",")
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
            "swap": lines[3 + k] if kind == "swap" else None,
            "extra": row,
            "unplain": None,
        }[kind]
        if kind == "unplain":  # a row numpy reads, not as save_trace writes
            lines[2 + k] = f"{t},{v}," + data.draw(st.sampled_from(
                [f"+{a},{r}", f"0{a},{r}", f" {a},{r}", f"{a},{r}\t",
                 f"{a},-0"]))
        if kind == "cut":
            del lines[2 + k:]
        if kind == "swap":
            lines[3 + k] = row
        if kind == "extra":  # a copy of row k after the last row
            lines.append(row)
            k = size
        write_trace_lines(path, lines)
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


class TestGeneratedFiles:
    # per file, the corruptions of its body lines drawn below
    CORRUPTIONS = {
        "graph.txt": ("none", "swap", "blank", "repeat", "mirror",
                      "beyond-int64", "cut"),
        "trace.csv": ("none", "swap", "blank", "repeat", "beyond-int64",
                      "cut"),
    }

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from(["star5", "star30", "ba-m2", "ba-mix", "er",
                            "tree"]),
           st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.sampled_from(sorted(CORRUPTIONS)), st.data())
    def test_loaded_as_written_or_as_the_reference_reads(
            self, tmp_path_factory, preset, seed, horizon, name, data):
        # the graph and trace of one instance, written as generate writes
        # them, load back equal; one corruption of one file is refused at
        # the line, and with the message, of the line-at-a-time reference
        # reader
        config = parse_graph_config(preset)
        graph = config.build(seed)
        trace = sample_traffic(graph, horizon, 2.5, seed)
        folder = tmp_path_factory.mktemp("instance")
        save_graph(graph, folder / "graph.txt")
        save_trace(trace, folder / "trace.csv")
        assert load_graph(folder / "graph.txt",
                          config.max_nodes).edges() == graph.edges()
        assert load_trace(folder / "trace.csv",
                          graph.node_count).checksum() == trace.checksum()
        path = folder / name
        if name == "graph.txt":
            end, sep = "\n", " "
            read = lambda: load_graph(path, config.max_nodes).edges()
            reference = lambda: reference_load_edges(
                path, graph.node_count).edges()
        else:
            end, sep = "\r\n", ","
            read = lambda: load_trace(path, graph.node_count).checksum()
            reference = lambda: reference_load_trace(
                path, graph.node_count).checksum()
        lines = path.read_bytes().decode().split(end)
        head, body = lines[:2], lines[2:-1]  # the text ends in `end`
        kind = data.draw(st.sampled_from(self.CORRUPTIONS[name]))
        assume(len(body) >= 2 or kind in ("none", "blank", "cut"))
        assume(body or kind != "cut")
        k = data.draw(st.integers(0, max(len(body) - 2, 0)))
        fields = body[k].split(sep) if body else []
        if kind == "swap":
            body[k], body[k + 1] = body[k + 1], body[k]
        elif kind == "blank":
            body.insert(data.draw(st.integers(0, len(body))), "")
        elif kind == "repeat":
            body.insert(data.draw(st.integers(k + 1, len(body))), body[k])
        elif kind == "mirror":
            body[k] = sep.join(reversed(fields))
        elif kind == "beyond-int64":
            body[k] = sep.join(fields[:-1] + [str(2**63)])
        text = "".join(f"{line}{end}" for line in head + body)
        if kind == "cut":  # at any byte of the rows
            text = text[:data.draw(st.integers(
                len(head[0]) + len(head[1]) + 2 * len(end), len(text) - 1))]
        path.write_bytes(text.encode())
        try:
            expected = reference()
        except ValueError as exc:
            assert kind != "none"
            with pytest.raises(ValueError) as got:
                read()
            assert str(got.value) == str(exc)
        else:
            # every cut is refused, the one between the trace's last \r
            # and \n among them
            assert kind == "none"
            assert read() == expected
