import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksched.graph import (ConflictGraph, generate_ba, generate_er,
                             generate_power_law_tree, generate_star,
                             is_independent_mask)
from linksched.presets import parse_graph_config
from linksched.sim import TrafficTrace, lookahead_compare, run_episode
from linksched.solvers import (EXACT_NODE_CAP, baseline_utility, exact_mwis,
                               greedy_centralized, lgs_rows)


def path3():
    return ConflictGraph.from_edges(3, [(0, 1), (1, 2)])


def triangle():
    return ConflictGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def ids(members):
    return np.flatnonzero(members).tolist()


def lgs_row(graph, utilities):
    """``lgs_rows`` on one utility row: (members, rounds)."""
    members, rounds = lgs_rows(graph, np.asarray(utilities)[None])
    return members[0], int(rounds[0])


class Fixed:
    """A policy whose utilities are ``rows`` at every slot, whatever they
    are: the solvers check nothing, so a fault in ``rows`` is refused by
    :func:`run_episode`, the boundary where a policy's utilities enter."""

    def __init__(self, solver, rows):
        self.solver, self.rows = solver, rows

    def utilities(self, graph, x):
        return self.rows


def run_fixed(graph, solver, rows, traces=1):
    """One slot of ``traces`` unit traces under a :class:`Fixed` policy."""
    ones = np.ones((1, graph.node_count), dtype=np.int64)
    return run_episode(graph, [Fixed(solver, rows)],
                       *[TrafficTrace(ones, ones)] * traces)


def mask(n, nodes):
    members = np.zeros(n, dtype=bool)
    members[list(nodes)] = True
    return members


def nbrs(g, v):
    return g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()


def brute_force_maximal(g, members):
    # oracle: independent and no node can be added without a conflict
    if not is_independent_mask(g, members):
        return False
    for v in range(g.node_count):
        if not members[v] and not any(members[w] for w in nbrs(g, v)):
            return False
    return True


def reference_lgs(g, u):
    # oracle: synchronous rounds with plain (utility, id) comparisons
    active = set(range(g.node_count))
    chosen = set()
    rounds = 0
    while active:
        rounds += 1
        wins = {v for v in active
                if all((u[v], v) > (u[w], w)
                       for w in nbrs(g, v) if w in active)}
        chosen |= wins
        active -= wins | {w for v in wins for w in nbrs(g, v)}
    return mask(g.node_count, chosen), rounds


def enumerate_mwis_weight(g, w):
    # oracle: full 2^n sweep
    n = g.node_count
    masks = g.neighbor_bitmasks
    best = 0.0
    for subset in range(1 << n):
        ok = True
        total = 0.0
        for v in range(n):
            if subset >> v & 1:
                if masks[v] & subset:
                    ok = False
                    break
                total += w[v]
        if ok and total > best:
            best = total
    return best


def first_lex_mwis(g, w):
    # oracle: every subset in exclude-first lexicographic order, node 0 most
    # significant; the first independent set of maximum weight
    n = g.node_count
    codes = np.arange(1 << n)
    members = (codes[:, None] >> (n - 1 - np.arange(n))) & 1 == 1
    conflict = np.zeros(len(codes), dtype=bool)
    for i, j in g.edges():
        conflict |= members[:, i] & members[:, j]
    weight = np.where(members, np.asarray(w, dtype=np.float64), 0.0).sum(1)
    weight[conflict] = -np.inf
    return members[np.argmax(weight)]


def reference_exact(g, u):
    """The exact solver's branch and bound as plain loops, frozen: free
    nodes found one by one, every weight summed from 0.0 in ascending node
    ID, the root bound included. ``exact_mwis`` must return its mask."""
    w = [float(x) for x in u]
    n = g.node_count
    nbrs = g.neighbor_bitmasks
    positive = sum(1 << v for v in range(n) if w[v] > 0)
    best = [-1.0, 0]

    def bit_sum(mask):
        s = 0.0
        for v in range(n):
            if mask >> v & 1:
                s += w[v]
        return s

    def search(rem, weight, chosen, rem_sum):
        if weight + rem_sum <= best[0]:
            return
        free = 0
        for v in range(n):
            if rem >> v & 1 and not nbrs[v] & rem:
                free |= 1 << v
        if free:
            rem ^= free
            taken = free & positive
            gain = bit_sum(taken)
            chosen |= taken
            weight += gain
            rem_sum -= gain
        if rem == 0:
            best[:] = [weight, chosen]
            return
        v = (rem & -rem).bit_length() - 1
        search(rem & ~(1 << v), weight, chosen, rem_sum - w[v])
        dropped = nbrs[v] & rem | 1 << v
        search(rem & ~dropped, weight + w[v], chosen | (1 << v),
               rem_sum - bit_sum(dropped))

    search((1 << n) - 1, 0.0, 0, bit_sum((1 << n) - 1))
    return mask(n, [v for v in range(n) if best[1] >> v & 1])


def reference_greedy(g, u):
    # oracle: the repeated-argmax loop, global best first, ties to larger ID
    u = [float(x) for x in u]
    active = set(range(g.node_count))
    chosen = set()
    while active:
        best = max(u[v] for v in active)
        v = max(v for v in active if u[v] == best)
        chosen.add(v)
        active -= {v, *nbrs(g, v)}
    return mask(g.node_count, chosen)


def weight_rows(n, rng):
    # all zero, integers 0-1 and 0-3, products of two integers, and
    # -0.0/0.0 mixes with and without small integers
    return [np.zeros(n),
            rng.integers(0, 2, n).astype(np.float64),
            rng.integers(0, 4, n).astype(np.float64),
            (rng.integers(0, 6, n) * rng.integers(0, 6, n)).astype(np.float64),
            np.where(rng.random(n) < 0.5, -0.0, 0.0),
            np.where(rng.random(n) < 0.5, -0.0, rng.integers(0, 3, n))]


class TestLgs:
    def test_path(self):
        members, rounds = lgs_row(path3(), [3, 1, 2])
        assert ids(members) == [0, 2]
        assert rounds == 1
        assert brute_force_maximal(path3(), members)

    def test_star_all_ties(self):
        # each peripheral tie-beats the hub through its larger ID
        members, rounds = lgs_row(generate_star(5), [1.0] * 6)
        assert ids(members) == [1, 2, 3, 4, 5]
        assert rounds == 1

    def test_triangle(self):
        members, rounds = lgs_row(triangle(), [5, 3, 4])
        assert ids(members) == [0]
        assert rounds == 1

    def test_multi_round(self):
        # path 0-1-2-3-4 with a descending staircase forces sequential rounds
        g = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        members, rounds = lgs_row(g, [5, 4, 3, 2, 1])
        assert ids(members) == [0, 2, 4]
        assert rounds == 3

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^utilities must be finite$"):
            run_fixed(path3(), "lgs", np.array([[1.0, np.inf, 0.0]]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=re.escape(
                "utilities of shape (1, 2), not (1, 3)")):
            run_fixed(path3(), "lgs", np.array([[1.0, 2.0]]))


class TestGreedyCentralized:
    def test_star_hub_wins(self):
        s = greedy_centralized(generate_star(5), [2, 1, 1, 1, 1, 1])
        assert ids(s) == [0]

    def test_edgeless_takes_all(self):
        g = ConflictGraph.from_edges(4, [])
        s = greedy_centralized(g, [4, 1, 3, 2])
        assert ids(s) == [0, 1, 2, 3]

    def test_path_matches_lgs(self):
        assert np.array_equal(greedy_centralized(path3(), [3, 1, 2]),
                              lgs_row(path3(), [3, 1, 2])[0])

    def test_matches_repeated_argmax(self):
        rng = np.random.default_rng(21)
        graphs = [parse_graph_config(name).build(rng)
                  for name in ("star30", "ba-m2", "ba-mix", "er", "tree")
                  for _ in range(2)]
        graphs.append(ConflictGraph.from_edges(6, []))
        checked = 0
        for g in graphs:
            for row in tie_heavy_rows(g.node_count, rng):
                assert np.array_equal(greedy_centralized(g, row),
                                      reference_greedy(g, row))
                checked += 1
        assert checked == 20 * 11


class TestExactMwis:
    def test_star_hub_heavier(self):
        s = exact_mwis(generate_star(5), [6, 1, 1, 1, 1, 1])
        assert ids(s) == [0]

    def test_tie_prefers_excluding_low_ids(self):
        s = exact_mwis(generate_star(5), [5, 1, 1, 1, 1, 1])
        assert ids(s) == [1, 2, 3, 4, 5]

    def test_clique(self):
        s = exact_mwis(triangle(), [1, 2, 3])
        assert ids(s) == [2]

    def test_size_cap(self):
        n = EXACT_NODE_CAP + 1
        with pytest.raises(ValueError, match="capped"):
            run_fixed(generate_er(n, 0.1, 0), "exact", np.ones((1, n)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            exact_mwis(path3(), [1.0, -0.5, 1.0])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            g = generate_er(n, float(rng.uniform(0.1, 0.9)), rng)
            w = rng.integers(0, 50, size=n).astype(float)
            s = exact_mwis(g, w)
            assert is_independent_mask(g, s)
            assert w[s].sum() == enumerate_mwis_weight(g, w)

    def test_matches_first_lex_maximizer(self):
        # by set, not weight: the reduction must keep the tie rule
        rng = np.random.default_rng(22)
        graphs = [generate_er(n, p, rng) for n in range(1, 15)
                  for p in (0.0, 0.15, 0.6, 1.0)]
        graphs += [generate_star(x) for x in range(1, 16)]
        graphs += [generate_power_law_tree(n, 2.5, rng) for n in range(2, 15)]
        checked = 0
        for g in graphs:
            for w in weight_rows(g.node_count, rng):
                assert np.array_equal(exact_mwis(g, w),
                                      first_lex_mwis(g, w))
                checked += 1
        assert checked == 6 * (56 + 15 + 13)

    @pytest.mark.parametrize("leaves, weight, sequential, exact", [
        (10, 0.1, 0.9999999999999999, 1.0),
        (13, 0.3, 3.899999999999999, 3.9)])
    def test_near_tie_sums_sequentially(self, leaves, weight, sequential,
                                        exact):
        # the leaves sum to `sequential` from 0.0 in order, but to `exact`
        # compensated (math.fsum; np.sum too for ten leaves): a hub of the
        # sequential sum ties them, and the leaves win; a hub of the exact
        # sum beats them. Ten leaves are summed bit by bit, thirteen in the
        # C fold.
        g = generate_star(leaves)
        w = [weight] * leaves
        assert ids(exact_mwis(g, [sequential] + w)) == \
            list(range(1, leaves + 1))
        assert ids(exact_mwis(g, [exact] + w)) == [0]

    def test_all_zero_weights(self):
        # the lexicographically smallest zero-weight maximizer is empty
        s = exact_mwis(generate_star(5), np.zeros(6))
        assert not s.any()


class TestBaselineUtility:
    def test_product(self):
        assert baseline_utility([2, 0], [3, 5]).tolist() == [6, 0]

    def test_zero(self):
        assert not baseline_utility([0, 0], [3, 5]).any()

    def test_length_mismatch(self):
        # rates of another width than the queues enter with a trace, and
        # the lookahead refuses them before it weighs anything
        g = path3()
        queues = np.zeros((3, 3), dtype=np.int64)
        trace = TrafficTrace(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="^queue and rate vectors differ "
                           "in length$"):
            lookahead_compare(g, queues, 1, trace)

    def test_into_out_casts_before_multiplying(self):
        # int64 sides whose product passes 2**63 land in ``out`` as the
        # float64 product: each side is cast first, so nothing wraps
        q = np.full((2, 1, 3), 2**62, dtype=np.int64)
        r = np.full((1, 3), 100, dtype=np.int64)
        out = np.empty((2, 1, 3))
        assert baseline_utility(q, r, out=out) is out
        assert (out == float(2**62) * 100.0).all()
        assert out.tobytes() == baseline_utility(q, r).tobytes()


def random_instances(count, seed, max_nodes=60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            n = int(rng.integers(2, max_nodes + 1))
            p = float(rng.choice([0.05, 0.1, 0.3]))
            g = generate_er(n, p, rng)
        else:
            m = int(rng.choice([1, 2, 5]))
            n = int(rng.integers(m + 1, max_nodes + 1))
            g = generate_ba(n, m, rng)
        yield g, rng.random(g.node_count)


def tie_heavy_rows(n, rng):
    # integer utilities 0-3, an all-zero row, -0.0/0.0 mixes, and draws
    # that mix signed zeros with small integers
    rows = [rng.integers(0, 4, n).astype(np.float64) for _ in range(12)]
    rows.append(np.zeros(n))
    rows += [np.where(rng.random(n) < 0.5, -0.0, 0.0) for _ in range(4)]
    rows += [np.where(rng.random(n) < 0.5, -0.0, rng.integers(0, 3, n))
             for _ in range(3)]
    return np.array(rows, dtype=np.float64)


def signed_tie_rows(n, rng, count):
    # the tie-heavy rows, then integers -3..3, -0.0/0.0 mixes with negative
    # integers, all -0.0 and signed floats, then shuffled copies up to count
    rows = list(tie_heavy_rows(n, rng))
    rows += [rng.integers(-3, 4, n).astype(np.float64) for _ in range(12)]
    rows += [np.where(rng.random(n) < 0.5, -0.0,
                      -rng.integers(0, 3, n).astype(np.float64))
             for _ in range(6)]
    rows.append(np.full(n, -0.0))
    rows += [rng.normal(0.0, 1.0, n) for _ in range(4)]
    rows += [rng.permutation(rows[k % len(rows)])
             for k in range(len(rows), count)]
    return np.array(rows[:count])


class TestLgsRows:
    def graphs(self):
        rng = np.random.default_rng(11)
        for name in ("star30", "ba-m2", "ba-mix", "er", "tree"):
            for _ in range(2):
                yield parse_graph_config(name).build(rng)
        # isolated nodes, and a graph with no edges at all
        yield ConflictGraph.from_edges(7, [(1, 2), (2, 5)])
        yield ConflictGraph.from_edges(5, [])

    def test_rows_match_per_row_lgs_and_reference(self):
        rng = np.random.default_rng(12)
        checked = 0
        for g in self.graphs():
            u = tie_heavy_rows(g.node_count, rng)
            members, rounds = lgs_rows(g, u)
            assert members.shape == u.shape and rounds.shape == (len(u),)
            for row, m, r in zip(u, members, rounds):
                one_members, one_rounds = lgs_row(g, row)
                assert np.array_equal(m, one_members)
                assert r == one_rounds
                ref_members, ref_rounds = reference_lgs(g, row)
                assert np.array_equal(one_members, ref_members)
                assert one_rounds == ref_rounds
                checked += 1
        assert checked == 12 * 20

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0, so the larger id wins on both sides
        g = path3()
        for row in ([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]):
            assert ids(lgs_row(g, row)[0]) == [0, 2]
            assert lgs_row(g, row)[1] == 2

    def test_128_rows_match_reference(self):
        # the lookahead's batch size, on its two training families, with
        # negative utilities and -0.0/0.0 mixes among the tie-heavy rows
        rng = np.random.default_rng(13)
        for name in ("star30", "ba-m2"):
            for _ in range(2):
                g = parse_graph_config(name).build(rng)
                u = signed_tie_rows(g.node_count, rng, 128)
                members, rounds = lgs_rows(g, u)
                for row, m, r in zip(u, members, rounds):
                    ref_members, ref_rounds = reference_lgs(g, row)
                    assert np.array_equal(m, ref_members)
                    assert r == ref_rounds

    def test_rows_equal_greedy(self):
        # training's greedy main trajectory stands in for LGS: the same
        # schedule on every row, signed utilities and -0.0/0.0 ties included
        rng = np.random.default_rng(15)
        for g in self.graphs():
            u = signed_tie_rows(g.node_count, rng, 64)
            members, _ = lgs_rows(g, u)
            for row, m in zip(u, members):
                assert np.array_equal(m, greedy_centralized(g, row))

    def test_rows_independent_of_batch(self):
        # a row's schedule does not depend on the rows beside it, whatever
        # the batch size and its padding
        rng = np.random.default_rng(14)
        g = parse_graph_config("ba-m2").build(rng)
        u = signed_tie_rows(g.node_count, rng, 130)
        members, rounds = lgs_rows(g, u)
        for b in (1, 2, 3, 5, 8, 9, 17, 64, 129):
            part_members, part_rounds = lgs_rows(g, u[:b])
            assert np.array_equal(part_members, members[:b])
            assert np.array_equal(part_rounds, rounds[:b])
        empty_members, empty_rounds = lgs_rows(g, u[:0])
        assert empty_members.shape == (0, g.node_count)
        assert empty_rounds.shape == (0,)

    def test_bad_shapes_and_values(self):
        # a policy's rows for LGS are refused where they enter
        for rows in (np.zeros(3), np.zeros((2, 4))):
            with pytest.raises(ValueError, match="utilities of shape"):
                run_fixed(path3(), "lgs", rows, traces=2)
        with pytest.raises(ValueError, match="^utilities must be finite$"):
            run_fixed(path3(), "lgs", np.array([[0.0, np.nan, 1.0]]))


class TestProperties:
    def test_validity_and_maximality(self):
        for g, u in random_instances(100, seed=1):
            members, rounds = lgs_row(g, u)
            assert brute_force_maximal(g, members)
            assert rounds <= g.node_count
            assert brute_force_maximal(g, greedy_centralized(g, u))

    def test_lgs_equals_greedy(self):
        for g, u in random_instances(150, seed=2):
            assert np.array_equal(lgs_row(g, u)[0],
                                  greedy_centralized(g, u))

    def test_round_bound(self):
        for g, u in random_instances(50, seed=3):
            assert lgs_row(g, u)[1] <= g.node_count

    def test_optimality_dominance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 18))
            g = generate_er(n, 0.3, rng)
            u = rng.random(n)
            w_exact = u[exact_mwis(g, u)].sum()
            w_greedy = u[greedy_centralized(g, u)].sum()
            assert w_exact >= w_greedy - 1e-12
            assert w_greedy >= u.max() - 1e-12

    def test_scale_invariance(self):
        # powers of two keep float comparisons exact
        for g, u in random_instances(30, seed=6):
            base = lgs_row(g, u)[0]
            for c in (0.25, 0.5, 2.0, 8.0):
                assert np.array_equal(lgs_row(g, c * u)[0], base)
                assert np.array_equal(greedy_centralized(g, c * u),
                                      base)
            if g.node_count <= 20:
                ref = exact_mwis(g, u)
                for c in (0.5, 4.0):
                    assert np.array_equal(exact_mwis(g, c * u), ref)


# signed utilities, as the GCN gives, with -0.0 beside 0.0
SIGNED_TIES = st.one_of(st.integers(-3, 3), st.just(-0.0))


@st.composite
def tied_instances(draw, max_nodes=12, max_rows=1, values=st.integers(0, 3)):
    # a random graph on up to max_nodes nodes with utilities drawn from
    # values (default integers 0-3), so most rows carry ties; one utility
    # row unless max_rows > 1
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    rows = draw(st.integers(1, max_rows))
    u = draw(st.lists(st.lists(values, min_size=n, max_size=n),
                      min_size=rows, max_size=rows))
    graph = ConflictGraph.from_edges(n, [p for p, k in zip(pairs, keep) if k])
    u = np.array(u, dtype=np.float64)
    return graph, (u if max_rows > 1 else u[0])


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


class TestHypothesisProperties:
    @PROPERTY
    @given(tied_instances(values=SIGNED_TIES))
    def test_lgs_equals_greedy(self, instance):
        # training schedules its main trajectory with greedy on this property
        g, u = instance
        assert np.array_equal(lgs_row(g, u)[0],
                              greedy_centralized(g, u))

    @PROPERTY
    @given(tied_instances())
    def test_masks_independent_and_maximal(self, instance):
        g, u = instance
        for solver in (lambda g, u: lgs_row(g, u)[0], greedy_centralized,
                       exact_mwis):
            members = solver(g, u)
            assert members.dtype == bool and members.shape == (g.node_count,)
            assert is_independent_mask(g, members)
            if solver is not exact_mwis:
                assert brute_force_maximal(g, members)

    @PROPERTY
    @given(tied_instances(max_rows=4))
    def test_lgs_rows_equals_lgs_per_row(self, instance):
        g, u = instance
        members, rounds = lgs_rows(g, u)
        for row, m, r in zip(u, members, rounds):
            one_members, one_rounds = lgs_row(g, row)
            assert np.array_equal(m, one_members) and r == one_rounds

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.sampled_from(["star30", "ba-m2"]), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                    min_size=1, max_size=6, unique=True))
    def test_lgs_rows_128_equals_reference(self, name, seed, palette):
        # 128 rows over a drawn palette of signed values and zeros
        rng = np.random.default_rng(seed)
        g = parse_graph_config(name).build(rng)
        u = rng.choice(palette, size=(128, g.node_count))
        members, rounds = lgs_rows(g, u)
        for row, m, r in zip(u, members, rounds):
            ref_members, ref_rounds = reference_lgs(g, row)
            assert np.array_equal(m, ref_members) and r == ref_rounds

    @PROPERTY
    @given(tied_instances())
    def test_exact_weight_equals_enumeration(self, instance):
        g, u = instance
        assert u[exact_mwis(g, u)].sum() == \
            enumerate_mwis_weight(g, u)


def reference_baseline_utility(queues, rates):
    """The two-test rule that one fmin test replaced, kept as the
    reference: both sides cast to float64, each tested for a negative."""
    q = np.asarray(queues, dtype=np.float64)
    r = np.asarray(rates, dtype=np.float64)
    if q.shape != r.shape:
        raise ValueError("queue and rate vectors differ in length")
    if (q < 0).any() or (r < 0).any():
        raise ValueError("queues and rates must be non-negative")
    return q * r


# int64 extremes, -0.0, NaN, inf and negatives on both sides
UTILITY_INTS = st.integers(-2**63, 2**63 - 1)
UTILITY_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                           st.sampled_from([-0.0, 0.0, -1.0, np.nan, -np.inf]))


@st.composite
def queue_rate_pairs(draw):
    # (V,) or (B, V) sides, each all int or all float
    shape = draw(st.sampled_from([(0,), (1,), (5,), (2, 3)]))
    size = int(np.prod(shape))
    sides = []
    for _ in range(2):
        kind = draw(st.sampled_from([UTILITY_INTS, UTILITY_FLOATS]))
        values = draw(st.lists(kind, min_size=size, max_size=size))
        dtype = np.int64 if kind is UTILITY_INTS else np.float64
        sides.append(np.array(values, dtype=dtype).reshape(shape))
    return sides


def exclude_first_mwis(g, w):
    """Every independent set of ``g`` in exclude-first order, node 0 most
    significant, by a search over the edge list; the first of maximum
    weight, as a (V,) bool mask. Its cost grows with the number of
    independent sets, not with 2^V."""
    n = g.node_count
    conflicts = [0] * n
    for i, j in g.edges():
        conflicts[i] |= 1 << j
        conflicts[j] |= 1 << i
    best = [-1.0, 0]

    def visit(v, chosen, weight):
        if v == n:
            if weight > best[0]:
                best[:] = [weight, chosen]
            return
        visit(v + 1, chosen, weight)
        if not conflicts[v] & chosen:
            visit(v + 1, chosen | 1 << v, weight + w[v])

    visit(0, 0, 0.0)
    return np.array([best[1] >> v & 1 for v in range(n)], dtype=bool)


@st.composite
def float_weight_instances(draw):
    """Stars of 5, 10, 30 and 39 leaves, ER graphs of up to 40 nodes, and
    ER graphs scattered among isolated nodes, weighed with non-dyadic
    floats: uniform, or integer backlog x fractional rate; some weights
    zero of either sign."""
    family = draw(st.sampled_from(["star", "er", "isolated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "star":
        g = generate_star(draw(st.sampled_from([5, 10, 30, 39])))
    elif family == "er":
        g = generate_er(int(rng.integers(1, EXACT_NODE_CAP + 1)), rng.random(),
                        rng)
    else:
        n = int(rng.integers(2, EXACT_NODE_CAP + 1))
        core = generate_er(int(rng.integers(1, n)), rng.random(), rng)
        labels = rng.permutation(n)
        g = ConflictGraph.from_edges(
            n, [(labels[i], labels[j]) for i, j in core.edges()])
    n = g.node_count
    if draw(st.booleans()):
        w = rng.random(n) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    else:
        w = baseline_utility(rng.integers(0, 40, n), rng.uniform(0.1, 2.0, n))
    zero = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    w[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return g, w


class TestFastPathProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(queue_rate_pairs())
    # a NaN beside a negative is refused, though np.minimum would hide it
    @example([np.array([np.nan]), np.array([-1.0])])
    @example([np.array([-3]), np.array([np.nan])])
    @example([np.array([np.nan, 2.0]), np.array([-0.0, np.nan])])
    # a product may overflow or be 0 x inf or hold a NaN: numpy's warnings
    # on those float sides, which no queue or rate of the program has, are
    # not this test's subject
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_baseline_utility_equals_two_test_rule(self, sides):
        # where the rule accepts the sides, the product is the rule's bit
        # for bit; where it refuses them, baseline_utility, unchecked,
        # still gives the cast product: the queues' sign is refused where
        # they enter (run_episode makes none negative, lookahead_compare
        # refuses one), and a trace's rates are checked when it is built
        q, r = sides
        try:
            want = reference_baseline_utility(q, r)
        except ValueError:
            want = q.astype(np.float64) * r.astype(np.float64)
        got = baseline_utility(q, r)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the same values as lists, as the unit tests pass them
        assert baseline_utility(q.tolist(), r.tolist()).tobytes() == \
            want.tobytes()

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.sampled_from([1, 7, 8, 9, EXACT_NODE_CAP]),
           st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0]),
                    min_size=1, max_size=4, unique=True))
    def test_exact_mask_equals_enumeration(self, n, seed, palette):
        # 7, 8 and 9 nodes pack into one or two bytes; at the 40-node cap
        # the graph is dense enough to enumerate its independent sets
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.6, 1.0) if n == EXACT_NODE_CAP else rng.random()
        g = generate_er(n, p, rng)
        w = rng.choice(palette, size=n)
        got = exact_mwis(g, w)
        assert got.dtype == bool and got.shape == (n,)
        assert got.flags.writeable
        assert np.array_equal(got, exclude_first_mwis(g, w))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(float_weight_instances())
    def test_exact_equals_reference_on_floats(self, instance):
        # every summation order gives a dyadic palette one sum; these
        # weights pin the order, so the mask is the plain loops' mask
        g, w = instance
        assert np.array_equal(exact_mwis(g, w), reference_exact(g, w))


@st.composite
def solver_stacks(draw):
    # a star, BA (m = 2), ER or power-law tree graph of 3 to 60 nodes, and a
    # (B, V) stack, B from 0 to 6, of tie-heavy integer utilities with
    # signed zeros
    family = draw(st.sampled_from(["star", "ba-m2", "er", "tree"]))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 60))
    if family == "star":
        g = generate_star(n - 1)
    elif family == "ba-m2":
        g = generate_ba(n, 2, seed)
    elif family == "er":
        g = generate_er(n, draw(st.sampled_from([0.05, 0.2, 0.6])), seed)
    else:
        g = generate_power_law_tree(n, 3.0, seed)
    rows = draw(st.integers(0, 6))
    palette = np.array([-0.0, 0.0, 1.0, 2.0, 3.0])
    return g, np.random.default_rng(seed).choice(palette, size=(rows, n))


class TestStacks:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(solver_stacks())
    def test_stack_equals_per_row_calls(self, case):
        # each row of a stacked call is bitwise the one-row call; greedy
        # also on the negated rows, and exact only up to its node cap
        g, u = case
        cases = [(greedy_centralized, u), (greedy_centralized, -u)]
        if g.node_count <= EXACT_NODE_CAP:
            cases.append((exact_mwis, u))
        for solver, stack in cases:
            got = solver(g, stack)
            assert got.dtype == bool and got.shape == stack.shape
            want = [solver(g, row) for row in stack]
            assert all(row.shape == (g.node_count,) for row in want)
            assert got.tobytes() == np.array(want, dtype=bool).tobytes()

    @pytest.mark.parametrize("solver", [greedy_centralized, exact_mwis])
    def test_one_bad_row_refused_with_its_fault(self, solver):
        # a stack is refused as its faulty row alone is, whichever row
        # that is, and a stack of the wrong shape names its shape: the
        # exact solver's own sign test on the stack and on the row, and
        # the rest where a policy's rows enter, run_episode, over one trace
        # and over four
        g = generate_star(5)
        name = "exact" if solver is exact_mwis else "greedy"
        faults = [(np.nan, "utilities must be finite"),
                  (np.inf, "utilities must be finite")]
        if solver is exact_mwis:
            faults.append((-1.0, "requires non-negative utilities"))
        for value, message in faults:
            for k in range(4):
                stack = np.ones((4, 6))
                stack[k, 3] = value
                with pytest.raises(ValueError, match=message):
                    run_fixed(g, name, stack[k:k + 1])
                with pytest.raises(ValueError, match=message):
                    run_fixed(g, name, stack, traces=4)
                if value == -1.0:
                    with pytest.raises(ValueError, match=message):
                        exact_mwis(g, stack[k])
                    with pytest.raises(ValueError, match=message):
                        exact_mwis(g, stack)
        for shape in ((4, 5), (2, 2, 6), ()):
            with pytest.raises(ValueError, match=re.escape(
                    f"utilities of shape {shape}, not (4, 6)")):
                run_fixed(g, name, np.ones(shape), traces=4)
        if solver is exact_mwis:
            n = EXACT_NODE_CAP + 1
            with pytest.raises(ValueError, match="capped"):
                run_fixed(generate_star(n - 1), "exact", -np.ones((2, n)),
                          traces=2)

    def test_refusals_in_order(self):
        # the cap before any slot, then at a slot the shape, non-finite
        # entries and a negative weight
        big = generate_star(EXACT_NODE_CAP)
        n = big.node_count
        stack = np.ones((3, n))
        stack[0, 0], stack[2, 1] = -1.0, np.nan
        with pytest.raises(ValueError, match="capped"):
            run_fixed(big, "exact", stack[:, 1:], traces=3)
        small = generate_star(5)
        with pytest.raises(ValueError, match="utilities of shape"):
            run_fixed(small, "exact", stack[:, 1:6], traces=2)
        with pytest.raises(ValueError, match="finite"):
            run_fixed(small, "exact", stack[:, :6], traces=3)
        with pytest.raises(ValueError, match="non-negative"):
            run_fixed(small, "exact", stack[:2, :6], traces=2)

    def test_empty_stack(self):
        g = generate_star(5)
        for solver in (greedy_centralized, exact_mwis):
            got = solver(g, np.zeros((0, 6)))
            assert got.dtype == bool and got.shape == (0, 6)
