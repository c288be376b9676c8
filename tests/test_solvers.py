import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksched.graph import (ConflictGraph, generate_ba, generate_er,
                             generate_power_law_tree, generate_star,
                             is_independent_mask)
from linksched.presets import parse_graph_config
from linksched.solvers import (EXACT_NODE_CAP, baseline_utility, exact_mwis,
                               greedy_centralized, lgs, lgs_rows)


def path3():
    return ConflictGraph.from_edges(3, [(0, 1), (1, 2)])


def triangle():
    return ConflictGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def ids(members):
    return np.flatnonzero(members).tolist()


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
        s = lgs(path3(), [3, 1, 2])
        assert ids(s.members) == [0, 2]
        assert s.rounds_used == 1
        assert brute_force_maximal(path3(), s.members)

    def test_star_all_ties(self):
        # each peripheral tie-beats the hub through its larger ID
        s = lgs(generate_star(5), [1.0] * 6)
        assert ids(s.members) == [1, 2, 3, 4, 5]
        assert s.rounds_used == 1

    def test_triangle(self):
        s = lgs(triangle(), [5, 3, 4])
        assert ids(s.members) == [0]
        assert s.rounds_used == 1

    def test_multi_round(self):
        # path 0-1-2-3-4 with a descending staircase forces sequential rounds
        g = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        s = lgs(g, [5, 4, 3, 2, 1])
        assert ids(s.members) == [0, 2, 4]
        assert s.rounds_used == 3

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            lgs(path3(), [1.0, np.inf, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lgs(path3(), [1.0, 2.0])


class TestGreedyCentralized:
    def test_star_hub_wins(self):
        s = greedy_centralized(generate_star(5), [2, 1, 1, 1, 1, 1])
        assert ids(s.members) == [0]

    def test_edgeless_takes_all(self):
        g = ConflictGraph.from_edges(4, [])
        s = greedy_centralized(g, [4, 1, 3, 2])
        assert ids(s.members) == [0, 1, 2, 3]

    def test_path_matches_lgs(self):
        assert np.array_equal(greedy_centralized(path3(), [3, 1, 2]).members,
                              lgs(path3(), [3, 1, 2]).members)

    def test_matches_repeated_argmax(self):
        rng = np.random.default_rng(21)
        graphs = [parse_graph_config(name).build(rng)
                  for name in ("star30", "ba-m2", "ba-mix", "er", "tree")
                  for _ in range(2)]
        graphs.append(ConflictGraph.from_edges(6, []))
        checked = 0
        for g in graphs:
            for row in tie_heavy_rows(g.node_count, rng):
                assert np.array_equal(greedy_centralized(g, row).members,
                                      reference_greedy(g, row))
                checked += 1
        assert checked == 20 * 11


class TestExactMwis:
    def test_star_hub_heavier(self):
        s = exact_mwis(generate_star(5), [6, 1, 1, 1, 1, 1])
        assert ids(s.members) == [0]

    def test_tie_prefers_excluding_low_ids(self):
        s = exact_mwis(generate_star(5), [5, 1, 1, 1, 1, 1])
        assert ids(s.members) == [1, 2, 3, 4, 5]

    def test_clique(self):
        s = exact_mwis(triangle(), [1, 2, 3])
        assert ids(s.members) == [2]

    def test_size_cap(self):
        n = EXACT_NODE_CAP + 1
        with pytest.raises(ValueError, match="capped"):
            exact_mwis(generate_er(n, 0.1, 0), np.ones(n))

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
            assert is_independent_mask(g, s.members)
            assert w[s.members].sum() == enumerate_mwis_weight(g, w)

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
                assert np.array_equal(exact_mwis(g, w).members,
                                      first_lex_mwis(g, w))
                checked += 1
        assert checked == 6 * (56 + 15 + 13)

    def test_all_zero_weights(self):
        # the lexicographically smallest zero-weight maximizer is empty
        s = exact_mwis(generate_star(5), np.zeros(6))
        assert not s.members.any()


class TestBaselineUtility:
    def test_product(self):
        assert baseline_utility([2, 0], [3, 5], "product").tolist() == [6, 0]

    def test_min(self):
        assert baseline_utility([2, 0], [3, 5], "min").tolist() == [2, 0]

    def test_zero(self):
        for kind in ("product", "min"):
            assert not baseline_utility([0, 0], [3, 5], kind).any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            baseline_utility([1, 2], [1], "product")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            baseline_utility([1], [1], "sum")


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
                s = lgs(g, row)
                assert np.array_equal(m, s.members)
                assert r == s.rounds_used
                ref_members, ref_rounds = reference_lgs(g, row)
                assert np.array_equal(s.members, ref_members)
                assert s.rounds_used == ref_rounds
                checked += 1
        assert checked == 12 * 20

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0, so the larger id wins on both sides
        g = path3()
        for row in ([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]):
            assert ids(lgs(g, row).members) == [0, 2]
            assert lgs(g, row).rounds_used == 2

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
        with pytest.raises(ValueError):
            lgs_rows(path3(), np.zeros(3))
        with pytest.raises(ValueError):
            lgs_rows(path3(), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            lgs_rows(path3(), [[0.0, np.nan, 1.0]])


class TestProperties:
    def test_validity_and_maximality(self):
        for g, u in random_instances(100, seed=1):
            for solver in (lgs, greedy_centralized):
                s = solver(g, u)
                assert brute_force_maximal(g, s.members)
            assert s.rounds_used is None or s.rounds_used <= g.node_count

    def test_lgs_equals_greedy(self):
        for g, u in random_instances(150, seed=2):
            assert np.array_equal(lgs(g, u).members,
                                  greedy_centralized(g, u).members)

    def test_round_bound(self):
        for g, u in random_instances(50, seed=3):
            assert lgs(g, u).rounds_used <= g.node_count

    def test_optimality_dominance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 18))
            g = generate_er(n, 0.3, rng)
            u = rng.random(n)
            w_exact = u[exact_mwis(g, u).members].sum()
            w_greedy = u[greedy_centralized(g, u).members].sum()
            assert w_exact >= w_greedy - 1e-12
            assert w_greedy >= u.max() - 1e-12

    def test_scale_invariance(self):
        # powers of two keep float comparisons exact
        for g, u in random_instances(30, seed=6):
            base = lgs(g, u).members
            for c in (0.25, 0.5, 2.0, 8.0):
                assert np.array_equal(lgs(g, c * u).members, base)
                assert np.array_equal(greedy_centralized(g, c * u).members,
                                      base)
            if g.node_count <= 20:
                ref = exact_mwis(g, u).members
                for c in (0.5, 4.0):
                    assert np.array_equal(exact_mwis(g, c * u).members, ref)


@st.composite
def tied_instances(draw, max_nodes=12, max_rows=1):
    # a random graph on up to max_nodes nodes with integer utilities 0-3,
    # so most rows carry ties; one utility row unless max_rows > 1
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    rows = draw(st.integers(1, max_rows))
    u = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                      min_size=rows, max_size=rows))
    graph = ConflictGraph.from_edges(n, [p for p, k in zip(pairs, keep) if k])
    u = np.array(u, dtype=np.float64)
    return graph, (u if max_rows > 1 else u[0])


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


class TestHypothesisProperties:
    @PROPERTY
    @given(tied_instances())
    def test_lgs_equals_greedy(self, instance):
        g, u = instance
        assert np.array_equal(lgs(g, u).members,
                              greedy_centralized(g, u).members)

    @PROPERTY
    @given(tied_instances())
    def test_masks_independent_and_maximal(self, instance):
        g, u = instance
        for solver in (lgs, greedy_centralized, exact_mwis):
            members = solver(g, u).members
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
            s = lgs(g, row)
            assert np.array_equal(m, s.members) and r == s.rounds_used

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
        assert u[exact_mwis(g, u).members].sum() == \
            enumerate_mwis_weight(g, u)
