import numpy as np
import pytest

from linksched.graph import (ConflictGraph, generate_ba, generate_er,
                             generate_star, is_independent_set)
from linksched.presets import parse_graph_config
from linksched.solvers import (baseline_utility, exact_mwis,
                               greedy_centralized, lgs, lgs_rows)


def path3():
    return ConflictGraph.from_edges(3, [(0, 1), (1, 2)])


def triangle():
    return ConflictGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def brute_force_maximal(g, nodes):
    # oracle: independent and no node can be added without a conflict
    if not is_independent_set(g, nodes):
        return False
    for v in range(g.node_count):
        if v not in nodes and not any(w in nodes for w in g.adjacency[v]):
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
                       for w in g.adjacency[v] if w in active)}
        chosen |= wins
        active -= wins | {w for v in wins for w in g.adjacency[v]}
    return chosen, rounds


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


class TestLgs:
    def test_path(self):
        s = lgs(path3(), [3, 1, 2])
        assert s.nodes == {0, 2}
        assert s.rounds_used == 1
        assert brute_force_maximal(path3(), s.nodes)

    def test_star_all_ties(self):
        # each peripheral tie-beats the hub through its larger ID
        s = lgs(generate_star(5), [1.0] * 6)
        assert s.nodes == {1, 2, 3, 4, 5}
        assert s.rounds_used == 1

    def test_triangle(self):
        s = lgs(triangle(), [5, 3, 4])
        assert s.nodes == {0}
        assert s.rounds_used == 1

    def test_multi_round(self):
        # path 0-1-2-3-4 with a descending staircase forces sequential rounds
        g = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        s = lgs(g, [5, 4, 3, 2, 1])
        assert s.nodes == {0, 2, 4}
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
        assert s.nodes == {0}

    def test_edgeless_takes_all(self):
        g = ConflictGraph(4, ((), (), (), ()))
        s = greedy_centralized(g, [4, 1, 3, 2])
        assert s.nodes == {0, 1, 2, 3}

    def test_path_matches_lgs(self):
        assert greedy_centralized(path3(), [3, 1, 2]).nodes == \
            lgs(path3(), [3, 1, 2]).nodes


class TestExactMwis:
    def test_star_hub_heavier(self):
        s = exact_mwis(generate_star(5), [6, 1, 1, 1, 1, 1])
        assert s.nodes == {0}

    def test_tie_prefers_excluding_low_ids(self):
        s = exact_mwis(generate_star(5), [5, 1, 1, 1, 1, 1])
        assert s.nodes == {1, 2, 3, 4, 5}

    def test_clique(self):
        s = exact_mwis(triangle(), [1, 2, 3])
        assert s.nodes == {2}

    def test_size_cap(self):
        g = generate_er(41, 0.1, 0)
        with pytest.raises(ValueError):
            exact_mwis(g, np.ones(41))

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
            assert is_independent_set(g, s.nodes)
            assert sum(w[v] for v in s.nodes) == enumerate_mwis_weight(g, w)

    def test_all_zero_weights(self):
        # the lexicographically smallest zero-weight maximizer is empty
        s = exact_mwis(generate_star(5), np.zeros(6))
        assert s.nodes == frozenset()


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
                assert set(np.flatnonzero(m).tolist()) == s.nodes
                assert r == s.rounds_used
                assert (s.nodes, s.rounds_used) == reference_lgs(g, row)
                checked += 1
        assert checked == 12 * 20

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0, so the larger id wins on both sides
        g = path3()
        for row in ([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]):
            assert lgs(g, row).nodes == frozenset({2, 0})
            assert lgs(g, row).rounds_used == 2

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
                assert brute_force_maximal(g, s.nodes)
            assert s.rounds_used is None or s.rounds_used <= g.node_count

    def test_lgs_equals_greedy(self):
        for g, u in random_instances(150, seed=2):
            assert lgs(g, u).nodes == greedy_centralized(g, u).nodes

    def test_round_bound(self):
        for g, u in random_instances(50, seed=3):
            assert lgs(g, u).rounds_used <= g.node_count

    def test_optimality_dominance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 18))
            g = generate_er(n, 0.3, rng)
            u = rng.random(n)
            w_exact = sum(u[v] for v in exact_mwis(g, u).nodes)
            w_greedy = sum(u[v] for v in greedy_centralized(g, u).nodes)
            assert w_exact >= w_greedy - 1e-12
            assert w_greedy >= u.max() - 1e-12

    def test_scale_invariance(self):
        # powers of two keep float comparisons exact
        for g, u in random_instances(30, seed=6):
            base = lgs(g, u).nodes
            for c in (0.25, 0.5, 2.0, 8.0):
                assert lgs(g, c * u).nodes == base
                assert greedy_centralized(g, c * u).nodes == base
            if g.node_count <= 20:
                ref = exact_mwis(g, u).nodes
                for c in (0.5, 4.0):
                    assert exact_mwis(g, c * u).nodes == ref
