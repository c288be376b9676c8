import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linksched.graph import (ConflictGraph, centralization, generate_ba,
                             generate_er, generate_power_law_tree,
                             generate_star, is_independent_mask,
                             load_graph, normalized_laplacian, save_graph)
from linksched.presets import STAR_MAX_NODES, parse_graph_config


def nbrs(g, v):
    return g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()


def laplacian_oracle(n, edges):
    # dense I - D^(-1/2) A D^(-1/2) from the edge list, isolated rows zero
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    want = np.zeros((n, n))
    for i, j in edges:
        want[i, j] = want[j, i] = \
            -((1.0 / math.sqrt(deg[i])) * (1.0 / math.sqrt(deg[j])))
    for v in range(n):
        want[v, v] = 1.0 if deg[v] else 0.0
    return want


def assert_valid_graph(g):
    for v in range(g.node_count):
        assert nbrs(g, v) == sorted(set(nbrs(g, v)))
        assert v not in nbrs(g, v)
        for w in nbrs(g, v):
            assert v in nbrs(g, w)


def connected(g):
    # BFS traversal oracle, independent of any library routine
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in nbrs(g, v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == g.node_count


class TestStar:
    def test_star5(self):
        g = generate_star(5)
        assert g.node_count == 6
        assert g.edges() == [(0, i) for i in range(1, 6)]
        assert g.degrees.tolist() == [5, 1, 1, 1, 1, 1]

    def test_smallest_star(self):
        g = generate_star(1)
        assert g.node_count == 2
        assert g.edges() == [(0, 1)]

    def test_star30(self):
        g = generate_star(30)
        assert g.node_count == 31
        assert g.degrees[0] == 30

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_star(0)

    def test_preset_node_limit(self):
        # parsing alone: the limit holds before any graph is built
        assert STAR_MAX_NODES >= 5000
        largest = parse_graph_config(f"star{STAR_MAX_NODES - 1}")
        assert largest.max_nodes == STAR_MAX_NODES
        for x in (0, STAR_MAX_NODES, 100000000000):
            with pytest.raises(ValueError, match=f"star{x}: "):
                parse_graph_config(f"star{x}")


class TestErdosRenyi:
    def test_edgeless(self):
        assert generate_er(5, 0.0, 0).edge_count == 0

    def test_complete(self):
        g = generate_er(5, 1.0, 0)
        assert g.edge_count == 10

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            generate_er(5, 1.5, 0)
        with pytest.raises(ValueError):
            generate_er(5, -0.1, 0)

    def test_expected_edge_count(self):
        # E[edges] = p * n(n-1)/2 = 0.1 * 1225 = 122.5
        counts = [generate_er(50, 0.1, seed).edge_count for seed in range(1000)]
        assert abs(np.mean(counts) - 122.5) <= 0.05 * 122.5

    def test_deterministic(self):
        assert generate_er(30, 0.2, 7).edges() == \
            generate_er(30, 0.2, 7).edges()

    def test_valid(self):
        assert_valid_graph(generate_er(40, 0.3, 11))


class TestBarabasiAlbert:
    def test_edge_count(self):
        # every new node adds exactly m edges: (n - m) * m
        g = generate_ba(70, 2, 0)
        assert g.edge_count == (70 - 2) * 2

    def test_tree_case(self):
        g = generate_ba(70, 1, 1)
        assert g.edge_count == 69
        assert connected(g)

    def test_single_attachment_step(self):
        g = generate_ba(3, 2, 0)
        assert g.edge_count == 2

    def test_bad_m(self):
        with pytest.raises(ValueError):
            generate_ba(5, 5, 0)
        with pytest.raises(ValueError):
            generate_ba(5, 0, 0)

    def test_deterministic(self):
        assert generate_ba(50, 3, 9).edges() == generate_ba(50, 3, 9).edges()

    def test_valid(self):
        for seed in range(5):
            assert_valid_graph(generate_ba(30, 2, seed))


class TestPowerLawTree:
    def test_tree_property(self):
        g = generate_power_law_tree(50, 3.0, 0)
        assert g.edge_count == 49
        assert connected(g)

    def test_two_nodes(self):
        g = generate_power_law_tree(2, 3.0, 0)
        assert g.edges() == [(0, 1)]

    def test_seeds_differ(self):
        differing = 0
        for pair in range(100):
            a = generate_power_law_tree(50, 3.0, 2 * pair)
            b = generate_power_law_tree(50, 3.0, 2 * pair + 1)
            if sorted(a.degrees.tolist()) != sorted(b.degrees.tolist()):
                differing += 1
        assert differing >= 99

    def test_too_small(self):
        with pytest.raises(ValueError):
            generate_power_law_tree(1, 3.0, 0)

    def test_deterministic(self):
        assert (generate_power_law_tree(40, 3.0, 5).edges()
                == generate_power_law_tree(40, 3.0, 5).edges())


class TestLaplacian:
    def test_single_edge(self):
        g = ConflictGraph.from_edges(2, [(0, 1)])
        assert normalized_laplacian(g).tolist() == [[1, -1], [-1, 1]]

    def test_star_spectrum(self):
        lap = normalized_laplacian(generate_star(5))
        eigs = np.linalg.eigvalsh(lap)
        assert np.allclose(np.sort(eigs), [0, 1, 1, 1, 1, 2], atol=1e-9)

    def test_edgeless_is_zero(self):
        g = ConflictGraph.from_edges(3, [])
        assert not normalized_laplacian(g).any()

    def test_cached_read_only_and_matches_edge_list(self):
        rng = np.random.default_rng(3)
        er = generate_er(40, 0.03, 1)
        assert (er.degrees == 0).any() and er.edge_count > 0
        for g in (generate_star(30), generate_ba(70, 2, rng), er,
                  ConflictGraph.from_edges(3, [])):
            lap = g.laplacian
            assert lap is g.laplacian
            assert not lap.flags.writeable
            with pytest.raises(ValueError):
                lap[0, 0] = 2.0
            # oracle from the edge list; bytes also pin +0.0 off the edges
            want = laplacian_oracle(g.node_count, g.edges())
            assert lap.tobytes() == want.tobytes()
            assert normalized_laplacian(g).tobytes() == want.tobytes()

    def test_psd_and_bounded_spectrum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 65))
            g = generate_er(n, float(rng.uniform(0, 0.5)), rng)
            lap = normalized_laplacian(g)
            assert np.array_equal(lap, lap.T)
            eigs = np.linalg.eigvalsh(lap)
            assert eigs.min() >= -1e-9
            assert eigs.max() <= 2 + 1e-9


class TestCentralization:
    def test_star30(self):
        assert centralization(generate_star(30)) == pytest.approx(15.5)

    def test_regular(self):
        assert centralization(generate_er(5, 1.0, 0)) == pytest.approx(1.0)

    def test_path(self):
        g = ConflictGraph.from_edges(3, [(0, 1), (1, 2)])
        assert centralization(g) == pytest.approx(1.5)

    def test_edgeless(self):
        with pytest.raises(ValueError):
            centralization(ConflictGraph.from_edges(3, []))


class TestIndependentSet:
    def test_peripherals(self):
        assert is_independent_mask(generate_star(5), np.arange(6) > 0)

    def test_adjacent_pair(self):
        assert not is_independent_mask(generate_star(5), np.arange(6) < 2)

    def test_empty(self):
        assert is_independent_mask(generate_star(5), np.zeros(6, dtype=bool))

    def test_out_of_range(self):
        # a mask long enough to name node 6 does not fit the 6-node star
        with pytest.raises(ValueError):
            is_independent_mask(generate_star(5), np.arange(7) == 6)

    def graphs(self):
        rng = np.random.default_rng(31)
        yield generate_star(30)
        yield generate_ba(60, 2, rng)
        yield generate_power_law_tree(40, 2.5, rng)
        for p in (0.05, 0.3):
            yield generate_er(25, p, rng)
        # isolated nodes at both ends, and no edges at all
        yield ConflictGraph.from_edges(7, [(1, 2), (2, 5)])
        yield ConflictGraph.from_edges(4, [])

    def test_mask_matches_edge_brute_force(self):
        rng = np.random.default_rng(32)
        for g in self.graphs():
            edges = g.edges()
            for density in (0.05, 0.2, 0.5):
                for _ in range(10):
                    mask = rng.random(g.node_count) < density
                    want = not any(mask[i] and mask[j] for i, j in edges)
                    assert is_independent_mask(g, mask) == want
                    assert is_independent_mask(g, mask.astype(np.int8)) == want

    def test_mask_rejects_one_conflicting_pair(self):
        for g in self.graphs():
            for i, j in g.edges():
                mask = np.zeros(g.node_count, dtype=np.int8)
                mask[[i, j]] = 1
                assert not is_independent_mask(g, mask)
                mask[j] = 0
                assert is_independent_mask(g, mask)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            is_independent_mask(generate_star(5), np.zeros(5, dtype=bool))
        with pytest.raises(ValueError):
            is_independent_mask(generate_star(5), np.zeros((1, 6), dtype=bool))


class TestBitmasks:
    @pytest.mark.parametrize("name", ["ba", "ba-dense", "er", "tree",
                                      "edgeless", "star"])
    def test_equal_python_int_definition(self, name):
        rng = np.random.default_rng(34)
        g = {"ba": lambda: generate_ba(300, 2, rng),
             "ba-dense": lambda: generate_ba(300, 20, rng),
             "er": lambda: generate_er(50, 0.1, rng),
             "tree": lambda: generate_power_law_tree(50, 3.0, rng),
             "edgeless": lambda: ConflictGraph.from_edges(9, []),
             "star": lambda: generate_star(64)}[name]()
        want = tuple(sum(1 << w for w in nbrs(g, v))
                     for v in range(g.node_count))
        assert g.neighbor_bitmasks == want


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(2, [(0, 0)])

    def test_non_pair_rejected(self):
        for edges in ([(0, 1, 2)], [(0, 1, 2, 0)], [(0,)], [0, 1]):
            with pytest.raises((ValueError, TypeError)):
                ConflictGraph.from_edges(3, edges)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="mirror"):
            ConflictGraph([0, 1, 1], [1])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ConflictGraph([0, 2, 3, 4], [2, 1, 0, 0])


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = generate_er(20, 0.3, 4)
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        loaded = load_graph(path, 20)
        assert loaded.node_count == 20 and loaded.edges() == g.edges()

    def test_format(self, tmp_path):
        path = tmp_path / "graph.txt"
        save_graph(generate_star(2), path)
        assert path.read_text() == "nodes 3\n0 1\n0 2\n"

    def test_edgeless_roundtrip(self, tmp_path):
        path = tmp_path / "graph.txt"
        save_graph(generate_er(4, 0.0), path)
        assert path.read_text() == "nodes 4\n"
        assert load_graph(path, 4).edge_count == 0

    def test_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("nodes 3\n\n0 1\n  \n\t2 0 \n\n")
        assert load_graph(path, 3).edges() == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("line, reason", [
        ("0 1_0", "non-integer endpoint"), ('"0" 1', "non-integer endpoint"),
        ("0 1.0", "non-integer endpoint"), ("0 1 2", "expected 'i j' pair"),
        ("0 100000000000000000000000", "edge (0,100000000000000000000000) "
                                       "out of range for 3 nodes")])
    def test_bad_edge_after_blank_lines_names_line(self, tmp_path, line,
                                                   reason):
        path = tmp_path / "graph.txt"
        path.write_text(f"nodes 3\n0 1\n\n{line}\n1 2\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4: {reason}")):
            load_graph(path, 3)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertices 3\n0 1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_graph(path, 3)

    def test_bad_edge_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 3\n0 1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_graph(path, 3)

    @pytest.mark.parametrize("text, line", [
        ("nodes 0\n", 1), ("nodes -2\n", 1), ("nodes 3\n0 1\n0 5\n", 3),
        ("nodes 3\n\n1 1\n", 3), ("nodes 3\n-1 2\n", 2), ("nodes 4\n", 1),
        ("nodes 100000000000\n0 1\n", 1)])
    def test_bad_graph_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_graph(path, 3)
        assert str(info.value).startswith(f"{path}: line {line}: ")


@st.composite
def edge_lists(draw, max_nodes=12):
    # pairs over the first k of n nodes, so nodes k..n-1 are isolated, plus
    # repeated and mirrored copies of drawn pairs, in shuffled order
    n = draw(st.integers(1, max_nodes))
    k = draw(st.integers(1, n))
    pairs = []
    if k > 1:
        pairs = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                        st.integers(1, k - 1)), max_size=30))
        pairs = [(i, (i + d) % k) for i, d in pairs]
    if pairs:
        copies = draw(st.lists(st.tuples(st.sampled_from(pairs),
                                         st.booleans()), max_size=10))
        pairs += [p[::-1] if flip else p for p, flip in copies]
    return n, draw(st.permutations(pairs))


def neighbor_oracle(n, pairs):
    sets = [set() for _ in range(n)]
    for i, j in pairs:
        sets[i].add(j)
        sets[j].add(i)
    return [sorted(s) for s in sets]


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def reference_load_edges(path, n):
    """The line-by-line edge reader ``load_graph`` replaced, kept as the
    reference for its diagnostics: the first bad line in file order."""
    edges = []
    lines = Path(path).read_text().splitlines()
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {ln}: expected 'i j' pair")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {ln}: non-integer endpoint") \
                from None
        if i == j:
            raise ValueError(f"{path}: line {ln}: self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}: line {ln}: edge ({i},{j}) out of "
                             f"range for {n} nodes")
        edges.append((i, j))
    return ConflictGraph.from_edges(n, edges)


class TestGraphFileProperties:
    KINDS = ("none", "junk", "triple", "self-loop", "outside", "negative",
             "beyond-int64", "blank")

    @PROPERTY
    @given(edge_lists(), st.sampled_from(KINDS), st.data())
    def test_inserted_line_matches_reference(self, tmp_path_factory, case,
                                             kind, data):
        # one line inserted among the edge lines: load_graph reads the file
        # as the line-by-line reference does, or refuses it at the same line
        n, pairs = case
        lines = [f"{i} {j}" for i, j in pairs]
        node = data.draw(st.integers(0, n - 1))
        extra = {"none": None, "junk": "junk", "triple": "0 1 0",
                 "self-loop": f"{node} {node}", "outside": f"{node} {n}",
                 "negative": f"-1 {node}", "beyond-int64": f"{node} {2**63}",
                 "blank": " \t"}[kind]
        if extra is not None:
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        path = tmp_path_factory.mktemp("graph") / "graph.txt"
        path.write_text("".join(f"{line}\n" for line in [f"nodes {n}"] + lines))
        try:
            expected = reference_load_edges(path, n).edges()
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_graph(path, n)
            assert str(got.value) == str(exc)
        else:
            assert load_graph(path, n).edges() == expected


class TestCsrProperties:
    @PROPERTY
    @given(edge_lists())
    def test_from_edges_equals_set_oracle(self, case):
        n, pairs = case
        g = ConflictGraph.from_edges(n, pairs)
        want = neighbor_oracle(n, pairs)
        assert g.node_count == n
        assert [nbrs(g, v) for v in range(n)] == want
        assert g.degrees.tolist() == [len(w) for w in want]
        assert g.edges() == sorted({(min(p), max(p)) for p in pairs})
        assert g.edge_count == len(g.edges())

    @PROPERTY
    @given(edge_lists())
    def test_cached_forms_equal_edge_list_oracles(self, case):
        n, pairs = case
        g = ConflictGraph.from_edges(n, pairs)
        want = neighbor_oracle(n, pairs)
        index, starts, higher = g.neighbor_segments
        # segment v is v itself, then its neighbors
        assert index.tolist() == [w for v, ws in enumerate(want)
                                  for w in (v, *ws)]
        assert starts.tolist() == np.cumsum(
            [0] + [1 + len(ws) for ws in want[:-1]]).tolist()
        assert higher.tolist() == [w > v for v, ws in enumerate(want)
                                   for w in (v, *ws)]
        assert g.neighbor_bitmasks == tuple(sum(1 << w for w in ws)
                                            for ws in want)
        assert g.laplacian.tobytes() == \
            laplacian_oracle(n, g.edges()).tobytes()

    @PROPERTY
    @given(edge_lists(), st.data())
    def test_malformed_csr_rejected(self, case, data):
        n, pairs = case
        g = ConflictGraph.from_edges(n, pairs)
        ptr, idx = g.indptr.copy(), g.indices.copy()
        rows = np.repeat(np.arange(n), g.degrees)
        long = ptr.copy()
        long[-1] += 1
        bad = [(ptr + 1, idx, "rise from 0"), (long, idx, "rise from 0"),
               (ptr, np.append(idx, 0), "rise from 0"),
               (ptr[None], idx, "1-D"), (ptr, idx[None], "1-D"),
               ([0], [], "at least one node")]
        if n > 1:
            drop = ptr.copy()
            drop[1] = ptr[-1] + 1
            bad.append((drop, idx, "rise from 0"))
        if idx.size:
            k = data.draw(st.integers(0, idx.size - 1))
            for value, match in ((n, "out of range"), (-1, "out of range"),
                                 (rows[k], "self-loop")):
                wrong = idx.copy()
                wrong[k] = value
                bad.append((ptr, wrong, match))
            # drop edge end k: the lists stay sorted, its mirror dangles
            short = ptr.copy()
            short[rows[k] + 1:] -= 1
            bad.append((short, np.delete(idx, k), "mirror"))
        if (g.degrees > 1).any():
            v = int(np.flatnonzero(g.degrees > 1)[0])
            for a, b in ((1, 0), (0, 0)):  # swapped, then repeated
                wrong = idx.copy()
                wrong[ptr[v]:ptr[v] + 2] = idx[ptr[v] + a], idx[ptr[v] + b]
                bad.append((ptr, wrong, "sorted and unique"))
        for indptr, indices, match in bad:
            with pytest.raises(ValueError, match=match):
                ConflictGraph(indptr, indices)

    @PROPERTY
    @given(edge_lists())
    def test_fields_read_only_and_copied(self, case):
        n, pairs = case
        ptr = ConflictGraph.from_edges(n, pairs).indptr.copy()
        idx = ConflictGraph.from_edges(n, pairs).indices.copy()
        g = ConflictGraph(ptr, idx)
        assert [f.name for f in dataclasses.fields(g)] == ["indptr",
                                                           "indices"]
        for field in (g.indptr, g.indices):
            assert not field.flags.writeable
            if field.size:
                with pytest.raises(ValueError):
                    field[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.indptr = ptr
        edges = g.edges()
        ptr[:] = 0
        idx[:] = 0
        assert g.edges() == edges
        assert [nbrs(g, v) for v in range(n)] == neighbor_oracle(n, pairs)
