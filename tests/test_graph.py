import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import linksched
from linksched.graph import (ConflictGraph, centralization, format_int_rows,
                             generate_ba, generate_er,
                             generate_power_law_tree, generate_star,
                             is_independent_mask, load_graph,
                             normalized_laplacian, read_int_rows, save_graph,
                             weighted_draw)
from linksched.presets import (BA_MIX_ATTACH, BA_MIX_SIZES, STAR_MAX_NODES,
                               parse_graph_config)


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


def reference_ba(n, m, gen):
    # the preferential-attachment loop on numpy's own draw: the degree
    # array summed per added node, gen.choice, and a list of edge tuples
    degree = np.zeros(n, dtype=np.float64)
    edges = []
    for new in range(m, n):
        total = degree[:new].sum()
        probs = degree[:new] / total if total else np.full(new, 1.0 / new)
        targets = gen.choice(new, size=m, replace=False, p=probs)
        edges += [(t, new) for t in targets.tolist()]
        degree[targets] += 1
        degree[new] += m
    return ConflictGraph.from_edges(n, edges)


def reference_power_law_tree(n, gamma, gen):
    # the tree loop on numpy's own draw: gen.choice of one parent per added
    # node, and a list of edge tuples
    pmf = np.arange(1, n, dtype=np.float64) ** (-gamma)
    targets = gen.choice(n - 1, size=n, p=pmf / pmf.sum()) + 1
    degree = np.zeros(n, dtype=np.int64)
    edges = []
    for new in range(1, n):
        budget = np.maximum(targets[:new] - degree[:new], 1).astype(np.float64)
        parent = int(gen.choice(new, p=budget / budget.sum()))
        edges.append((parent, new))
        degree[parent] += 1
        degree[new] += 1
    return ConflictGraph.from_edges(n, edges)


def assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_weighted_draw_is_generator_choice(self, data):
        # integer degree-like weights with zeros, or a uniform start, and
        # sizes often close to the nonzero count, where retries are most
        # frequent
        n = data.draw(st.integers(1, 60))
        if data.draw(st.booleans()):
            p = np.full(n, 1.0 / n)
        else:
            weights = np.array(data.draw(st.lists(
                st.integers(0, 40), min_size=n, max_size=n)), np.float64)
            assume(weights.any())
            p = weights / weights.sum()
        nonzero = int(np.count_nonzero(p))
        size = data.draw(st.integers(1, nonzero)
                         | st.integers(max(1, nonzero - 3), nonzero))
        seed = data.draw(st.integers(0, 2**32 - 1))
        numpy_gen = np.random.default_rng(seed)
        want = numpy_gen.choice(n, size=size, replace=False, p=p)
        # the same weights as every other entry of a larger array, between
        # NaNs that a read past the view would pick up
        wide = np.full(2 * n, np.nan)
        wide[::2] = p
        for weights, base in ((p, p), (wide[::2], wide)):
            held = base.tobytes()
            our_gen = np.random.default_rng(seed)
            got = weighted_draw(our_gen, weights, size)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert our_gen.bit_generator.state == numpy_gen.bit_generator.state
            assert base.tobytes() == held

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0],
                                         [math.nan, 0.5, 0.5]],
                             ids=["too-few-positive", "all-zero", "nan"])
    def test_weighted_draw_refuses_what_choice_refuses(self, weights):
        p = np.array(weights)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, size=3, replace=False, p=p)
        # in a child process, so a draw that never ends fails on the timeout
        code = ("import json, sys\n"
                "import numpy as np\n"
                "from linksched.graph import weighted_draw\n"
                "p = np.array(json.loads(sys.argv[1]))\n"
                "try:\n"
                "    print(weighted_draw(np.random.default_rng(0), p, 3))\n"
                "except ValueError as error:\n"
                "    print('ValueError:', error)\n")
        src = str(Path(linksched.__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-c", code, json.dumps(weights)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert child.returncode == 0, child.stderr
        positive = np.count_nonzero(p > 0)
        assert child.stdout.startswith(
            f"ValueError: cannot draw 3 distinct indices: {positive} of 3 "
            "weights are positive"), child.stdout

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.data())
    def test_equals_reference_ba(self, data):
        # m = 1 is a tree, m <= 20 covers the presets, and m >= n - 3 draws
        # most of the existing nodes, where retries are most frequent
        n = data.draw(st.integers(2, 320))
        m = data.draw(st.integers(1, n - 1) | st.integers(1, min(20, n - 1))
                      | st.sampled_from([1, n - 1])
                      | st.integers(max(1, n - 3), n - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        ours, numpys = (np.random.default_rng(seed) for _ in range(2))
        assert_same_csr(generate_ba(n, m, ours), reference_ba(n, m, numpys))
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_ba_mix_equals_reference(self):
        for seed in range(6):
            ours, numpys = (np.random.default_rng(seed) for _ in range(2))
            got = parse_graph_config("ba-mix").build(ours)
            n = int(numpys.choice(BA_MIX_SIZES))
            m = int(numpys.choice(BA_MIX_ATTACH))
            assert_same_csr(got, reference_ba(n, m, numpys))
            assert ours.bit_generator.state == numpys.bit_generator.state


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

    @pytest.mark.parametrize("n, gamma", [(50, 3.0), (2, 3.0), (3, 1.5),
                                          (120, 2.2)])
    def test_equals_reference_tree(self, n, gamma):
        # each parent is weighted_draw's one draw, numpy's choice step for
        # step: the same trees, and the generator left in the same state
        for seed in range(40):
            ours, numpys = (np.random.default_rng(seed) for _ in range(2))
            got = generate_power_law_tree(n, gamma, ours)
            assert_same_csr(got, reference_power_law_tree(n, gamma, numpys))
            assert ours.bit_generator.state == numpys.bit_generator.state


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
        # the last axis is the node axis, V long, whatever comes before it
        g = generate_star(5)
        for shape in ((5,), (7,), (1, 5), (2, 7), (3, 1, 5), ()):
            with pytest.raises(ValueError, match="does not match 6 nodes"):
                is_independent_mask(g, np.zeros(shape, dtype=bool))

    def test_block_shape_checked(self):
        # one mask or a batch of any leading shape, empty ones included
        g = generate_star(5)
        for shape in ((6,), (1, 6), (2, 6), (1, 2, 6), (0, 6), (2, 0, 6)):
            assert is_independent_mask(g, np.zeros(shape, dtype=bool))
            conflict = np.zeros(shape, dtype=bool)
            conflict[..., :2] = True  # the hub and leaf 1 in every mask
            assert is_independent_mask(g, conflict) == (0 in shape)


def per_row_reference(g, m):
    """The per-mask check that the edge-end gathers replaced: every CSR
    entry (v, w), each edge twice."""
    return not (np.repeat(m, g.degrees) & m[g.indices]).any()


@st.composite
def mask_blocks(draw):
    # an ER, BA or star graph, or one whose edges join only its first k
    # nodes (isolated nodes, no edges at k = 1), with P in 1..5 masks
    family = draw(st.sampled_from(["er", "ba", "star", "isolated"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "er":
        g = generate_er(draw(st.integers(1, 30)),
                        draw(st.floats(0.0, 1.0)), seed)
    elif family == "ba":
        n = draw(st.integers(2, 30))
        g = generate_ba(n, draw(st.integers(1, n - 1)), seed)
    elif family == "star":
        g = generate_star(draw(st.integers(1, 30)))
    else:
        n = draw(st.integers(1, 12))
        k = draw(st.integers(1, n))
        g = ConflictGraph.from_edges(n, [(i, j) for i in range(k)
                                         for j in range(i + 1, k)
                                         if (i * 7 + j * 3 + seed) % 3])
    p = draw(st.integers(1, 5))
    density = draw(st.floats(0.0, 1.0))
    block = np.random.default_rng(seed).random((p, g.node_count)) < density
    return g, block


class TestIndependentBlocks:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(mask_blocks())
    def test_block_equals_rows_and_edge_loop(self, case):
        g, block = case
        n = g.node_count
        edges = [(v, w) for v in range(n) for w in nbrs(g, v) if v < w]
        loop = [not any(m[v] and m[w] for v, w in edges) for m in block]
        for row, want in zip(block, loop):
            assert is_independent_mask(g, row) == want
            assert per_row_reference(g, row) == want
        assert is_independent_mask(g, block) == all(loop)
        assert is_independent_mask(g, block.astype(np.int8)) == all(loop)
        # a strided block, as run_episode passes one slot of (P, T, V), and
        # the block as a (P, 1, V) batch
        strided = np.repeat(block[:, None], 3, axis=1)[:, 1]
        assert is_independent_mask(g, strided) == all(loop)
        assert is_independent_mask(g, block[:, None]) == all(loop)

    @pytest.mark.parametrize("rows", [0, 1, 5, 7, 9, 13, 16, 17, 23])
    def test_packed_batches_equal_row_loop(self, rows):
        # the rows pack eight to a byte, so R % 8 != 0 leaves padding bits
        # in the last byte that must never read as members; R = 0 packs to
        # nothing and is independent
        rng = np.random.default_rng(rows)
        for g in TestIndependentSet().graphs():
            n = g.node_count
            for density in (0.0, 0.1, 0.4):
                block = rng.random((rows, n)) < density
                loop = [per_row_reference(g, row) for row in block]
                assert is_independent_mask(g, block) == all(loop)
                assert is_independent_mask(g, block.reshape(rows, 1, n)) \
                    == all(loop)
            if g.edge_count == 0 or rows == 0:
                continue
            i, j = g.edges()[0]
            for k in (0, rows - 1):  # the first row, and the last one
                block = np.zeros((rows, n), dtype=bool)
                block[k, [i, j]] = True
                assert not is_independent_mask(g, block)
                block[k, j] = False
                assert is_independent_mask(g, block)


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


OUT_OF_ORDER = "out of order: edges run i < j, ascending"
CUT_SHORT = "no '\\n' ends this last line: the file is cut short"
NOT_PLAIN = ("not plain decimal: a sign, a leading zero or other whitespace "
             "than the writer's")


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
        assert path.read_text() == "nodes 3\nedges 2\n0 1\n0 2\n"

    def test_edgeless_roundtrip(self, tmp_path):
        path = tmp_path / "graph.txt"
        save_graph(generate_er(4, 0.0), path)
        assert path.read_text() == "nodes 4\nedges 0\n"
        assert load_graph(path, 4).edge_count == 0

    def test_blank_lines_refused(self, tmp_path):
        # save_graph writes no blank line, so one is refused where it stands
        path = tmp_path / "graph.txt"
        for body, line in (("\n0 1\n0 2\n", 3), ("0 1\n  \n0 2\n", 4),
                           ("0 1\n\t\n0 2\n", 4), ("0 1\n0 2\n\n", 5)):
            path.write_text(f"nodes 3\nedges 2\n{body}")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: line {line}: expected 'i j' pair")):
                load_graph(path, 3)

    @pytest.mark.parametrize("line, reason", [
        ("0 1_0", "non-integer endpoint"), ('"0" 1', "non-integer endpoint"),
        ("0 1.0", "non-integer endpoint"), ("0 1 2", "expected 'i j' pair"),
        ("0 100000000000000000000000",
         "non-integer endpoint, or one outside int64")])
    def test_bad_edge_after_blank_lines_names_line(self, tmp_path, line,
                                                   reason):
        # the blank line before the bad edge line is refused first; without
        # it, the bad line is refused at its own line
        path = tmp_path / "graph.txt"
        path.write_text(f"nodes 3\nedges 3\n0 1\n\n{line}\n1 2\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4: expected 'i j' pair")):
            load_graph(path, 3)
        path.write_text(f"nodes 3\nedges 3\n0 1\n{line}\n1 2\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4: {reason}")):
            load_graph(path, 3)

    @pytest.mark.parametrize("line", ["00 1", "+0 1", "0\t1", "0  1", " 0 1",
                                      "0 1 ", "-0 1", "0 01"])
    def test_edge_numerals_read_as_written(self, tmp_path, line):
        # numpy reads each of these as the edge (0, 1), but save_graph
        # writes plain decimal, one space apart: refused at its line
        path = tmp_path / "graph.txt"
        path.write_text(f"nodes 3\nedges 2\n{line}\n0 2\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 3: {NOT_PLAIN}")):
            load_graph(path, 3)
        path.write_text(f"nodes 3\nedges 2\n0 1\n{line.replace('1', '2')}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4: {NOT_PLAIN}")):
            load_graph(path, 3)

    @pytest.mark.parametrize("text, line, reason", [
        ("nodes 07\nedges 1\n0 1\n", 1, "node count 07 is not plain decimal"),
        ("nodes -0\nedges 1\n0 1\n", 1, "node count -0 is not plain decimal"),
        ("nodes 3\nedges 01\n0 1\n", 2, "edge count 01 is not plain decimal"),
        ("nodes 1_0\nedges +1\n0 1\n", 1, "node count is not an integer"),
        ("nodes +3\nedges 1\n0 1\n", 1, "node count is not an integer"),
        ("nodes 3\nedges +1\n0 1\n", 2, "edge count is not an integer"),
        ("nodes  3\nedges 1\n0 1\n", 1, "expected header 'nodes <count>'"),
        ("nodes 3 \nedges 1\n0 1\n", 1, "expected header 'nodes <count>'"),
        ("nodes\t3\nedges 1\n0 1\n", 1, "expected header 'nodes <count>'")])
    def test_header_read_as_written(self, tmp_path, text, line, reason):
        # each header line reads '<key> <decimal>' with one space, as
        # save_graph writes it ('nodes 1_0' once read as 10 nodes)
        path = tmp_path / "graph.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {line}: {reason}")):
            load_graph(path, 20)

    @pytest.mark.parametrize("text, line", [
        ("nodes 200\nedges 1\n5 12", 3), ("nodes 3\nedges 2\n0 1\n0 2", 4),
        ("nodes 3\nedges 2\n0 1\n0", 4), ("nodes 3\nedges 0", 2),
        ("nodes 3", 1), ("nodes 3\nedges 1\n0 1\n1", 4)])
    def test_cut_last_line_refused(self, tmp_path, text, line):
        # every line save_graph writes ends in \n, so a last line without
        # one was cut short, perhaps inside a number ('5 123' read as
        # '5 12'), and is refused at its line, whatever it holds
        path = tmp_path / "graph.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {line}: {CUT_SHORT}")):
            load_graph(path, 200)
        path.write_text("nodes 200\nedges 1\n5 123\n")  # the file uncut
        assert load_graph(path, 200).edges() == [(5, 123)]

    @pytest.mark.parametrize("edit, line", [
        pytest.param(lambda text: text.replace("\n", "\r\n"), 1, id="crlf"),
        pytest.param(lambda text: text.replace("\n", "\r"), 1, id="cr"),
        pytest.param(lambda text: text.replace("0 2\n", "0 2\r\n"), 4,
                     id="crlf-one-row"),
        pytest.param(lambda text: text.replace("0 1\n", "0\r1\n"), 3,
                     id="cr-inside-row"),
        pytest.param(lambda text: text + "\r", 6, id="cr-after-last-line")])
    def test_line_ends_read_as_written(self, tmp_path, edit, line):
        # save_graph ends every line in \n alone, and a \r anywhere is
        # refused at its line
        path = tmp_path / "graph.txt"
        save_graph(generate_star(3), path)
        text = path.read_bytes().decode()
        assert text == "nodes 4\nedges 3\n0 1\n0 2\n0 3\n"
        path.write_bytes(edit(text).encode())
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {line}: line end other than '\\n'")):
            load_graph(path, 4)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertices 3\n0 1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_graph(path, 3)

    def test_bad_edge_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 3\nedges 1\n0 1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_graph(path, 3)

    @pytest.mark.parametrize("text, line", [
        ("nodes 0\n", 1), ("nodes -2\n", 1), ("nodes 3\n0 1\n0 5\n", 3),
        ("nodes 3\n\n1 1\n", 2), ("nodes 3\n-1 2\n", 2), ("nodes 4\n", 1),
        ("nodes 100000000000\n0 1\n", 1)])
    def test_bad_graph_names_path_and_line(self, tmp_path, text, line):
        # the cases are written without the edge-count line: it is inserted
        # as line 2, stating every edge row, so those rows move down a line
        head, _, body = text.partition("\n")
        count = sum(1 for row in body.splitlines() if row.strip())
        path = tmp_path / "bad.txt"
        path.write_text(f"{head}\nedges {count}\n{body}")
        with pytest.raises(ValueError) as info:
            load_graph(path, 3)
        assert str(info.value).startswith(
            f"{path}: line {line + (line > 1)}: ")

    @pytest.mark.parametrize("text, line, reason", [
        ("nodes 3\n0 1\n", 2, "expected header 'edges <count>'"),
        ("nodes 3\n", 2, "expected header 'edges <count>'"),
        ("nodes 3 edges 1\n0 1\n", 1, "expected header 'nodes <count>'"),
        ("nodes 3\nedges one\n", 2, "edge count is not an integer"),
        ("nodes 3\nedges -1\n", 2, "edge count -1 is outside [0, 3]"),
        ("nodes 3\nedges 4\n", 2, "edge count 4 is outside [0, 3]"),
        ("nodes 3\nedges 2\n0 1\n", 4, "1 of 2 edge rows missing"),
        ("nodes 3\nedges 2\n0 1\n\n", 4, "expected 'i j' pair"),
        ("nodes 3\nedges 1\n0 1\n1 2\n", 4,
         "edge row 2 beyond the edge count 1 of line 2"),
        ("nodes 3\nedges 2\n0 1\n1 0\n", 4, f"edge (1,0) {OUT_OF_ORDER}"),
        ("nodes 3\nedges 3\n1 2\n0 1\n1 2\n", 4, f"edge (0,1) {OUT_OF_ORDER}"),
        ("nodes 3\nedges 3\n0 1\n0 1\njunk\n", 4,
         f"edge (0,1) {OUT_OF_ORDER}"),
        ("nodes 3\nedges 1\n2 1\n", 3, f"edge (2,1) {OUT_OF_ORDER}"),
        ("nodes 3\nedges 1\n0 1\n1 2\njunk\n", 5, "expected 'i j' pair")])
    def test_edge_count_faults_name_path_and_line(self, tmp_path, text, line,
                                                  reason):
        # the file states its edge count, so a file cut or padded by whole
        # edge rows is refused, and save_graph writes each edge once, as
        # i < j, ascending, so a repeated, mirrored or moved row is too
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {line}: {reason}")):
            load_graph(path, 3)


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


def is_int64(field: str) -> bool:
    """Whether numpy's reader takes ``field`` as an int64: an optional sign
    and ASCII digits, with a value in [-2**63, 2**63), between optional
    whitespace."""
    return re.fullmatch(r"\s*[+-]?[0-9]+\s*", field) is not None \
        and -2**63 <= int(field) < 2**63


def plain_line(fields, delimiter: str) -> str:
    """The line ``fields`` would be written as: each as plain decimal, 0 or
    digits without a leading zero after an optional '-', joined by the
    delimiter."""
    return delimiter.join(str(int(field)) for field in fields)


def reference_load_edges(path, n):
    """A line-at-a-time reader of the one layout ``save_graph`` writes, the
    reference for ``load_graph``'s diagnostics: the edge count of line 2,
    the first edge line in file order that is no pair or not the edge after
    the one before it, a last line without its \\n, then the number of edge
    rows; before all of that, the first line that holds a \\r."""
    with open(path, newline="") as fh:
        text = fh.read()
    for ln, line in enumerate(text.split("\n"), start=1):
        if "\r" in line:
            raise ValueError(f"{path}: line {ln}: line end other than '\\n'")
    lines = text.split("\n")
    cut = lines.pop()  # what follows the last \n: a line cut short, if any
    m = int(lines[1].split()[1])
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"{path}: line 2: edge count {m} is outside "
                         f"[0, {n * (n - 1) // 2}] for {n} nodes")
    edges = []
    for ln, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {ln}: expected 'i j' pair")
        if not all(map(is_int64, parts)):
            raise ValueError(f"{path}: line {ln}: non-integer endpoint, or "
                             "one outside int64")
        if line != plain_line(parts, " "):
            raise ValueError(f"{path}: line {ln}: {NOT_PLAIN}")
        i, j = int(parts[0]), int(parts[1])
        if i == j:
            raise ValueError(f"{path}: line {ln}: self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}: line {ln}: edge ({i},{j}) out of "
                             f"range for {n} nodes")
        if i > j or edges and (i, j) <= edges[-1]:
            raise ValueError(f"{path}: line {ln}: edge ({i},{j}) "
                             f"{OUT_OF_ORDER}")
        edges.append((i, j))
    if cut:
        raise ValueError(f"{path}: line {len(lines) + 1}: {CUT_SHORT}")
    if len(edges) > m:
        raise ValueError(f"{path}: line {m + 3}: edge row {m + 1} beyond "
                         f"the edge count {m} of line 2")
    if len(edges) < m:
        raise ValueError(f"{path}: line {len(edges) + 3}: "
                         f"{m - len(edges)} of {m} edge rows missing")
    return ConflictGraph.from_edges(n, edges)


# both ends of each digit width: 0, 9, 10, 99, 100, ..., 10**18, and the
# int64 top
EDGE_VALUES = sorted({0, 2**63 - 1} | {10**k for k in range(19)}
                     | {10**k - 1 for k in range(1, 19)})


class TestFormatIntRows:
    @PROPERTY
    @given(hnp.arrays(np.int64, st.tuples(st.integers(0, 300),
                                          st.integers(1, 4)),
                      elements=st.sampled_from(EDGE_VALUES)),
           st.sampled_from([(" ", "\n"), (",", "\r\n")]))
    def test_equals_percent_format_and_reads_back(self, rows, ends):
        # the text of the % format the instance writers used before, read
        # back as the same rows
        delimiter, end = ends
        text = format_int_rows(rows, delimiter, end)
        fmt = delimiter.join(["%d"] * rows.shape[1]) + end
        assert text == (fmt * len(rows) % tuple(rows.ravel().tolist())).encode()
        back, stop = read_int_rows(text.decode().replace("\r", ""),
                                   rows.shape[1], delimiter.strip() or None)
        assert stop is None and back.dtype == np.int64
        assert np.array_equal(back, rows)

    def test_negative_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                "row 1, field 0: -1 is negative")):
            format_int_rows(np.array([[3, 4], [-1, 2]]), " ", "\n")

    def test_shape_checked(self):
        for rows in (np.zeros(3, np.int64), np.zeros((3, 0), np.int64)):
            with pytest.raises(ValueError, match="expected \\(R, F\\)"):
                format_int_rows(rows, " ", "\n")
        assert format_int_rows(np.zeros((0, 2), np.int64), " ", "\n") == b""


class TestGraphFileProperties:
    KINDS = ("none", "junk", "triple", "self-loop", "outside", "negative",
             "beyond-int64", "blank", "unplain")

    @PROPERTY
    @given(edge_lists(), st.sampled_from(KINDS), st.data())
    def test_inserted_line_matches_reference(self, tmp_path_factory, case,
                                             kind, data):
        # one line inserted among the edge lines, which are written as
        # save_graph writes them or in the drawn order, with repeated and
        # mirrored pairs, and an edge count that may be one off: load_graph
        # reads the file as the line-at-a-time reference does, or refuses
        # it at the same line
        n, pairs = case
        if data.draw(st.booleans()):  # as save_graph writes them
            pairs = sorted({(min(p), max(p)) for p in pairs})
        lines = [f"{i} {j}" for i, j in pairs]
        node = data.draw(st.integers(0, n - 1))
        extra = {"none": None, "junk": "junk", "triple": "0 1 0",
                 "self-loop": f"{node} {node}", "outside": f"{node} {n}",
                 "negative": f"-1 {node}", "beyond-int64": f"{node} {2**63}",
                 "blank": " \t", "unplain": None}[kind]
        if kind == "unplain":  # lines numpy reads, not as save_graph writes
            extra = data.draw(st.sampled_from(
                [f"+{node} {n}", f"0{node} {n}", f"{node}\t{n}",
                 f"{node}  {n}", f" {node} {n}", f"-0 {n}"]))
        if extra is not None:
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        count = len(pairs) + data.draw(st.sampled_from([0, 0, -1, 1]))
        path = tmp_path_factory.mktemp("graph") / "graph.txt"
        path.write_text("".join(f"{line}\n" for line in
                                [f"nodes {n}", f"edges {count}"] + lines))
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
        i, j = g.edge_ends
        assert list(zip(i.tolist(), j.tolist())) == [
            (v, w) for v, ws in enumerate(want) for w in ws if v < w]
        assert not i.flags.writeable and not j.flags.writeable
        assert g.edge_array().tolist() == [[v, w] for v, w in
                                           zip(i.tolist(), j.tolist())]
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
