import logging
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksched.gcn import (LEAKY_SLOPE, AdamState, Checkpoint, ForwardCache,
                           GcnParams, Gradients, adam_step, backward, forward,
                           identity_params, init_params, load_checkpoint,
                           propagate, save_checkpoint)
from linksched.graph import (ConflictGraph, generate_ba, generate_er,
                             generate_star, normalized_laplacian)
from linksched.policies import GcnLgsPolicy
from linksched.solvers import greedy_centralized, lgs_rows


def k2_laplacian():
    return normalized_laplacian(ConflictGraph.from_edges(2, [(0, 1)]))


def scalar_params(t0, t1):
    return GcnParams((1, 1), [np.array([[float(t0)]])],
                     [np.array([[float(t1)]])])


class TestInit:
    def test_bound_for_1x1(self):
        p = init_params([1, 1], 0)
        bound = np.sqrt(3.0)
        for t in p.theta0 + p.theta1:
            assert (np.abs(t) <= bound).all()

    def test_shapes(self):
        p = init_params([1, 8, 1], 0)
        assert [t.shape for t in p.theta0] == [(1, 8), (8, 1)]
        assert [t.shape for t in p.theta1] == [(1, 8), (8, 1)]

    def test_deterministic(self):
        a = init_params([1, 4, 1], 3)
        b = init_params([1, 4, 1], 3)
        for x, y in zip(a.theta0 + a.theta1, b.theta0 + b.theta1):
            assert np.array_equal(x, y)

    def test_output_dim_must_be_one(self):
        with pytest.raises(ValueError):
            init_params([1, 2], 0)


class TestForward:
    def test_identity_passthrough(self):
        s = np.array([[3.0], [-1.5]])
        u, _ = forward(identity_params(), k2_laplacian(), s)
        assert np.array_equal(u, s[:, 0])

    def test_laplacian_branch(self):
        s = np.array([[1.0], [2.0]])
        u, _ = forward(scalar_params(0, 1), k2_laplacian(), s)
        assert np.allclose(u, [-1.0, 1.0])

    def test_edgeless_drops_aggregation(self):
        g = ConflictGraph.from_edges(3, [])
        s = np.array([[1.0], [2.0], [3.0]])
        u, _ = forward(scalar_params(2.5, 7.0), normalized_laplacian(g), s)
        assert np.allclose(u, 2.5 * s[:, 0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(identity_params(), k2_laplacian(), np.ones((3, 1)))
        with pytest.raises(ValueError):
            forward(identity_params(), k2_laplacian(), np.ones((2, 2)))

    def test_single_layer_is_linear(self):
        # the output layer takes no activation, so scaling is exact
        s = np.array([[-5.0], [2.0]])
        u, _ = forward(scalar_params(1.5, -0.5), k2_laplacian(), s)
        u2, _ = forward(scalar_params(1.5, -0.5), k2_laplacian(), 2 * s)
        assert np.allclose(u2, 2 * u)

    def test_locality(self):
        # path 0-1-2-3-4: node 0's output only sees features within L hops
        g = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        lap = normalized_laplacian(g)
        rng = np.random.default_rng(0)
        for layers in (1, 2):
            dims = [1] + [3] * (layers - 1) + [1]
            params = init_params(dims, rng)
            s = rng.normal(size=(5, 1))
            far = rng.normal(size=(5, 1))
            far[:layers + 1] = s[:layers + 1]  # perturb only nodes > L hops away
            u_a, _ = forward(params, lap, s)
            u_b, _ = forward(params, lap, far)
            assert u_a[0] == u_b[0]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        g = generate_er(8, 0.4, rng)
        lap = normalized_laplacian(g)
        params = init_params([2, 3, 1], rng)
        s = rng.normal(size=(8, 2))
        u1, _ = forward(params, lap, s)
        u2, _ = forward(params, lap, s)
        assert np.array_equal(u1, u2)


class TestStackedForward:
    def test_rows_bitwise_equal_unbatched(self):
        # np.matmul broadcasting runs each row through the unbatched BLAS
        # call; one (V, V) @ (V, B) product would not be bitwise equal
        rng = np.random.default_rng(5)
        for g in (generate_star(30), generate_ba(70, 2, rng)):
            lap = normalized_laplacian(g)
            feats = rng.integers(0, 5000, size=(64, g.node_count)) \
                * rng.random((64, g.node_count))
            for dims in ((1, 1), (1, 16, 1)):
                params = init_params(dims, rng)
                u, _ = forward(params, lap, feats[:, :, None])
                assert u.shape == feats.shape
                for row, f in zip(u, feats):
                    single, _ = forward(params, lap, f[:, None])
                    assert np.array_equal(row, single)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), p=st.floats(0.0, 0.6),
           stack=st.integers(1, 12),
           dims=st.lists(st.integers(1, 8), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_bitwise_equal_unbatched_property(self, n, p, stack, dims,
                                                   seed):
        rng = np.random.default_rng(seed)
        g = generate_er(n, p, rng)
        params = init_params((*dims, 1), rng)
        feats = rng.normal(scale=100.0, size=(stack, n, dims[0]))
        u, _ = forward(params, g.laplacian, feats)
        assert u.shape == (stack, n)
        for row, f in zip(u, feats):
            single, _ = forward(params, g.laplacian, f)
            assert np.array_equal(row, single)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), stack=st.integers(1, 8),
           dims=st.lists(st.integers(1, 8), min_size=1, max_size=3),
           shared=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_backward_rows_bitwise_equal_unbatched(self, n, stack, dims,
                                                   shared, seed):
        # a stack over one graph, or over one graph per row, each row's
        # utilities and gradients those of the row alone, sign of zero too
        rng = np.random.default_rng(seed)
        laps = [generate_er(n, rng.random() * 0.6, rng).laplacian
                for _ in range(stack)]
        if shared:
            laps = [laps[0]] * stack
        params = init_params((*dims, 1), rng)
        feats = rng.normal(scale=100.0, size=(stack, n, dims[0]))
        feats[:, ::3] = 0.0
        out_grad = rng.normal(size=(stack, n))
        u, cache = forward(params, laps[0] if shared else laps, feats)
        grads = backward(params, cache, out_grad)
        assert u.shape == (stack, n)
        for b, lap in enumerate(laps):
            single, single_cache = forward(params, lap, feats[b])
            assert u[b].tobytes() == single.tobytes()
            want = backward(params, single_cache, out_grad[b])
            for got, ref in zip(grads.theta0 + grads.theta1,
                                want.theta0 + want.theta1):
                assert got.shape == (stack, *ref.shape)
                assert got[b].tobytes() == ref.tobytes()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(1, 30),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=10),
           dims=st.sampled_from([(1, 1), (1, 4, 1), (1, 3, 2, 1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_shared_laplacians_bitwise_equal_unbatched(self, n, picks, dims,
                                                       seed):
        # rows that hold one Laplacian object share one broadcast product:
        # over a list that repeats some of four objects, one of them an
        # equal copy of another, each row's utilities and gradients are
        # those of the row alone
        rng = np.random.default_rng(seed)
        laps = [generate_er(n, rng.random() * 0.6, rng).laplacian
                for _ in range(3)]
        laps.append(laps[0].copy())
        rows = [laps[i] for i in picks]
        params = init_params(dims, rng)
        feats = rng.normal(scale=100.0, size=(len(rows), n, 1))
        feats[:, ::3] = 0.0
        out_grad = rng.normal(size=(len(rows), n))
        u, cache = forward(params, rows, feats)
        grads = backward(params, cache, out_grad)
        for b, lap in enumerate(rows):
            single, single_cache = forward(params, lap, feats[b])
            assert u[b].tobytes() == single.tobytes()
            want = backward(params, single_cache, out_grad[b])
            for got, ref in zip(grads.theta0 + grads.theta1,
                                want.theta0 + want.theta1):
                assert got[b].tobytes() == ref.tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), stack=st.integers(1, 6),
           dims=st.lists(st.integers(1, 6), min_size=0, max_size=2),
           slope=st.sampled_from([LEAKY_SLOPE, 0.1, 0.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_policy_utilities_are_forwards(self, n, stack, dims, slope,
                                           seed):
        # the policy runs forward's layer loop, propagate, with no checks
        # and no cache: its utilities of read-only (B, V) rows are
        # forward's bit for bit, and propagate fills a cache given to it
        # as forward does
        rng = np.random.default_rng(seed)
        g = generate_er(n, rng.random() * 0.6, rng)
        params = init_params((1, *dims, 1), rng)
        x = rng.integers(0, 5000, size=(stack, n)) * rng.random((stack, n))
        x.setflags(write=False)
        want, cache = forward(params, g.laplacian, x[..., None], slope)
        got = GcnLgsPolicy(params, slope).utilities(g, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        mine = ForwardCache(g.laplacian, slope, [x[..., None]], [], [])
        out = propagate(params, g.laplacian, x[..., None], slope, mine)
        assert out.tobytes() == cache.activations[-1].tobytes()
        for name in ("activations", "preactivations", "lap_inputs"):
            ours, theirs = getattr(mine, name), getattr(cache, name)
            assert len(ours) == len(theirs) == len(dims) + 1 + (
                name == "activations")
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(ours, theirs))

    def test_stack_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(identity_params(), k2_laplacian(), np.ones((4, 3, 1)))
        with pytest.raises(ValueError):
            forward(identity_params(), k2_laplacian(), np.ones((4, 2, 2)))

    def test_laplacian_list_mismatch(self):
        lap = k2_laplacian()
        with pytest.raises(ValueError, match="one Laplacian per row"):
            forward(identity_params(), [lap] * 3, np.ones((4, 2, 1)))
        with pytest.raises(ValueError, match="one Laplacian per row"):
            forward(identity_params(), [lap], np.ones((2, 1)))
        with pytest.raises(ValueError, match="does not match 2 nodes"):
            forward(identity_params(), [lap, np.eye(3)], np.ones((2, 2, 1)))
        _, cache = forward(identity_params(), [lap, lap], np.ones((2, 2, 1)))
        with pytest.raises(ValueError, match="output gradient"):
            backward(identity_params(), cache, np.ones(2))


class TestBackward:
    def test_hand_example(self):
        # loss = u(0) on a single edge with s = [1, 2]^T
        s = np.array([[1.0], [2.0]])
        _, cache = forward(identity_params(), k2_laplacian(), s)
        grads = backward(identity_params(), cache, np.array([1.0, 0.0]))
        assert grads.theta0[0].item() == pytest.approx(1.0)
        assert grads.theta1[0].item() == pytest.approx(-1.0)

    def test_zero_output_grad(self):
        s = np.array([[1.0], [2.0]])
        params = init_params([1, 3, 1], 0)
        _, cache = forward(params, k2_laplacian(), s)
        grads = backward(params, cache, np.zeros(2))
        assert not any(g.any() for g in grads.theta0 + grads.theta1)

    def test_stale_cache_rejected(self):
        s = np.array([[1.0], [2.0]])
        _, cache = forward(identity_params(), k2_laplacian(), s)
        with pytest.raises(ValueError):
            backward(init_params([1, 3, 1], 0), cache, np.zeros(2))

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            g = generate_er(n, 0.4, rng)
            lap = normalized_laplacian(g)
            layers = int(rng.integers(1, 3))
            dims = ([1, 1] if layers == 1
                    else [1, int(rng.integers(2, 5)), 1])
            params = init_params(dims, rng)
            s = rng.normal(size=(n, 1))
            weights = rng.normal(size=n)
            _, cache = forward(params, lap, s)
            grads = backward(params, cache, weights)

            def loss():
                u, _ = forward(params, lap, s)
                return float(weights @ u)

            h = 1e-5
            for analytic, mats in ((grads.theta0, params.theta0),
                                   (grads.theta1, params.theta1)):
                for g_mat, p_mat in zip(analytic, mats):
                    fd = np.zeros_like(p_mat)
                    for idx in np.ndindex(p_mat.shape):
                        keep = p_mat[idx]
                        p_mat[idx] = keep + h
                        up = loss()
                        p_mat[idx] = keep - h
                        down = loss()
                        p_mat[idx] = keep
                        fd[idx] = (up - down) / (2 * h)
                    denom = max(np.linalg.norm(g_mat), np.linalg.norm(fd), 1e-12)
                    assert np.linalg.norm(g_mat - fd) / denom <= 1e-4


class TestPipelineIdentity:
    def test_gcn_schedule_equals_raw_feature_schedule(self):
        rng = np.random.default_rng(3)
        params = identity_params()
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = generate_er(n, 0.2, rng)
            lap = normalized_laplacian(g)
            s = rng.random(n)
            u, _ = forward(params, lap, s[:, None])
            assert np.array_equal(lgs_rows(g, u[None])[0],
                                  lgs_rows(g, s[None])[0])


class TestHomogeneity:
    # the network has no biases and a positively homogeneous activation:
    # features scaled by c > 0 scale the utilities by c, and every weight
    # scaled by c scales them by c^L; neither changes their order, so a
    # schedule reads no feature scale and a checkpoint records none. Powers
    # of two keep every product and sum exact, so the equalities are bitwise
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(ba=st.booleans(), n=st.integers(2, 40),
           dims=st.sampled_from([(1, 1), (1, 4, 1), (1, 3, 2, 1)]),
           k=st.integers(-8, 8), seed=st.integers(0, 2**32 - 1))
    def test_scaling_keeps_utilities_and_schedules(self, ba, n, dims, k,
                                                   seed):
        rng = np.random.default_rng(seed)
        g = (generate_ba(n, int(rng.integers(1, min(n, 6))), rng) if ba
             else generate_er(n, rng.random() * 0.6, rng))
        params = init_params(dims, rng)
        # backlog x rate of small integers: zeros and ties are common
        x = (rng.integers(0, 30, n) * rng.integers(0, 12, n))[:, None] * 1.0
        c = 2.0 ** k
        u, _ = forward(params, g.laplacian, x)
        scaled_input, _ = forward(params, g.laplacian, c * x)
        assert scaled_input.tobytes() == (c * u).tobytes()
        scaled = GcnParams(dims, [c * t for t in params.theta0],
                           [c * t for t in params.theta1])
        scaled_weights, _ = forward(scaled, g.laplacian, x)
        assert scaled_weights.tobytes() == \
            (c ** params.num_layers * u).tobytes()
        members, rounds = lgs_rows(g, u[None])
        for v in (scaled_input, scaled_weights):
            got_members, got_rounds = lgs_rows(g, v[None])
            assert np.array_equal(got_members, members)
            assert np.array_equal(got_rounds, rounds)
            assert np.array_equal(greedy_centralized(g, v),
                                  greedy_centralized(g, u))


class TestAdam:
    def test_first_step_closed_form(self):
        # bias correction makes the first update -lr * g / (|g| + eps)
        params = scalar_params(1.0, 0.0)
        state = AdamState.for_params(params, base_lr=1e-3)
        grads = Gradients([np.array([[0.5]])], [np.array([[0.0]])])
        adam_step(params, grads, state)
        expected = 1.0 - 1e-3 * 0.5 / (0.5 + 1e-8)
        assert params.theta0[0].item() == pytest.approx(expected, rel=1e-12)
        assert params.theta1[0].item() == 0.0

    def test_zero_gradient_no_change(self):
        params = scalar_params(0.7, -0.3)
        state = AdamState.for_params(params)
        adam_step(params, Gradients.zeros_like(params), state)
        assert params.theta0[0].item() == 0.7
        assert params.theta1[0].item() == -0.3

    def test_deterministic(self):
        def run():
            params = scalar_params(1.0, 1.0)
            state = AdamState.for_params(params, base_lr=0.01)
            for k in range(5):
                grads = Gradients([np.array([[0.1 * (k + 1)]])],
                                  [np.array([[-0.2]])])
                adam_step(params, grads, state)
            return params.theta0[0].item(), params.theta1[0].item()

        assert run() == run()

    def test_decay_schedule(self):
        params = scalar_params(0.0, 0.0)
        state = AdamState.for_params(params, base_lr=1.0, decay=0.5)
        g = Gradients([np.array([[1.0]])], [np.array([[0.5]])])
        # with a constant gradient each update moves by the decayed lr
        adam_step(params, g, state)
        assert params.theta0[0].item() == pytest.approx(-1.0)
        adam_step(params, g, state)
        assert params.theta0[0].item() == pytest.approx(-1.5)

    def test_non_finite_gradient_skipped(self, caplog):
        params = scalar_params(1.0, 1.0)
        state = AdamState.for_params(params)
        grads = Gradients([np.array([[np.nan]])], [np.array([[0.0]])])
        with caplog.at_level(logging.WARNING):
            adam_step(params, grads, state)
        assert state.step == 0
        assert params.theta0[0].item() == 1.0
        assert "non-finite" in caplog.text

    def test_non_finite_step_refused(self):
        # lr * g overflows: the step is refused, and the parameters, both
        # moments and the step count stay as they were
        params = scalar_params(1.0, -1.0)
        state = AdamState.for_params(params, base_lr=1e308)
        grads = Gradients([np.array([[3.0]])], [np.array([[0.5]])])
        with pytest.raises(ValueError, match="^optimizer step would make a "
                           "parameter non-finite$"):
            adam_step(params, grads, state)
        assert state.step == 0
        assert params.theta0[0].item() == 1.0
        assert params.theta1[0].item() == -1.0
        for moment in state.m.theta0 + state.m.theta1 + state.v.theta0 + \
                state.v.theta1:
            assert moment.item() == 0.0

    def test_finite_steps_match_in_place_update(self):
        # the step computed aside is the in-place update it replaced, bit
        # for bit, on parameters, moments and the step count
        rng = np.random.default_rng(31)
        params = init_params((1, 4, 3, 1), 7)
        state = AdamState.for_params(params, base_lr=0.05, decay=0.9)
        ref = init_params((1, 4, 3, 1), 7)
        ref_m, ref_v = Gradients.zeros_like(ref), Gradients.zeros_like(ref)
        for step in range(1, 21):
            scale = 10.0 ** rng.integers(-8, 9)
            grads = Gradients(
                [rng.normal(size=t.shape) * scale for t in params.theta0],
                [rng.normal(size=t.shape) * scale for t in params.theta1])
            lr = 0.05 * 0.9 ** (step - 1)
            b1c, b2c = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
            for p, g, m, v in zip(ref.theta0 + ref.theta1,
                                  grads.theta0 + grads.theta1,
                                  ref_m.theta0 + ref_m.theta1,
                                  ref_v.theta0 + ref_v.theta1):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= lr * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)
            adam_step(params, grads, state)
            assert state.step == step
            for got, want in zip(
                    params.theta0 + params.theta1 + state.m.theta0
                    + state.m.theta1 + state.v.theta0 + state.v.theta1,
                    ref.theta0 + ref.theta1 + ref_m.theta0 + ref_m.theta1
                    + ref_v.theta0 + ref_v.theta1):
                assert got.tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        params = scalar_params(1.0, 1.0)
        state = AdamState.for_params(params)
        bad = Gradients([np.zeros((2, 1))], [np.zeros((1, 1))])
        with pytest.raises(ValueError):
            adam_step(params, bad, state)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = init_params([1, 5, 1], 11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, slope=0.3)
        ckpt = load_checkpoint(path)
        assert ckpt.params.layer_dims == (1, 5, 1)
        for a, b in zip(ckpt.params.theta0 + ckpt.params.theta1,
                        params.theta0 + params.theta1):
            assert np.array_equal(a, b)
        assert ckpt.slope == 0.3

    def test_holds_only_the_network(self, tmp_path):
        # format 2: magic, L, dims, slope, weights; nothing of the optimizer
        params = init_params([1, 5, 1], 11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, slope=0.3)
        weights = b"".join(t.astype("<f8").tobytes() for pair in
                           zip(params.theta0, params.theta1) for t in pair)
        assert path.read_bytes() == (
            b"LNKSGCN2" + struct.pack("<4i", 2, 1, 5, 1)
            + struct.pack("<d", 0.3) + weights)
        assert [f.name for f in fields(Checkpoint)] == ["params", "slope"]

    def test_format_1_refused(self, tmp_path):
        # the format-1 layout: the slope followed by five Adam settings
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"LNKSGCN1" + struct.pack("<3i", 1, 1, 1)
                         + struct.pack("<8d", 0.2, 1e-3, 0.999, 0.9, 0.999,
                                       1e-8, 1.0, 0.0))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: checkpoint format 1 ")) as err:
            load_checkpoint(path)
        assert "retrain" in str(err.value)

    @pytest.mark.parametrize("dims, slope, weights, message", [
        pytest.param((1, 0), 0.2, (), "invalid layer dimensions", id="dim-0"),
        pytest.param((-1, 1), 0.2, (1.0, 0.0), "invalid layer dimensions",
                     id="dim-negative"),
        pytest.param((1, 1), float("nan"), (1.0, 0.0), "non-finite slope",
                     id="slope-nan"),
        pytest.param((1, 1), 0.2, (float("inf"), 0.0), "non-finite entries",
                     id="weight-inf"),
        pytest.param((1, 2), 0.2, (1.0,) * 4, "output dimension",
                     id="output-2"),
    ])
    def test_invalid_network_names_path(self, tmp_path, dims, slope, weights,
                                        message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"LNKSGCN2" + struct.pack(
            f"<{len(dims) + 1}i", len(dims) - 1, *dims)
            + struct.pack(f"<{len(weights) + 1}d", slope, *weights))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")
                           + ".*" + message):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL123")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = identity_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params([1, 3, 1], 0))
        blob = path.read_bytes()
        header = 8 + 4 * (2 + 2) + 8  # magic, L, g_0..g_2, slope
        for cut in range(header + 1):
            path.write_bytes(blob[:cut])
            expected = "truncated checkpoint" if cut >= 8 else "bad magic"
            with pytest.raises(ValueError, match=expected):
                load_checkpoint(path)

    def test_byte_identical_rewrite(self, tmp_path):
        params = init_params([1, 3, 1], 2)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params)
        save_checkpoint(b, params)
        assert a.read_bytes() == b.read_bytes()
