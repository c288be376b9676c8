import logging

import numpy as np
import pytest

from linksched.gcn import (AdamState, GcnParams, Gradients, adam_step,
                           backward, forward, identity_params, init_params,
                           load_checkpoint, save_checkpoint)
from linksched.graph import (ConflictGraph, generate_er, generate_star,
                             normalized_laplacian)
from linksched.solvers import lgs


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
        g = ConflictGraph(3, ((), (), ()))
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
            assert lgs(g, u).nodes == lgs(g, s).nodes


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
        save_checkpoint(path, params, slope=0.3, base_lr=2e-3, decay=0.99,
                        beta1=0.8, beta2=0.95, eps=1e-7)
        ckpt = load_checkpoint(path)
        assert ckpt.params.layer_dims == (1, 5, 1)
        for a, b in zip(ckpt.params.theta0 + ckpt.params.theta1,
                        params.theta0 + params.theta1):
            assert np.array_equal(a, b)
        assert (ckpt.slope, ckpt.base_lr, ckpt.decay) == (0.3, 2e-3, 0.99)
        assert (ckpt.beta1, ckpt.beta2, ckpt.eps) == (0.8, 0.95, 1e-7)

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
        header = 8 + 4 * (2 + 2) + 8 * 6  # magic, L, g_0..g_2, six floats
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
