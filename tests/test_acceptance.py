"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete)."""

import time

import numpy as np
import pytest

from linksched.cli import ExperimentConfig, cmd_eval, cmd_generate, cmd_toy
from linksched.gcn import identity_params, init_params, save_checkpoint
from linksched.gcn import backward, forward
from linksched.graph import (generate_ba, generate_er, generate_star,
                             normalized_laplacian)
from linksched.policies import GcnLgsPolicy, SolverPolicy
from linksched.presets import parse_graph_config
from linksched.sim import compute_metrics, run_episode, sample_traffic
from linksched.solvers import exact_mwis, greedy_centralized, lgs_rows
from linksched.train import TrainConfig, train

TRAIN_SEED = 0
EVAL_SEED = 123


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_toy_reproduction():
    start = time.perf_counter()
    toy = cmd_toy(horizon=128, burn_in=20)
    elapsed = time.perf_counter() - start
    ok = (abs(toy.exact_mean - 13 / 6) <= 1e-9
          and abs(toy.greedy_mean - 1.5) <= 1e-9
          and elapsed < 1.0)
    report(1, "star-toy steady state", ok,
           f"exact={toy.exact_mean:.10f} greedy={toy.greedy_mean:.10f} "
           f"{elapsed:.2f}s")


def test_criterion_2_lgs_equals_centralized_greedy():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    matches = 0
    total = 1000
    for _ in range(total):
        if rng.random() < 0.5:
            n = int(rng.integers(2, 61))
            g = generate_er(n, float(rng.choice([0.05, 0.1, 0.3])), rng)
        else:
            m = int(rng.choice([1, 2, 5]))
            n = int(rng.integers(m + 1, 61))
            g = generate_ba(n, m, rng)
        u = rng.random(g.node_count)
        matches += np.array_equal(lgs_rows(g, u[None])[0][0],
                                  greedy_centralized(g, u))
    elapsed = time.perf_counter() - start
    ok = matches == total and elapsed < 10.0
    report(2, "LGS == centralized greedy", ok,
           f"{matches}/{total} in {elapsed:.1f}s")


def test_criterion_3_exact_solver_oracle():
    rng = np.random.default_rng(30)
    start = time.perf_counter()
    agree = 0
    total = 200
    for _ in range(total):
        n = int(rng.integers(1, 13))
        g = generate_er(n, float(rng.uniform(0.1, 0.9)), rng)
        w = rng.integers(0, 100, size=n).astype(float)
        solver_weight = w[exact_mwis(g, w)].sum()
        best = 0.0
        masks = g.neighbor_bitmasks
        for subset in range(1 << n):
            total_w = 0.0
            feasible = True
            for v in range(n):
                if subset >> v & 1:
                    if masks[v] & subset:
                        feasible = False
                        break
                    total_w += w[v]
            if feasible and total_w > best:
                best = total_w
        agree += solver_weight == best
    elapsed = time.perf_counter() - start
    ok = agree == total and elapsed < 30.0
    report(3, "exact MWIS vs full enumeration", ok,
           f"{agree}/{total} in {elapsed:.1f}s")


def test_criterion_4_gradient_check():
    rng = np.random.default_rng(40)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        g = generate_er(n, 0.4, rng)
        lap = normalized_laplacian(g)
        layers = int(rng.integers(1, 3))
        dims = [1, 1] if layers == 1 else [1, int(rng.integers(2, 5)), 1]
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
                worst = max(worst, np.linalg.norm(g_mat - fd) / denom)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report(4, "analytic vs finite-difference gradients", ok,
           f"worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_5_pipeline_identity(tmp_path):
    rng = np.random.default_rng(50)
    gcn_policy = GcnLgsPolicy(identity_params())
    baseline = SolverPolicy("lgs")
    mismatches = 0
    for _ in range(100):
        family = rng.choice(["star30", "ba-m2", "er", "tree"])
        g = parse_graph_config(str(family)).build(rng)
        mu = float(rng.choice([0.01, 0.04, 0.07]))
        trace = sample_traffic(g, 24, mu * 50.0, rng)
        res_a, res_b = run_episode(g, [gcn_policy, baseline], trace)
        mismatches += not np.array_equal(res_a.members, res_b.members)
    ckpt = tmp_path / "identity.ckpt"
    save_checkpoint(ckpt, identity_params())
    config = ExperimentConfig("star30", (0.07,), instances=5, horizon=16,
                              seed=5)
    instances = tmp_path / "instances"
    cmd_generate(config, instances)
    config.policies = ("baseline", "gcn")
    config.checkpoint = ckpt
    evaluation = cmd_eval(config, instances, None)
    ars_one = all(row[key] == 1.0 for row in evaluation.ars
                  for key in ("ar_mean", "ar_median", "ar_p95"))
    ok = mismatches == 0 and ars_one
    report(5, "identity GCN reproduces baseline schedules", ok,
           f"mismatched episodes: {mismatches}, all ARs == 1: {ars_one}")


def test_criterion_6_dynamics_conservation():
    rng = np.random.default_rng(60)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        g = generate_er(n, 0.2, rng)
        trace = sample_traffic(g, 32, float(rng.uniform(0.5, 4.0)), rng)
        result, = run_episode(g, [SolverPolicy("lgs")], trace)
        if (result.queues < 0).any():
            violations += 1
            continue
        for t, members in enumerate(result.members):
            served = np.zeros(n, dtype=np.int64)
            for v in np.flatnonzero(members):
                served[v] = min(trace.rates[t, v], result.queues[t, v])
            if not np.array_equal(result.queues[t + 1] - result.queues[t],
                                  trace.arrivals[t] - served):
                violations += 1
                break
    ok = violations == 0
    report(6, "queue conservation, exact integers", ok,
           f"{violations} violating episodes")


def test_criterion_7_round_complexity():
    rng = np.random.default_rng(70)
    mean_rounds = {}
    for n in (50, 100, 200, 400):
        rounds = []
        for _ in range(200):
            g = generate_er(n, 0.1, rng)
            rounds.append(int(lgs_rows(g, rng.random((1, n)))[1][0]))
        mean_rounds[n] = float(np.mean(rounds))
    growth = mean_rounds[400] / mean_rounds[50]
    bound = np.log2(400) / np.log2(50) * 1.5
    ok = growth <= bound
    report(7, "LGS round growth is logarithmic", ok,
           f"rounds {mean_rounds}, growth {growth:.3f} <= {bound:.3f}")


def test_criterion_8_training_smoke(tmp_path):
    start = time.perf_counter()
    config = TrainConfig(episodes=1000, seed=TRAIN_SEED)
    result = train(config, tmp_path)
    gcn_policy = GcnLgsPolicy(result.params)
    baseline = SolverPolicy("lgs")
    preset = parse_graph_config("star30")
    master = np.random.default_rng(EVAL_SEED)
    median_ars = []
    for _ in range(100):
        g = preset.build(int(master.integers(2**63)))
        trace = sample_traffic(g, 64, 0.07 * 50.0,
                               int(master.integers(2**63)))
        base_metrics, gcn_metrics = map(
            compute_metrics, run_episode(g, [baseline, gcn_policy], trace))
        median_ars.append(gcn_metrics.median / base_metrics.median)
    aggregate = float(np.mean(median_ars))
    elapsed = time.perf_counter() - start
    ok = aggregate < 1.00 and elapsed < 1800
    report(8, "trained scheduler beats baseline median backlog", ok,
           f"median AR {aggregate:.4f} over 100 Star30 instances "
           f"in {elapsed:.0f}s")


def test_criterion_9_traffic_statistics():
    g = generate_er(50, 0.1, 0)
    lam = 3.5
    trace = sample_traffic(g, 20_000, lam, 90)  # 1e6 draws per stream
    arrivals_mean = float(np.mean(trace.arrivals))
    rates_mean = float(np.mean(trace.rates))
    ok = (abs(arrivals_mean - lam) <= 0.02 * lam
          and abs(rates_mean - 50.0) <= 0.02 * 50.0
          and trace.rates.min() >= 0 and trace.rates.max() <= 100)
    report(9, "traffic sampling statistics", ok,
           f"arrival mean {arrivals_mean:.4f} (want {lam}+-2%), "
           f"rate mean {rates_mean:.4f} (want 50+-2%), "
           f"rate range [{trace.rates.min()}, {trace.rates.max()}]")
