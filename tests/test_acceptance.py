"""Acceptance gate: eleven go/no-go criteria for the ranking pipeline.

Every test records exactly one [PASS]/[FAIL] line with the measured value
next to its frozen bound, then asserts; the conftest hook replays the
lines after the run so the gate is readable straight off the terminal. A
red line here is a release blocker, not a flaky test; tolerances are part
of the contract.
"""
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from covridge import (
    CovarianceEstimate,
    CrpConfig,
    RidgeFit,
    SampleMatrix,
    crp_run,
    fit_mse,
    fit_whitener,
    gen_sem_model,
    inverse_sqrt,
    loss_value,
    lw_shrink,
    min_eigenvalue,
    multinomial_gradient,
    sample_covariance,
    sample_sem,
    sem_stationary_covariance,
)
from covridge.bench import run_poly_suite, run_sem_suite
from covridge.evalharness import aggregate_replicates

MASTER_SEED = 2026
TOY = dict(reps=20, seed=MASTER_SEED, n=1000, b=500, extras_levels=(1, 5, 15, 45, 95))
VERDICT_LINES: list[str] = []


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}"
    VERDICT_LINES.append(line)
    print(line)
    return ok


def pooled(suite: dict):
    return aggregate_replicates([s for level in suite["summaries"].values() for s in level])


@pytest.fixture(scope="module")
def gaussian_suite():
    return run_poly_suite("gaussian", **TOY)


@pytest.fixture(scope="module")
def beta22_suite():
    return run_poly_suite("beta22", **TOY)


@pytest.fixture(scope="module")
def beta_random_suite():
    return run_poly_suite("beta_random", **TOY)


def test_01_whitened_solver_matches_direct_closed_form():
    # beta from whiten -> penalized fit -> unwhiten must equal the direct
    # minimizer of |y - a - Xb|^2/n + lam * b' Sigma b to 1e-6 relative
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        p = int(rng.integers(2, 21))
        n = int(rng.integers(p + 5, 101))
        lam = (0.01, 1.0)[i % 2]
        mixing = np.eye(p) + 0.2 * rng.standard_normal((p, p))
        x = rng.standard_normal((n, p)) @ mixing
        y = x @ rng.standard_normal(p) + rng.standard_normal(n)
        data = SampleMatrix(x, [f"X{j}" for j in range(1, p + 1)])
        cov = sample_covariance(data)

        t, back, _ = fit_whitener(data, False)
        fit = fit_mse(t, y, lam)
        beta_pipe = back @ fit.gamma[:, 0]
        alpha_pipe = float(fit.alpha[0]) - float(beta_pipe @ x.mean(axis=0))

        xc = x - x.mean(axis=0)
        beta_direct = np.linalg.solve(xc.T @ xc / n + lam * cov.matrix, xc.T @ (y - y.mean()) / n)
        alpha_direct = float(y.mean()) - float(beta_direct @ x.mean(axis=0))

        rel = np.linalg.norm(beta_pipe - beta_direct) / np.linalg.norm(beta_direct)
        rel_a = abs(alpha_pipe - alpha_direct) / max(1.0, abs(alpha_direct))
        worst = max(worst, float(rel), rel_a)
    ok = worst < 1e-6
    assert verdict(1, "whitened solver vs direct closed form", ok,
                   f"worst relative error {worst:.2e} (need < 1e-6 over 50 instances)")


def test_02_gaussian_toy_selection_inside_boundary(gaussian_suite):
    agg = pooled(gaussian_suite)
    ok_subset = agg.subset_rate >= 0.90
    ok_tp = 1.0 <= agg.mean_tp <= 3.5
    assert verdict(2, "gaussian toy replication", ok_subset and ok_tp,
                   f"subset_rate={agg.subset_rate:.3f} (need >= 0.90), "
                   f"mean_tp={agg.mean_tp:.3f} (need in [1.0, 3.5])")


def test_03_beta22_toy_recovers_most_of_the_boundary(beta22_suite):
    agg = pooled(beta22_suite)
    ok = 3.5 <= agg.mean_tp <= 5.0
    assert verdict(3, "beta(2,2) toy replication", ok,
                   f"mean_tp={agg.mean_tp:.3f} (need in [3.5, 5.0])")


def test_04_random_beta_toy_close_behind_beta22(beta22_suite, beta_random_suite):
    agg = pooled(beta_random_suite)
    ref = {g["extras"]: g["aggregate"]["mean_tp"] for g in beta22_suite["groups"]}
    wins = sum(
        g["aggregate"]["mean_tp"] <= ref[g["extras"]] for g in beta_random_suite["groups"]
    )
    ok = 3.2 <= agg.mean_tp <= 5.0 and wins >= 3
    assert verdict(4, "random-beta toy replication", ok,
                   f"mean_tp={agg.mean_tp:.3f} (need in [3.2, 5.0]), "
                   f"<= beta(2,2) at {wins}/5 levels (need >= 3)")


def test_05_null_pvalues_calibrated():
    rng = np.random.default_rng(1000)
    x = rng.standard_normal((200, 100))
    y = rng.standard_normal(200)
    data = SampleMatrix(np.column_stack([x, y]), [f"X{i}" for i in range(1, 101)] + ["Y"])
    report = crp_run(data, "Y", CrpConfig(permutations=499, seed=0))
    fraction = float(np.mean(report.p_values <= 0.05))
    ok = 0.01 <= fraction <= 0.11
    assert verdict(5, "null p-value calibration", ok,
                   f"fraction p<=0.05 is {fraction:.3f} (need in [0.01, 0.11])")


def test_06_shrinkage_always_positive_definite():
    smallest = np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = SampleMatrix(rng.standard_normal((10, 50)), [f"X{i}" for i in range(50)])
        smallest = min(smallest, min_eigenvalue(lw_shrink(data)))
    ok = smallest > 0.0
    assert verdict(6, "shrinkage positive definite at n=10 p=50", ok,
                   f"min eigenvalue over 100 datasets {smallest:.3e} (need > 0)")


def test_07_inverse_sqrt_accuracy_up_to_p200():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = 10 * (seed + 1)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        evals = 10.0 ** rng.uniform(-2, 2, size=p)
        matrix = (q * evals) @ q.T
        est = CovarianceEstimate(matrix, "sample", 0.0, float(np.trace(matrix) / p))
        w = inverse_sqrt(est)
        worst = max(worst, float(np.abs(w @ w @ est.matrix - np.eye(p)).max()))
    ok = worst < 1e-8
    assert verdict(7, "inverse square root accuracy", ok,
                   f"worst |WWM - I| {worst:.2e} over 20 seeds up to p=200 (need < 1e-8)")


def test_08_sem_sampler_matches_stationary_covariance():
    model = gen_sem_model(p=10, expected_degree=2.0, seed=25)
    assert not nx.is_directed_acyclic_graph(model.graph())
    data = sample_sem(model, 50_000, seed=100)
    centered = data.values - data.values.mean(axis=0)
    empirical = centered.T @ centered / data.n
    deviation = float(np.abs(empirical - sem_stationary_covariance(model)).max())
    ok = deviation < 0.05
    assert verdict(8, "cyclic model sampler vs analytic covariance", ok,
                   f"max abs deviation {deviation:.4f} at n=50000 (need < 0.05)")


def test_09_sem_hit_rate_floor():
    result = run_sem_suite(
        reps=30, seed=MASTER_SEED, p=50, expected_degree=2.0, b=500, sizes=(500,)
    )
    hit_rate = result["groups"][0]["aggregate"]["hit_rate"]
    ok = hit_rate >= 0.6
    assert verdict(9, "structural-model hit rate", ok,
                   f"hit_rate={hit_rate:.3f} over 30 replicates (need >= 0.6)")


def test_10_reports_byte_identical_across_thread_counts(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((150, 6))
    labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float) + (x[:, 0] - x[:, 1] > 1.0)
    rows = ["X1,X2,X3,X4,X5,X6,Y"]
    for row, label in zip(x, labels):
        rows.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("\n".join(rows) + "\n")

    out = tmp_path / "report.json"
    argv = [
        sys.executable, "-m", "covridge", "run", "--data", str(data_csv),
        "--response", "Y", "--loss", "multinomial", "--folds", "5",
        "--B", "200", "--seed", "3", "--out", str(out),
    ]

    def run() -> bytes:
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    first = run()
    second = run()
    ok = first == second
    assert verdict(10, "byte-identical reports across reruns", ok,
                   f"rerun identical: {first == second}")


def test_11_multinomial_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    step = 1e-5
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(30, 61))
        p = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        zv = rng.standard_normal((n, p))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        alpha = rng.standard_normal(k)
        gamma = rng.standard_normal((p, k))
        lam = (0.05, 0.5)[i % 2]

        def objective(a, g):
            fit = RidgeFit(
                alpha=a, gamma=g, lam=lam, objective=0.0, iterations=0,
                converged=True,
            )
            return loss_value(fit, zv, labels, "multinomial", penalized=True)

        grad_alpha, grad_gamma = multinomial_gradient(zv, labels, alpha, gamma, lam)
        fd_alpha = np.zeros_like(alpha)
        for j in range(k):
            bump = np.zeros(k)
            bump[j] = step
            fd_alpha[j] = (objective(alpha + bump, gamma) - objective(alpha - bump, gamma)) / (
                2 * step
            )
        fd_gamma = np.zeros_like(gamma)
        for r in range(p):
            for c in range(k):
                bump = np.zeros((p, k))
                bump[r, c] = step
                fd_gamma[r, c] = (
                    objective(alpha, gamma + bump) - objective(alpha, gamma - bump)
                ) / (2 * step)

        scale = max(float(np.abs(fd_alpha).max()), float(np.abs(fd_gamma).max()), 1e-12)
        err = max(
            float(np.abs(grad_alpha - fd_alpha).max()),
            float(np.abs(grad_gamma - fd_gamma).max()),
        )
        worst = max(worst, err / scale)
    ok = worst < 1e-4
    assert verdict(11, "multinomial gradient vs finite differences", ok,
                   f"worst relative error {worst:.2e} over 20 instances (need < 1e-4)")
