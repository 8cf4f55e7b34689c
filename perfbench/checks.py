"""Output checks applied to every pipeline call the benchmark makes.

A report passes when its p-values lie on the permutation lattice, its
ranking and selection follow from its p-values and statistics, its
coefficients are finite, its shrinkage intensity matches a recomputed
covariance, and its coefficients satisfy the stationarity (KKT) conditions
of the penalized objective. The stationarity oracle is written here in
plain numpy from the objective alone, so it does not depend on the
whitening code or on the solver's algorithm.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from covridge import covmat
from covridge.covmat import SampleMatrix

# Largest relative stationarity residual accepted. The squared-error fit is
# a direct solve, so its residual is rounding error; the multinomial solver
# stops once every gradient entry is below 1e-6 in whitened coordinates.
KKT_TOLERANCE = {"mse": 1e-8, "multinomial": 1e-5}
RHO_TOLERANCE = 1e-12
LATTICE_TOLERANCE = 1e-9


def split(data: SampleMatrix, response: str) -> tuple[np.ndarray, np.ndarray]:
    j = data.column_names.index(response)
    keep = [c for c in range(data.p) if c != j]
    return data.values[:, keep], data.values[:, j]


def expected_covariance(report, x: np.ndarray) -> covmat.CovarianceEstimate:
    """The estimate the pipeline should have used, recomputed from the data."""
    names = [f"c{i}" for i in range(x.shape[1])]
    sample = SampleMatrix(x, names)
    if report.config["covariance"] == "sample" and x.shape[0] - 1 >= x.shape[1]:
        return covmat.sample_covariance(sample)
    return covmat.lw_shrink(sample)


def kkt_residual(report, x: np.ndarray, y: np.ndarray, sigma: np.ndarray) -> float:
    """Relative stationarity residual of the reported fit.

    The objective in original coordinates is
        L(a, B) = (1/n) sum_i u(a + B'(x_i - m), y_i) + lam * tr(B' S B)
    with m the column means and S the covariance estimate; its minimiser in
    whitened coordinates G = S^{1/2} B is what the pipeline reports. The
    gradient in B is mapped to whitened scale (norm under S^{-1}) and
    compared with the size of the data term.
    """
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    beta = np.asarray(report.beta, dtype=float).reshape(x.shape[1], -1)
    alpha = np.asarray(report.intercept, dtype=float).reshape(-1)
    logits = alpha + xc @ beta
    if report.loss_used == "mse":
        # u = (y - f)^2
        dloss = -2.0 * (y[:, None] - logits)
    else:
        levels = np.asarray(report.class_levels, dtype=float)
        labels = np.searchsorted(levels, y)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        dloss = probs
        dloss[np.arange(n), labels] -= 1.0
    grad_alpha = dloss.mean(axis=0)
    data_term = xc.T @ dloss / n
    grad_beta = data_term + 2.0 * report.lambda_used * (sigma @ beta)

    def whitened_norm(g: np.ndarray) -> float:
        return float(np.sqrt(max(0.0, float(np.sum(g * np.linalg.solve(sigma, g))))))

    residual = np.hypot(float(np.linalg.norm(grad_alpha)), whitened_norm(grad_beta))
    return residual / max(1.0, whitened_norm(data_term))


def check_report(report, data: SampleMatrix, response: str) -> tuple[list[str], float]:
    """Every check on one report; returns the failures and the KKT residual."""
    failures: list[str] = []
    x, y = split(data, response)
    names = list(report.variable_names)
    p_values = np.asarray(report.p_values, dtype=float)
    stats = np.asarray(report.statistics, dtype=float)
    beta = np.asarray(report.beta, dtype=float)
    b = int(report.config["permutations"])
    alpha_level = float(report.config["alpha_level"])

    counts = p_values * (1 + b) - 1
    if not (
        np.all(np.abs(counts - np.round(counts)) <= LATTICE_TOLERANCE * (1 + b))
        and np.all(np.round(counts) >= 0)
        and np.all(np.round(counts) <= b)
    ):
        failures.append("p-value off the (1+c)/(1+B) lattice")

    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(report.intercept))):
        failures.append("non-finite coefficient or intercept")
    row_sums = np.abs(beta.reshape(len(names), -1)).sum(axis=1)
    if not np.allclose(stats, row_sums, rtol=1e-12, atol=0.0):
        failures.append("statistics differ from |beta| row sums")

    order = sorted(range(len(names)), key=lambda j: (p_values[j], -stats[j], j))
    if list(report.ranking) != [names[j] for j in order]:
        failures.append("ranking not sorted by (p, -statistic, column order)")
    expected_selected = {names[j] for j in range(len(names)) if p_values[j] <= alpha_level}
    if set(report.selected) != expected_selected:
        failures.append("selected set differs from {p <= alpha}")

    cov = expected_covariance(report, x)
    if report.covariance_used != cov.estimator or abs(report.rho_used - cov.rho) > RHO_TOLERANCE:
        failures.append(
            f"covariance {report.covariance_used}/rho={report.rho_used!r} but recomputed "
            f"{cov.estimator}/rho={cov.rho!r}"
        )

    kkt = kkt_residual(report, x, y, cov.matrix)
    if not kkt <= KKT_TOLERANCE[report.loss_used]:
        failures.append(f"stationarity residual {kkt:.3e} above {KKT_TOLERANCE[report.loss_used]:g}")
    return failures, kkt


def same_result(first, second) -> bool:
    """Whether a repeated call reproduced the p-values and ranking exactly."""
    return bool(
        np.array_equal(np.asarray(first.p_values), np.asarray(second.p_values))
        and list(first.ranking) == list(second.ranking)
    )


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_manifest(manifest: dict | None, csv: Path) -> list[str]:
    """The CLI report's manifest must carry the SHA-256 of the input CSV."""
    try:
        recorded = manifest["inputs"]["data"]["sha256"]
    except (KeyError, TypeError):
        return ["manifest has no input digest"]
    return [] if recorded == sha256_of(csv) else ["manifest SHA-256 differs from the CSV"]
