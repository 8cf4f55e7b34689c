"""Covariance estimation for explanatory variables.

Provides the plain sample estimator (divisor n), linear shrinkage toward a
scaled identity target, symmetric inverse square roots and the eigenvalue
floor used for whitening. Shrinkage intensity follows the closed-form rule
rho = min(d^2, b^2) / d^2 where d^2 measures the dispersion of the sample
covariance around its scaled-identity target and b^2 the average dispersion
of per-sample outer products around the sample covariance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError, NumericalError, UsageError

# Relative eigenvalue floor: eigenvalues at or below 1e-12 times the largest
# eigenvalue are treated as zero and rejected before inversion.
EIGEN_FLOOR_REL = 1e-12


@dataclass
class SampleMatrix:
    """n samples (rows) of p named variables (columns), all entries finite."""

    values: np.ndarray
    column_names: list[str]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError(f"sample matrix must be 2-D, got {values.ndim}-D")
        n, p = values.shape
        if n < 2 or p < 1:
            raise DataError(f"need at least 2 samples and 1 variable, got {n}x{p}")
        if not np.all(np.isfinite(values)):
            raise DataError("sample matrix contains non-finite entries")
        names = [str(name) for name in self.column_names]
        if len(names) != p:
            raise DataError(f"{p} columns but {len(names)} column names")
        if len(set(names)) != len(names):
            raise DataError("column names must be unique")
        self.values = values
        self.column_names = names

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise UsageError(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]


@dataclass
class CovarianceEstimate:
    """Symmetric p x p covariance estimate plus shrinkage metadata.

    rho is the shrinkage intensity actually applied (0 for the plain sample
    estimator) and mu the scale of the identity target, tr(S)/p.
    """

    matrix: np.ndarray
    estimator: str
    rho: float
    mu: float

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise UsageError(f"covariance matrix must be square, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise NumericalError("covariance matrix contains non-finite entries")
        if self.estimator not in ("sample", "lw2004"):
            raise UsageError(f"unknown estimator tag {self.estimator!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise UsageError(f"shrinkage intensity must lie in [0, 1], got {self.rho}")
        # Symmetry holds by construction, never by trust in the caller.
        self.matrix = (matrix + matrix.T) / 2.0
        self.rho = float(self.rho)
        self.mu = float(self.mu)


def sample_covariance(data: SampleMatrix) -> CovarianceEstimate:
    """Sample covariance of the columns of `data`, divisor n (not n - 1)."""
    centered = data.values - data.values.mean(axis=0)
    s = centered.T @ centered / data.n
    mu = float(np.trace(s)) / data.p
    return CovarianceEstimate(s, "sample", 0.0, mu)


def lw_shrink(data: SampleMatrix) -> CovarianceEstimate:
    """Linear shrinkage of the sample covariance toward mu * I.

    Returns (1 - rho) * S + rho * mu * I with rho from `lw_intensity`; when
    S already equals its target the data carry no preference for any rho,
    so rho = 0. All-constant data raise DegenerateDataError.
    """
    x = data.values
    n, p = x.shape
    if np.all(x == x[0]):
        raise DegenerateDataError("all samples identical, covariance is zero")
    centered = x - x.mean(axis=0)
    s = centered.T @ centered / n
    mu = float(np.trace(s)) / p

    delta = s - mu * np.eye(p)
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    rho = lw_intensity(sq_norms, float(np.sum(s * s)), float(np.sum(delta * delta)))
    shrunk = (1.0 - rho) * s + rho * mu * np.eye(p)
    return CovarianceEstimate(shrunk, "lw2004", rho, mu)


def lw_intensity(row_sq_norms: np.ndarray, s_sq_sum: float, d2: float) -> float:
    """rho = min(d^2, b^2) / d^2 in [0, 1] from the squared norms |c_t|^2 of
    the centred rows, |S|_F^2 and d^2 = |S - mu I|_F^2; d^2 = 0 gives 0.
    (1/n^2) sum_t |c_t c_t' - S|_F^2 collapses to (sum_t |c_t|^4 - n |S|_F^2)
    / n^2 because sum_t c_t c_t' = n S, so no p x p matrix is needed."""
    n = row_sq_norms.shape[0]
    b2_bar = (float(row_sq_norms @ row_sq_norms) - n * s_sq_sum) / (n * n)
    b2 = min(d2, max(0.0, b2_bar))
    return 0.0 if d2 <= 0.0 else min(1.0, max(0.0, b2 / d2))


def check_eigen_floor(evals: np.ndarray) -> None:
    """Reject a symmetric matrix's spectrum whose smallest eigenvalue is at or
    below EIGEN_FLOOR_REL times its largest."""
    smallest, largest = float(np.min(evals)), float(np.max(evals))
    floor = EIGEN_FLOOR_REL * largest
    if not smallest > floor:
        raise NumericalError(
            f"smallest eigenvalue {smallest:.3e} is at or below the floor {floor:.3e}"
        )


def inverse_sqrt(cov: CovarianceEstimate) -> np.ndarray:
    """Symmetric inverse square root of cov.matrix via eigendecomposition.

    Matrix inversion routines are deliberately not used here: the
    eigenvector factorization keeps the result symmetric, and eigenvalues
    at the floor are rejected before they are inverted.
    """
    evals, q = np.linalg.eigh(cov.matrix)
    check_eigen_floor(evals)
    w = (q * evals**-0.5) @ q.T
    return (w + w.T) / 2.0


def min_eigenvalue(cov: CovarianceEstimate) -> float:
    """Smallest eigenvalue of the covariance estimate."""
    return float(np.linalg.eigvalsh(cov.matrix)[0])
