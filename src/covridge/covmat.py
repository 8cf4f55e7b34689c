"""Sample matrices and the shrinkage covariance, whitened in the data's row space.

The covariance-ridge penalty lam * beta' Sigma beta uses the estimate
Sigma = (1 - rho) S + rho mu I, the sample covariance S (divisor n) shrunk
toward its scaled-identity target, mu = tr(S)/p, with which it shares its
eigenvectors. The intensity rho = min(d^2, b^2) / d^2 (Ledoit & Wolf 2004)
weighs d^2, the dispersion of S around its target, against b^2, the mean
dispersion of per-sample outer products around S. It needs only the squared
row norms of the centred data and the eigenvalues of S, so no p x p
covariance is formed.

Only the r = min(n, p) eigenvectors V that the centred data span carry any
data; along the other p - r the data term is flat and the penalty alone
holds beta at zero (Hastie & Tibshirani 2004, "Efficient quadratic
regularization for expression arrays"). For p > n, V is the left factor of
a thin SVD of the tall transposed centred data, which LAPACK factors
QR-first, not by its slower LQ path (Chan 1982). With e the eigenvalues of
S along V and sigma = (1 - rho) e + rho mu, the whitened coordinates are
t = (x - mean) @ back with back = V sigma^{-1/2}. A coefficient gamma
fitted on t under the plain penalty lam * |gamma|^2 maps to the original
coordinates as beta = back @ gamma, and beta' Sigma beta = |gamma|^2.

`sample_covariance` and `lw_shrink` form S and Sigma as p x p matrices, an
independent oracle that shares no code with the pipeline's whitener.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        values = np.asarray(self.values, dtype=float)
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


class CovarianceEstimate(NamedTuple):
    """p x p covariance estimate: rho is the shrinkage intensity applied
    (0 for the plain sample estimator) and mu the scale of the identity
    target, tr(S)/p."""

    matrix: np.ndarray
    estimator: str
    rho: float
    mu: float


def sample_covariance(data: SampleMatrix) -> CovarianceEstimate:
    """Sample covariance of the columns of `data`, divisor n (not n - 1)."""
    c = data.values - data.values.mean(axis=0)
    s = c.T @ c  # numpy's syrk path: exactly symmetric
    s /= data.n
    return CovarianceEstimate(s, "sample", 0.0, float(np.trace(s)) / data.p)


def lw_shrink(data: SampleMatrix) -> CovarianceEstimate:
    """Linear shrinkage (1 - rho) S + rho mu I of the sample covariance, with
    rho = min(d^2, b^2) / d^2, d^2 = |S - mu I|_F^2 and b^2 = (sum_t |c_t|^4
    - n |S|_F^2) / n^2 over the centred rows c_t; rho = 0 when S equals its
    target. All-constant data raise DegenerateDataError. S is the one p x p
    array formed: it is shrunk in place."""
    x = data.values
    n, p = x.shape
    if np.all(x == x[0]):
        raise DegenerateDataError("all samples identical, covariance is zero")
    c = x - x.mean(axis=0)
    s = c.T @ c  # numpy's syrk path: exactly symmetric
    s /= n
    mu = float(np.trace(s)) / p
    s.flat[:: p + 1] -= mu  # s holds S - mu I
    d2 = float(np.vdot(s, s))
    sq_norms = np.einsum("ij,ij->i", c, c)
    # |S|_F^2 = d^2 + p mu^2, since tr(S) = p mu
    b2 = (float(sq_norms @ sq_norms) - n * (d2 + p * mu * mu)) / (n * n)
    rho = 0.0 if d2 <= 0.0 else min(1.0, max(0.0, b2 / d2))
    s *= 1.0 - rho
    s.flat[:: p + 1] += mu
    return CovarianceEstimate(s, "lw2004", rho, mu)


def fit_whitener(data: SampleMatrix, shrink: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Whitened coordinates t (n x r), back-map (p x r) and shrinkage
    intensity rho for `data`, with r = min(n, p); rho is the Ledoit-Wolf
    intensity of the module docstring with `shrink`, else 0 and Sigma = S.
    `data` is left as it was: the work runs on one copy of its values.

    The eigenvectors come from the p x p Gram matrix when p <= n, else from
    a thin SVD V diag(s) W' of the centred data's transpose (tall: LAPACK's
    QR-first path, not its slow LQ-first one), and t = W diag(s sigma^-1/2)
    from its right factor. Raises NumericalError when an
    eigenvalue of Sigma, rho mu included when p > r, is at or below the floor.
    """
    return _whiten(np.copy(data.values), shrink)


def _whiten(centred: np.ndarray, shrink: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """`fit_whitener` on `centred`, which it centres in place and, when
    p <= n, overwrites with t."""
    n, p = centred.shape
    centred -= centred.mean(axis=0)
    if p <= n:
        evals, v = np.linalg.eigh(centred.T @ centred / n)
    else:
        v, singular, wt = np.linalg.svd(centred.T, full_matrices=False)
        evals = singular**2 / n
    rho, mu = 0.0, 0.0
    if shrink:  # before t overwrites the centred buffer
        sq_norms = np.einsum("ij,ij->i", centred, centred)
        mu = float(sq_norms.sum()) / (n * p)
        # |S - mu I|_F^2 summed along V and the p - r directions S lacks
        d2 = float(np.sum((evals - mu) ** 2)) + (p - evals.size) * mu * mu
        # b^2 = (sum_t |c_t|^4 - n |S|_F^2) / n^2, |S|_F^2 = |evals|^2
        b2 = (float(sq_norms @ sq_norms) - n * float(evals @ evals)) / (n * n)
        rho = 0.0 if d2 <= 0.0 else min(1.0, max(0.0, b2 / d2))
    sigma = (1.0 - rho) * evals + rho * mu
    spectrum = sigma if p <= n else np.append(sigma, rho * mu)
    smallest, floor = float(np.min(spectrum)), EIGEN_FLOOR_REL * float(np.max(spectrum))
    if not smallest > floor:
        raise NumericalError(
            f"smallest eigenvalue {smallest:.3e} is at or below the floor {floor:.3e}"
        )
    back = v * sigma**-0.5
    if p > n:  # t = centred @ back without the n x p x n product
        return np.multiply(wt.T, singular * sigma**-0.5, order="C"), back, rho
    # t takes over the buffer via an aliased out=, which numpy computes into
    # an n x r temporary (t in row blocks would not, but its bits differ)
    return np.matmul(centred, back, out=centred), back, rho
