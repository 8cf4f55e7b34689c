"""Shrinkage and whitening in the row space of the centred data.

The covariance-ridge penalty lam * beta' Sigma beta uses the estimate
Sigma = (1 - rho) S + rho mu I, which shares its eigenvectors with the
sample covariance S. Only the r = min(n, p) eigenvectors V that the
centred data span carry any data; along the other p - r the data term is
flat and the penalty alone holds beta at zero (Hastie & Tibshirani 2004,
"Efficient quadratic regularization for expression arrays"). With e the
eigenvalues of S along V and sigma = (1 - rho) e + rho mu, the whitened
coordinates are t = (x - mean) @ back with back = V sigma^{-1/2}. A
coefficient gamma fitted on t under the plain penalty lam * |gamma|^2 maps
to the original coordinates as beta = back @ gamma, and
beta' Sigma beta = |gamma|^2.

The shrinkage intensity rho (Ledoit & Wolf 2004) needs only the squared
row norms of the centred data and e, so no p x p covariance is formed.
"""
from __future__ import annotations

import numpy as np

from .covmat import SampleMatrix, check_eigen_floor, lw_intensity


def fit_whitener(data: SampleMatrix, shrink: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Whitened coordinates t (n x r), back-map (p x r) and shrinkage
    intensity rho for `data`, with r = min(n, p); rho is that of
    `covmat.lw_shrink` with `shrink`, else 0 and Sigma = S. `data` is left
    as it was: the work runs on one copy of its values.

    The eigenvectors come from the p x p Gram matrix when p <= n and from a
    thin SVD of the centred data when p > n, so no p x p decomposition
    runs for wide data. Raises NumericalError when an eigenvalue of Sigma,
    rho mu included when p > r, is at or below the relative floor.
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
        _, singular, vt = np.linalg.svd(centred, full_matrices=False)
        evals, v = singular**2 / n, vt.T
    rho, mu = 0.0, 0.0
    if shrink:  # before t overwrites the centred buffer
        sq_norms = np.einsum("ij,ij->i", centred, centred)
        mu = float(sq_norms.sum()) / (n * p)
        # |S - mu I|_F^2 summed along V and the p - r directions S lacks
        d2 = float(np.sum((evals - mu) ** 2)) + (p - evals.size) * mu * mu
        rho = lw_intensity(sq_norms, float(evals @ evals), d2)
    sigma = (1.0 - rho) * evals + rho * mu
    check_eigen_floor(sigma if p <= n else np.append(sigma, rho * mu))
    back = v * sigma**-0.5
    if p > n:
        return centred @ back, back, rho
    # t takes over the buffer, but numpy computes an aliased out= into an
    # n x r temporary, so whitening peaks at two n x r arrays; t in row
    # blocks would not, but its bits differ from those of one GEMM
    return np.matmul(centred, back, out=centred), back, rho
