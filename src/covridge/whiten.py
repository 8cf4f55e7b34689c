"""Whitening in the row space of the centred data.

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
"""
from __future__ import annotations

import numpy as np

from .covmat import SampleMatrix, check_eigen_floor


def fit_whitener(data: SampleMatrix, rho: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Whitened coordinates t (n x r) and back-map (p x r) for `data` under
    Sigma = (1 - rho) S + rho mu I, with r = min(n, p).

    The eigenvectors come from the p x p Gram matrix when p <= n and from a
    thin SVD of the centred data when p > n, so no p x p decomposition
    runs for wide data. Raises NumericalError when an eigenvalue of Sigma,
    rho mu included when p > r, is at or below the relative floor.
    """
    x = data.values
    n, p = x.shape
    centred = x - x.mean(axis=0)
    if p <= n:
        evals, v = np.linalg.eigh(centred.T @ centred / n)
    else:
        _, singular, vt = np.linalg.svd(centred, full_matrices=False)
        evals, v = singular**2 / n, vt.T
    sigma = (1.0 - rho) * evals + rho * mu
    check_eigen_floor(sigma if p <= n else np.append(sigma, rho * mu))
    back = v * sigma**-0.5
    if p > n:
        return centred @ back, back
    # t has the shape of the centred data and reuses its buffer: on tall
    # data a separate n x p result left the heap fragmented and raised the
    # peak resident set by about a tenth
    return np.matmul(centred, back, out=centred), back
