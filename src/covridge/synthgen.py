"""Synthetic benchmark generators with known Markov boundaries.

Two families: polynomial toys (five relevant variables plus irrelevant
extras) and linear Gaussian structural models with feedback allowed. Each
generator also exposes the ground-truth Markov boundary of its response,
read off the model's parent lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covmat import SampleMatrix
from .errors import DataError, NumericalError, UsageError

POLY_FAMILIES = ("gaussian", "beta22", "beta_random")
MB_SIZE = 5
_MIN_SD = 1e-3
SPECTRAL_RADIUS_CAP = 0.9


@dataclass(frozen=True)
class GroundTruth:
    """Target name plus its true Markov boundary, tagged with the generator."""

    target: str
    mb: frozenset[str]
    source: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "mb", frozenset(str(m) for m in self.mb))
        if self.target in self.mb:
            raise UsageError(f"field 'mb' lists the target {self.target!r} in its own boundary")
        # "bn" tags truth files that the removed discrete-network generator wrote
        if self.source not in ("poly", "sem", "bn"):
            raise UsageError(f"field 'source' must be poly, sem or bn, got {self.source!r}")


@dataclass(frozen=True)
class PolyToySpec:
    family: str = "gaussian"
    extras: int = 95
    n: int = 1000
    seed: int = 0
    noise_sd: float = 1e-4
    theta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in POLY_FAMILIES:
            raise UsageError(f"unknown family {self.family!r}, expected one of {POLY_FAMILIES}")
        if self.extras < 0:
            raise UsageError("extras must be >= 0")
        if self.n < 2:
            raise UsageError("need at least 2 samples")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not np.isfinite(self.noise_sd) or self.noise_sd < 0:
            raise UsageError("noise sd must be finite and >= 0")
        if self.theta is not None:
            theta = tuple(float(t) for t in self.theta)
            if len(theta) != MB_SIZE + 1:
                raise UsageError(f"theta needs {MB_SIZE + 1} coefficients, got {len(theta)}")
            object.__setattr__(self, "theta", theta)


def gen_poly_toy(spec: PolyToySpec) -> tuple[SampleMatrix, GroundTruth]:
    """Polynomial toy data: Y = noise + theta_0 + sum_i theta_i * X_i^i, i = 1..5.

    The response is always computed from the raw draws. Beta-family columns
    are mean-centered afterwards for output, which changes nothing about the
    dependence structure (the pipeline is translation invariant) but keeps
    column scales comparable across families.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    p = MB_SIZE + spec.extras
    if spec.theta is not None:
        theta = np.asarray(spec.theta, dtype=float)
    else:
        theta = rng.standard_normal(MB_SIZE + 1)

    if spec.family == "gaussian":
        sds = np.abs(rng.standard_normal(p))
        while np.any(sds < _MIN_SD):
            low = sds < _MIN_SD
            sds[low] = np.abs(rng.standard_normal(int(low.sum())))
        raw = rng.standard_normal((spec.n, p)) * sds
        columns = raw
    elif spec.family == "beta22":
        raw = rng.beta(2.0, 2.0, size=(spec.n, p))
        columns = raw - raw.mean(axis=0)
    else:
        a = rng.uniform(0.0, 5.0, size=p)
        b = rng.uniform(0.0, 5.0, size=p)
        while np.any(a == 0.0):
            a[a == 0.0] = rng.uniform(0.0, 5.0, size=int((a == 0.0).sum()))
        while np.any(b == 0.0):
            b[b == 0.0] = rng.uniform(0.0, 5.0, size=int((b == 0.0).sum()))
        raw = rng.beta(a, b, size=(spec.n, p))
        columns = raw - raw.mean(axis=0)

    powers = raw[:, :MB_SIZE] ** np.arange(1, MB_SIZE + 1)
    y = rng.normal(0.0, spec.noise_sd, size=spec.n) + theta[0] + powers @ theta[1:]

    names = [f"X{i + 1}" for i in range(p)] + ["Y"]
    data = SampleMatrix(np.column_stack([columns, y]), names)
    truth = GroundTruth("Y", frozenset(names[:MB_SIZE]), "poly")
    return data, truth


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a (generally non-symmetric) matrix."""
    return float(np.abs(np.linalg.eigvals(matrix)).max())


@dataclass
class SemModel:
    """Linear structural model x = b x + eps, eps ~ N(0, diag(d)).

    b[i, j] is the weight of the edge j -> i. The diagonal is zero and the
    spectral radius of b stays below 1 so the model has a stationary law.
    """

    b: np.ndarray
    d: np.ndarray
    names: list[str]
    response_index: int

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        if self.b.ndim != 2 or self.b.shape[0] != self.b.shape[1]:
            raise DataError("edge weight matrix must be square")
        p = self.b.shape[0]
        if not np.all(np.isfinite(self.b)):
            raise DataError("edge weights contain non-finite values")
        if np.any(np.diag(self.b) != 0.0):
            raise DataError("self loops are not allowed (diagonal must be zero)")
        if self.d.shape != (p,) or not np.all(np.isfinite(self.d)) or np.any(self.d <= 0):
            raise DataError("noise variances must be positive, finite, length p")
        if len(self.names) != p or len(set(self.names)) != p:
            raise DataError("need p unique variable names")
        if not 0 <= self.response_index < p:
            raise UsageError(f"response index {self.response_index} out of range")
        if spectral_radius(self.b) >= 1.0:
            raise DataError("spectral radius of b must stay below 1")

    @property
    def p(self) -> int:
        return self.b.shape[0]

    @property
    def response(self) -> str:
        return self.names[self.response_index]

    @property
    def parents(self) -> list[list[int]]:
        """Parent indices of every variable: j is a parent of i when b[i, j] != 0."""
        return [np.flatnonzero(row).tolist() for row in self.b]


def gen_sem_model(
    p: int, expected_degree: float, allow_cycles: bool = True, seed: int = 0
) -> SemModel:
    """Random structural model over p variables.

    Every ordered pair j -> i (i != j) receives an edge independently with
    probability expected_degree / (p - 1); without cycles only pairs running
    forward along a random topological order are eligible. Weights are
    uniform on [0.2, 0.8] with a random sign. If the spectral radius reaches
    0.9 the whole matrix is rescaled so it sits exactly at 0.9.
    """
    if p < 2:
        raise UsageError("need at least 2 variables")
    if not np.isfinite(expected_degree) or expected_degree < 0:
        raise UsageError(f"expected degree must be finite and >= 0, got {expected_degree}")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    prob = min(1.0, expected_degree / (p - 1))

    order = rng.permutation(p)
    edge_draw = rng.random((p, p))
    magnitudes = rng.uniform(0.2, 0.8, size=(p, p))
    signs = 2.0 * rng.integers(0, 2, size=(p, p)) - 1.0

    mask = edge_draw < prob
    np.fill_diagonal(mask, False)
    if not allow_cycles:
        position = np.empty(p, dtype=int)
        position[order] = np.arange(p)
        # keep j -> i only when j comes before i in the topological order
        mask &= position[None, :] < position[:, None]

    b = np.where(mask, signs * magnitudes, 0.0)
    radius = spectral_radius(b)
    if radius >= SPECTRAL_RADIUS_CAP:
        b *= SPECTRAL_RADIUS_CAP / radius

    d = rng.uniform(0.5, 1.5, size=p)
    response_index = int(rng.integers(p))
    names = [f"X{i + 1}" for i in range(p)]
    return SemModel(b=b, d=d, names=names, response_index=response_index)


def sem_stationary_covariance(model: SemModel) -> np.ndarray:
    """Stationary covariance (I - b)^-1 diag(d) (I - b)^-T of the model."""
    eye = np.eye(model.p)
    try:
        inv = np.linalg.inv(eye - model.b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"I - b is singular: {exc}") from exc
    cov = inv @ np.diag(model.d) @ inv.T
    return (cov + cov.T) / 2.0


def sample_sem(model: SemModel, n: int, seed: int) -> SampleMatrix:
    """Exact stationary draws: x = (I - b)^-1 eps with eps ~ N(0, diag(d))."""
    if n < 2:
        raise UsageError("need at least 2 samples")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    eps = rng.standard_normal((n, model.p)) * np.sqrt(model.d)
    x = np.linalg.solve(np.eye(model.p) - model.b, eps.T).T
    return SampleMatrix(x, list(model.names))


def markov_boundary_of(
    names: Sequence[str], parents: Sequence[Sequence[int]], target: str, *, source: str
) -> GroundTruth:
    """Parents, children and co-parents of the target's children, minus the
    target itself, in the structure where variable v has the parent indices
    `parents[v]`. `source` tags which generator the structure came from."""
    if target not in names:
        raise UsageError(f"target {target!r} is not a variable of the model")
    t = list(names).index(target)
    children = [v for v, pa in enumerate(parents) if t in pa]
    mb = set(parents[t]).union(children, *(parents[c] for c in children)) - {t}
    return GroundTruth(target, frozenset(names[v] for v in mb), source)
