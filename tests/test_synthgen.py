"""Generator tests: polynomial toys, linear structural models, and the
Markov boundary reader.

The boundary reader is checked against a subset-enumeration oracle built on
d-separation, and the spectral radius cap against a repeated-squaring
growth-rate oracle.
"""
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from covridge import (
    DataError,
    PolyToySpec,
    SemModel,
    UsageError,
    gen_poly_toy,
    gen_sem_model,
    markov_boundary_of,
    sample_sem,
    sem_stationary_covariance,
    spectral_radius,
)
from graphs import digraph


class TestPolyToySpec:
    def test_defaults(self):
        spec = PolyToySpec()
        assert spec.family == "gaussian"
        assert spec.extras == 95
        assert spec.noise_sd == 1e-4

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            PolyToySpec(family="cauchy")

    def test_negative_extras(self):
        with pytest.raises(UsageError):
            PolyToySpec(extras=-1)

    def test_theta_length(self):
        with pytest.raises(UsageError):
            PolyToySpec(theta=(1.0, 2.0))


class TestGenPolyToy:
    @pytest.mark.parametrize("family", ["gaussian", "beta22", "beta_random"])
    @pytest.mark.parametrize("extras", [0, 3, 20])
    def test_column_counts(self, family, extras):
        data, truth = gen_poly_toy(PolyToySpec(family=family, extras=extras, n=50, seed=4))
        assert data.p == 5 + extras + 1
        assert data.column_names[-1] == "Y"
        assert truth.mb == frozenset({"X1", "X2", "X3", "X4", "X5"})
        assert truth.target == "Y"
        assert truth.source == "poly"

    def test_deterministic(self):
        spec = PolyToySpec(family="beta22", extras=2, n=40, seed=9)
        a, _ = gen_poly_toy(spec)
        b, _ = gen_poly_toy(spec)
        assert np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        a, _ = gen_poly_toy(PolyToySpec(extras=0, n=40, seed=0))
        b, _ = gen_poly_toy(PolyToySpec(extras=0, n=40, seed=1))
        assert not np.array_equal(a.values, b.values)

    def test_linear_theta_recovers_unit_slope(self):
        # theta picks out Y = X1 + eps: a plain regression on 1e5 samples
        # pins the slope at 1
        spec = PolyToySpec(
            family="gaussian", extras=0, n=100_000, seed=3, theta=(0, 1, 0, 0, 0, 0)
        )
        data, _ = gen_poly_toy(spec)
        x1 = data.column("X1")
        y = data.column("Y")
        slope = float(np.cov(x1, y)[0, 1] / np.var(x1))
        assert slope == pytest.approx(1.0, abs=1e-3)
        assert float(np.corrcoef(x1, y)[0, 1]) > 0.999

    def test_noise_scale(self):
        spec = PolyToySpec(
            family="gaussian", extras=0, n=20_000, seed=5, theta=(0, 0, 0, 0, 0, 0),
            noise_sd=0.5,
        )
        data, _ = gen_poly_toy(spec)
        assert float(np.std(data.column("Y"))) == pytest.approx(0.5, rel=0.05)

    def test_beta_columns_centered(self):
        data, _ = gen_poly_toy(PolyToySpec(family="beta22", extras=4, n=200, seed=6))
        x = data.values[:, :-1]
        assert np.max(np.abs(x.mean(axis=0))) < 1e-12

    def test_beta_even_powers_still_matter(self):
        # the response uses the raw draws on [0, 1], where x and x^2 are
        # strongly correlated; centering only the output columns must not
        # erase the even-degree variables
        spec = PolyToySpec(family="beta22", extras=0, n=50_000, seed=7, theta=(0, 0, 1, 0, 0, 0))
        data, _ = gen_poly_toy(spec)
        corr = np.corrcoef(data.column("X2"), data.column("Y"))[0, 1]
        assert abs(corr) > 0.9


def repeated_squaring_radius(matrix, squarings=40):
    # growth-rate oracle: ||A^k||^(1/k) -> spectral radius for any matrix
    # norm, so square the matrix `squarings` times (k = 2^squarings) while
    # tracking the accumulated log norm; robust to complex eigenvalue pairs
    # where plain power iteration oscillates
    b = np.asarray(matrix, dtype=float)
    log_norm = 0.0
    for _ in range(squarings):
        b = b @ b
        scale = np.linalg.norm(b)
        if scale == 0.0:
            return 0.0
        b /= scale
        log_norm = 2.0 * log_norm + np.log(scale)
    return float(np.exp(log_norm / 2.0**squarings))


class TestGenSemModel:
    def test_zero_degree_empty_graph(self):
        model = gen_sem_model(p=8, expected_degree=0.0, seed=1)
        assert np.all(model.b == 0.0)
        truth = markov_boundary_of(model.names, model.parents, model.response, source="sem")
        assert truth.mb == frozenset()

    def test_spectral_radius_capped(self):
        for seed in range(100):
            model = gen_sem_model(p=50, expected_degree=2.0, seed=seed)
            assert spectral_radius(model.b) < 0.9 + 1e-12

    def test_growth_rate_oracle_agrees(self):
        for seed in range(5):
            model = gen_sem_model(p=20, expected_degree=3.0, seed=seed)
            assert repeated_squaring_radius(model.b) == pytest.approx(
                spectral_radius(model.b), rel=1e-6
            )

    def test_acyclic_option(self):
        for seed in range(20):
            model = gen_sem_model(p=15, expected_degree=2.0, allow_cycles=False, seed=seed)
            assert nx.is_directed_acyclic_graph(digraph(model.names, model.parents))

    def test_cycles_do_occur_when_allowed(self):
        cyclic = 0
        for seed in range(20):
            model = gen_sem_model(p=15, expected_degree=2.0, allow_cycles=True, seed=seed)
            cyclic += not nx.is_directed_acyclic_graph(digraph(model.names, model.parents))
        assert cyclic > 0

    def test_deterministic(self):
        a = gen_sem_model(p=12, expected_degree=2.0, seed=5)
        b = gen_sem_model(p=12, expected_degree=2.0, seed=5)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.d, b.d)
        assert a.response_index == b.response_index

    def test_validation(self):
        with pytest.raises(UsageError):
            gen_sem_model(p=1, expected_degree=1.0)
        for degree in (-0.5, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="expected degree must be"):
                gen_sem_model(p=5, expected_degree=degree)
        with pytest.raises(DataError):
            SemModel(b=np.array([[0.5]]), d=np.array([1.0]), names=["A"], response_index=0)
        with pytest.raises(DataError):
            SemModel(
                b=np.zeros((2, 2)), d=np.array([1.0, -1.0]), names=["A", "B"], response_index=0
            )
        with pytest.raises(DataError):
            SemModel(
                b=np.array([[0.0, 2.0], [2.0, 0.0]]),
                d=np.ones(2),
                names=["A", "B"],
                response_index=0,
            )


class TestStationaryCovariance:
    def test_no_edges_gives_diagonal(self):
        model = SemModel(
            b=np.zeros((3, 3)), d=np.array([1.0, 2.0, 0.5]), names=["A", "B", "C"],
            response_index=0,
        )
        assert np.allclose(sem_stationary_covariance(model), np.diag([1.0, 2.0, 0.5]))

    def test_two_node_chain(self):
        # A -> B with weight w and unit noise variances:
        # var(A) = 1, cov = w, var(B) = 1 + w^2
        w = 0.6
        b = np.array([[0.0, 0.0], [w, 0.0]])
        model = SemModel(b=b, d=np.ones(2), names=["A", "B"], response_index=1)
        cov = sem_stationary_covariance(model)
        assert np.allclose(cov, [[1.0, w], [w, 1.0 + w * w]], atol=1e-12)
        # numeric-inverse oracle
        inv = np.linalg.inv(np.eye(2) - b)
        assert np.allclose(cov, inv @ inv.T, atol=1e-12)

    def test_two_node_cycle(self):
        b = np.array([[0.0, 0.5], [0.5, 0.0]])
        model = SemModel(b=b, d=np.ones(2), names=["A", "B"], response_index=0)
        cov = sem_stationary_covariance(model)
        inv = (1.0 / (1.0 - 0.25)) * np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(np.linalg.inv(np.eye(2) - b), inv, atol=1e-12)
        assert np.allclose(cov, inv @ inv.T, atol=1e-12)


class TestSampleSem:
    def test_no_edges_standard_normal(self):
        model = SemModel(
            b=np.zeros((3, 3)), d=np.ones(3), names=["A", "B", "C"], response_index=0
        )
        data = sample_sem(model, 50_000, seed=2)
        assert np.max(np.abs(data.values.mean(axis=0))) < 0.02
        assert np.max(np.abs(data.values.std(axis=0) - 1.0)) < 0.02

    def test_empirical_covariance_matches_analytic(self):
        # seed 25 draws a cyclic graph whose stationary covariance entries
        # stay below 2, keeping the 0.05 max-abs tolerance several sampling
        # standard deviations wide at this n
        model = gen_sem_model(p=10, expected_degree=2.0, seed=25)
        assert not nx.is_directed_acyclic_graph(digraph(model.names, model.parents))
        data = sample_sem(model, 50_000, seed=8)
        centered = data.values - data.values.mean(axis=0)
        empirical = centered.T @ centered / data.n
        assert np.max(np.abs(empirical - sem_stationary_covariance(model))) < 0.05

    def test_deterministic(self):
        model = gen_sem_model(p=6, expected_degree=1.5, seed=3)
        a = sample_sem(model, 100, seed=11)
        b = sample_sem(model, 100, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_columns_roughly_symmetric(self):
        for seed in range(5):
            model = gen_sem_model(p=8, expected_degree=2.0, seed=seed)
            x = sample_sem(model, 50_000, seed=seed + 100).values
            centered = x - x.mean(axis=0)
            skew = (centered**3).mean(axis=0) / x.std(axis=0) ** 3
            assert np.max(np.abs(skew)) < 0.1

    def test_acyclic_matches_sequential_simulation(self):
        model = gen_sem_model(p=8, expected_degree=2.0, allow_cycles=False, seed=13)
        joint = sample_sem(model, 50_000, seed=14)

        # sequential oracle: draw each variable after its parents
        rng = np.random.default_rng(15)
        order = list(nx.topological_sort(digraph(model.names, model.parents)))
        idx = {name: k for k, name in enumerate(model.names)}
        x = np.zeros((50_000, model.p))
        for name in order:
            v = idx[name]
            eps = rng.standard_normal(50_000) * np.sqrt(model.d[v])
            x[:, v] = x @ model.b[v] + eps

        for sample in (joint.values, x):
            centered = sample - sample.mean(axis=0)
            empirical = centered.T @ centered / 50_000
            assert np.max(np.abs(empirical - sem_stationary_covariance(model))) < 0.05


def minimal_d_separating_set(graph, target):
    # oracle: smallest variable set S with target d-separated from every
    # variable outside S; by construction of a DAG's local Markov structure
    # this is the Markov boundary
    others = [v for v in graph.nodes if v != target]
    for size in range(len(others) + 1):
        for subset in combinations(others, size):
            rest = set(others) - set(subset)
            if all(
                nx.is_d_separator(graph, {target}, {v}, set(subset)) for v in rest
            ):
                return set(subset)
    return set(others)


class TestMarkovBoundary:
    def test_isolated_target(self):
        # B -> C
        truth = markov_boundary_of(["A", "B", "C"], [[], [], [1]], "A", source="bn")
        assert truth.mb == frozenset()

    def test_collider(self):
        # A -> C <- B
        truth = markov_boundary_of(["A", "B", "C"], [[], [], [0, 1]], "A", source="bn")
        assert truth.mb == frozenset({"B", "C"})

    def test_chain_with_spouse(self):
        # X1 -> Y -> X3 <- X2
        names = ["X1", "X2", "X3", "Y"]
        truth = markov_boundary_of(names, [[], [], [1, 3], [0]], "Y", source="sem")
        assert truth.mb == frozenset({"X1", "X2", "X3"})

    def test_missing_target(self):
        with pytest.raises(UsageError):
            markov_boundary_of(["A", "B"], [[], [0]], "Z", source="bn")

    def test_matches_d_separation_oracle(self):
        rng = np.random.default_rng(17)
        names = [f"V{i}" for i in range(12)]
        parents = [[] for _ in names]
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.22:
                    parents[j].append(i)
        target = "V5"
        truth = markov_boundary_of(names, parents, target, source="bn")
        assert truth.mb == frozenset(minimal_d_separating_set(digraph(names, parents), target))

    def test_sem_parents_match_networkx_neighbourhoods(self):
        # oracle graph built from the nonzeros of b, independently of
        # SemModel.parents; cyclic and acyclic models, every target
        for seed in range(30):
            model = gen_sem_model(p=15, expected_degree=2.0, allow_cycles=seed % 2 == 0,
                                  seed=seed)
            g = nx.DiGraph()
            g.add_nodes_from(model.names)
            rows, cols = np.nonzero(model.b)
            g.add_edges_from((model.names[j], model.names[i]) for i, j in zip(rows, cols))
            for target in model.names:
                children = set(g.successors(target))
                expected = set(g.predecessors(target)) | children
                for child in children:
                    expected |= set(g.predecessors(child))
                expected.discard(target)
                truth = markov_boundary_of(model.names, model.parents, target, source="sem")
                assert truth.mb == frozenset(expected)
