"""Domain-type construction, invariants, and environment sampling."""

import importlib

import numpy as np
import pytest

from courtlearn.core import (
    BallCases,
    CaseFeatures,
    CaseKind,
    ConfigurationError,
    ConstantTruth,
    Dataset,
    FixedCosts,
    LinearTruth,
    Observation,
    PointMassCosts,
    SINGLETON_CASE,
    SingletonCases,
    UniformCosts,
    canonical_digest,
    court_outcome,
    sample_case,
    sample_cases,
)


class TestCaseFeatures:
    def test_singleton(self):
        assert SINGLETON_CASE.kind is CaseKind.SINGLETON
        assert SINGLETON_CASE.dim == 0

    def test_vector(self):
        case = CaseFeatures(np.array([0.6, 0.8]))
        assert case.kind is CaseKind.VECTOR
        assert case.dim == 2
        np.testing.assert_allclose(case.augmented(), [0.6, 0.8, 1.0])

    def test_outside_unit_ball_rejected(self):
        with pytest.raises(ConfigurationError):
            CaseFeatures(np.array([1.0, 0.5]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            CaseFeatures(np.array([[0.1, 0.2]]))
        with pytest.raises(ConfigurationError):
            CaseFeatures(np.array([], dtype=float))

    def test_singleton_has_no_feature_vector(self):
        with pytest.raises(ConfigurationError):
            SINGLETON_CASE.augmented()


class TestGroundTruth:
    def test_constant_bounds(self):
        ConstantTruth(mu=1.0, sigma=0.5, alpha=2.0)
        with pytest.raises(ConfigurationError):
            ConstantTruth(mu=3.0, sigma=0.5, alpha=2.0)
        with pytest.raises(ConfigurationError):
            ConstantTruth(mu=-0.1, sigma=0.5, alpha=2.0)
        with pytest.raises(ConfigurationError):
            ConstantTruth(mu=1.0, sigma=3.0, alpha=2.0)  # noise above the cap

    def test_linear_constraints(self):
        truth = LinearTruth(beta=np.array([0.3, 0.4]), beta0=0.5, sigma=0.1, alpha=1.0)
        assert truth.dim == 2
        # |beta| = 0.5 = beta0 and beta0 + |beta| = 1.0 = alpha: boundary is legal
        for x in ([0.6, 0.8], [-0.6, -0.8], [0.0, 0.0]):
            value = truth.value(CaseFeatures(np.array(x)))
            assert 0.0 <= value <= truth.alpha

    def test_linear_rejects_escaping_rules(self):
        with pytest.raises(ConfigurationError):
            LinearTruth(beta=np.array([0.6]), beta0=0.5, sigma=0.1, alpha=2.0)
        with pytest.raises(ConfigurationError):
            LinearTruth(beta=np.array([0.5]), beta0=0.7, sigma=0.1, alpha=1.0)

    def test_linear_dimension_mismatch(self):
        truth = LinearTruth(beta=np.array([0.2, 0.2]), beta0=0.5, sigma=0.0, alpha=1.0)
        with pytest.raises(ConfigurationError):
            truth.value(CaseFeatures(np.array([0.5])))
        with pytest.raises(ConfigurationError):
            truth.value(SINGLETON_CASE)


class TestSampleCase:
    def test_singleton_spec(self):
        rng = np.random.default_rng(0)
        assert sample_case(SingletonCases(), rng) is SINGLETON_CASE

    def test_vector_draws_stay_in_ball(self):
        rng = np.random.default_rng(1)
        spec = BallCases(3)
        for _ in range(500):
            case = sample_case(spec, rng)
            assert np.linalg.norm(case.coords) <= 1.0 + 1e-12

    def test_one_dimensional_ball_is_symmetric(self):
        # Monte Carlo check against the symmetry of the ball distribution.
        rng = np.random.default_rng(2)
        draws = np.array([sample_case(BallCases(1), rng).coords[0] for _ in range(10**5)])
        assert abs(draws.mean()) < 0.02

    def test_batch_matches_invariants_and_prefix(self):
        spec = BallCases(4)
        seeds = lambda: (np.random.default_rng(7), np.random.default_rng(8))
        short = sample_cases(spec, 100, *seeds())
        long = sample_cases(spec, 250, *seeds())
        np.testing.assert_array_equal(short, long[:100])
        assert np.all(np.linalg.norm(long, axis=1) <= 1.0 + 1e-12)

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            BallCases(0)


class TestCourtOutcome:
    def test_noise_free_constant(self):
        rng = np.random.default_rng(0)
        obs = court_outcome(ConstantTruth(mu=1.0, sigma=0.0, alpha=2.0), SINGLETON_CASE, rng)
        assert obs.outcome == 1.0

    def test_noise_free_offset_only_linear(self):
        rng = np.random.default_rng(0)
        truth = LinearTruth(beta=np.zeros(2), beta0=0.5, sigma=0.0, alpha=1.0)
        obs = court_outcome(truth, CaseFeatures(np.array([0.3, -0.2])), rng)
        assert obs.outcome == 0.5

    def test_gaussian_moments(self):
        # Monte Carlo check against the first two moments of the noise.
        rng = np.random.default_rng(3)
        truth = ConstantTruth(mu=2.0, sigma=1.0, alpha=4.0)
        draws = np.array([court_outcome(truth, SINGLETON_CASE, rng).outcome for _ in range(10**5)])
        assert abs(draws.mean() - 2.0) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        truth = LinearTruth(beta=np.array([0.1]), beta0=0.5, sigma=0.0, alpha=1.0)
        with pytest.raises(ConfigurationError):
            court_outcome(truth, CaseFeatures(np.array([0.1, 0.2])), rng)


class TestDataset:
    def test_append_only_growth(self):
        data = Dataset()
        assert len(data) == 0
        for i, y in enumerate([1.0, 3.0]):
            data.append(Observation(SINGLETON_CASE, y))
            assert len(data) == i + 1
        assert data.sum_outcomes == 4.0

    def test_vector_statistics_match_direct_computation(self):
        rng = np.random.default_rng(4)
        data = Dataset(dim=3)
        rows, ys = [], []
        for _ in range(20):
            case = sample_case(BallCases(3), rng)
            y = rng.normal()
            data.append(Observation(case, y))
            rows.append(case.augmented())
            ys.append(y)
        x = np.array(rows)
        np.testing.assert_allclose(data.gram, x.T @ x, atol=1e-12)
        np.testing.assert_allclose(data.xty, x.T @ np.array(ys), atol=1e-12)

    def test_dimension_checks(self):
        data = Dataset(dim=2)
        with pytest.raises(ConfigurationError):
            data.append(Observation(SINGLETON_CASE, 1.0))
        with pytest.raises(ConfigurationError):
            data.append(Observation(CaseFeatures(np.array([0.5])), 1.0))
        singleton = Dataset()
        with pytest.raises(ConfigurationError):
            singleton.append(Observation(CaseFeatures(np.array([0.5])), 1.0))


class TestCostModels:
    def test_point_mass(self):
        costs = PointMassCosts(2.0)
        assert costs.c_min == costs.c_max == costs.c_bar == 2.0
        np.testing.assert_array_equal(costs.sample(3, np.random.default_rng(0)), [2.0, 2.0, 2.0])
        with pytest.raises(ConfigurationError):
            PointMassCosts(0.0)

    def test_uniform_range_and_mean(self):
        costs = UniformCosts(0.5, 1.5)
        assert costs.c_bar == 1.0
        draws = costs.sample(10_000, np.random.default_rng(5))
        assert draws.min() >= 0.5 and draws.max() <= 1.5
        with pytest.raises(ConfigurationError):
            UniformCosts(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            UniformCosts(2.0, 1.0)

    def test_fixed_sequence_cycles(self):
        costs = FixedCosts((1.0, 2.0, 3.0))
        assert costs.c_min == 1.0 and costs.c_max == 3.0 and costs.c_bar == 2.0
        np.testing.assert_array_equal(
            costs.sample(5, np.random.default_rng(0)), [1.0, 2.0, 3.0, 1.0, 2.0]
        )
        with pytest.raises(ConfigurationError):
            FixedCosts(())
        with pytest.raises(ConfigurationError):
            FixedCosts((1.0, -0.5))


def test_canonical_digest_is_stable_and_order_free():
    a = canonical_digest({"b": 1, "a": [1, 2]})
    b = canonical_digest({"a": [1, 2], "b": 1})
    assert a == b
    assert len(a) == 16
    assert canonical_digest({"a": [2, 1], "b": 1}) != a


@pytest.mark.parametrize(
    "module",
    ["courtlearn"]
    + [f"courtlearn.{m}" for m in ("core", "learners", "policies", "sim", "config", "experiment")],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
