"""Domain-type construction, invariants, and environment sampling."""

import importlib
import re

import numpy as np
import pytest

from courtlearn.core import (
    BallCases,
    ConfigurationError,
    ConstantTruth,
    FixedCosts,
    LinearTruth,
    PointMassCosts,
    SingletonCases,
    UniformCosts,
    augment,
    canonical_digest,
    sample_cases,
)
from courtlearn.learners import LearnerFamily, LearnerKind
from courtlearn.policies import NoSubsidyConfig
from courtlearn.sim import RunConfig, draw_environment


def _environment(truth, cases, horizon, seed=0):
    """One environment draw; its ``outcomes`` are what a court would reveal at each step."""
    family = LearnerFamily.EMPIRICAL_MEAN if cases.dim is None else LearnerFamily.OLS
    policy = NoSubsidyConfig()
    config = RunConfig(horizon, truth, cases, PointMassCosts(1.0), LearnerKind(family), policy, seed)
    return draw_environment(config)


class TestCaseFeatures:
    def test_singleton(self):
        # the singleton space has no feature rows at all
        assert SingletonCases().dim is None
        rng = np.random.default_rng(0)
        assert sample_cases(SingletonCases(), 5, rng, rng) is None

    def test_vector(self):
        assert BallCases(2).dim == 2
        np.testing.assert_allclose(augment(np.array([0.6, 0.8])), [0.6, 0.8, 1.0])


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
        xs = np.array([[0.6, 0.8], [-0.6, -0.8], [0.0, 0.0]])
        values = xs @ truth.beta + truth.beta0  # as draw_environment computes f
        assert np.all((0.0 <= values) & (values <= truth.alpha))

    def test_linear_rejects_escaping_rules(self):
        with pytest.raises(ConfigurationError):
            LinearTruth(beta=np.array([0.6]), beta0=0.5, sigma=0.1, alpha=2.0)
        with pytest.raises(ConfigurationError):
            LinearTruth(beta=np.array([0.5]), beta0=0.7, sigma=0.1, alpha=1.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ConstantTruth(mu=0.0, sigma=0.0, alpha=0.0), "decision cap must be positive, got 0.0"),
            (
                lambda: LinearTruth(beta=np.array([0.0]), beta0=0.0, sigma=0.0, alpha=-1.0),
                "decision cap must be positive, got -1.0",
            ),
            (
                lambda: LinearTruth(beta=np.array(0.1), beta0=0.5, sigma=0.1, alpha=1.0),
                "beta must be a vector of dimension >= 1",
            ),
            (
                lambda: LinearTruth(beta=np.zeros((1, 1)), beta0=0.5, sigma=0.1, alpha=1.0),
                "beta must be a vector of dimension >= 1",
            ),
            (
                lambda: LinearTruth(beta=np.array([0.1]), beta0=0.5, sigma=1.5, alpha=1.0),
                "noise level 1.5 outside [0, 1.0]",
            ),
        ],
        ids=["constant_alpha_zero", "linear_alpha_negative", "beta_scalar", "beta_matrix", "linear_sigma"],
    )
    def test_rule_refusal_messages(self, build, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            build()

    def test_linear_dimension_mismatch(self):
        truth = LinearTruth(beta=np.array([0.2, 0.2]), beta0=0.5, sigma=0.0, alpha=1.0)
        with pytest.raises(ConfigurationError, match="needs matching vector cases"):
            _environment(truth, BallCases(1), 10)
        with pytest.raises(ConfigurationError, match="needs matching vector cases"):
            _environment(truth, SingletonCases(), 10)


class TestSampleCase:
    def test_singleton_spec(self):
        rng = np.random.default_rng(0)
        assert sample_cases(SingletonCases(), 1, rng, rng) is None

    def test_vector_draws_stay_in_ball(self):
        # sample_cases scales each row to radius <= 1 itself, so no run checks
        # its rows afterwards; the slack is a few ulps of the unit norm.
        rng = np.random.default_rng(1)
        for dim in (1, 2, 5, 9):
            xs = sample_cases(BallCases(dim), 10**5, rng, rng)
            assert xs.shape == (10**5, dim)
            assert np.all(np.linalg.norm(xs, axis=1) <= 1.0 + 1e-12), dim

    def test_one_dimensional_ball_is_symmetric(self):
        # Monte Carlo check against the symmetry of the ball distribution.
        draws = sample_cases(BallCases(1), 10**5, np.random.default_rng(2), np.random.default_rng(3))
        assert abs(draws[:, 0].mean()) < 0.02

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
    """The outcome a court would reveal at each step: y = f(x) + noise, never truncated."""

    def test_noise_free_constant(self):
        env = _environment(ConstantTruth(mu=1.0, sigma=0.0, alpha=2.0), SingletonCases(), 50)
        assert np.all(env.outcomes == 1.0)

    def test_noise_free_offset_only_linear(self):
        truth = LinearTruth(beta=np.zeros(2), beta0=0.5, sigma=0.0, alpha=1.0)
        env = _environment(truth, BallCases(2), 50)
        assert np.all(env.outcomes == 0.5)

    def test_gaussian_moments(self):
        # Monte Carlo check against the first two moments of the noise.
        truth = ConstantTruth(mu=2.0, sigma=1.0, alpha=4.0)
        draws = _environment(truth, SingletonCases(), 10**5, seed=3).outcomes
        assert abs(draws.mean() - 2.0) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_dimension_mismatch(self):
        truth = LinearTruth(beta=np.array([0.1]), beta0=0.5, sigma=0.0, alpha=1.0)
        with pytest.raises(ConfigurationError, match="needs matching vector cases"):
            _environment(truth, BallCases(2), 10)


class TestCostModels:
    def test_point_mass(self):
        costs = PointMassCosts(2.0)
        assert costs.c_min == costs.c_max == 2.0
        np.testing.assert_array_equal(costs.sample(3, np.random.default_rng(0)), [2.0, 2.0, 2.0])
        with pytest.raises(ConfigurationError):
            PointMassCosts(0.0)

    def test_uniform_range_and_mean(self):
        costs = UniformCosts(0.5, 1.5)
        draws = costs.sample(10_000, np.random.default_rng(5))
        assert draws.min() >= 0.5 and draws.max() <= 1.5
        assert abs(draws.mean() - 1.0) < 0.02
        with pytest.raises(ConfigurationError):
            UniformCosts(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            UniformCosts(2.0, 1.0)

    def test_fixed_sequence_cycles(self):
        costs = FixedCosts((1.0, 2.0, 3.0))
        assert costs.c_min == 1.0 and costs.c_max == 3.0
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
