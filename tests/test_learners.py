"""Learner fitting, prediction clipping, and error bounds."""

import math

import numpy as np
import pytest

from courtlearn.core import BallCases, Dataset, augment, sample_cases
from courtlearn.learners import (
    LearnerFamily,
    LearnerKind,
    LinearRule,
    MeanRule,
    err_bound,
    fit,
    predict_batch,
)

MEAN = LearnerKind(LearnerFamily.EMPIRICAL_MEAN)
OLS = LearnerKind(LearnerFamily.OLS)
NCL = LearnerKind(LearnerFamily.NORM_CONSTRAINED, radius=1.0)


def _singleton_data(*ys):
    data = Dataset()
    for y in ys:
        data.append_row(None, y)
    return data


def _line_data(xs, slope, intercept):
    data = Dataset(dim=1)
    for x in xs:
        data.append_row(augment(np.array([x])), slope * x + intercept)
    return data


class TestFit:
    def test_empirical_mean(self):
        rule = fit(MEAN, _singleton_data(1.0, 3.0))
        assert rule == MeanRule(2.0, 2)

    def test_empty_dataset_gives_zero_rule(self):
        assert fit(MEAN, Dataset()) == MeanRule(0.0, 0)
        rule = fit(OLS, Dataset(dim=2))
        np.testing.assert_array_equal(rule.coef, np.zeros(3))

    def test_ols_noiseless_interpolation(self):
        data = _line_data([-0.4, 0.0, 0.3], slope=2.0, intercept=1.0)
        rule = fit(OLS, data)
        np.testing.assert_allclose(rule.coef, [2.0, 1.0], atol=1e-9)
        assert rule.fitted_on == 3

    def test_ols_rank_deficient_uses_minimum_norm(self):
        # one observation in 2-d: infinitely many interpolants, pick the shortest
        data = Dataset(dim=2)
        x = augment(np.array([0.6, 0.0]))
        data.append_row(x, 1.2)
        rule = fit(OLS, data)
        lstsq_coef = np.linalg.lstsq(x[None, :], np.array([1.2]), rcond=None)[0]
        np.testing.assert_allclose(rule.coef, lstsq_coef, atol=1e-10)
        assert abs(float(rule.coef @ x) - 1.2) < 1e-10

    def test_norm_constraint_inactive_inside_ball(self):
        data = _line_data([-0.4, 0.0, 0.3], slope=0.5, intercept=0.2)
        np.testing.assert_allclose(fit(NCL, data).coef, fit(OLS, data).coef, atol=1e-12)

    def test_norm_constraint_active_on_steep_line(self):
        # true coefficients (3, 0.5) have norm > 1, so the constraint binds
        data = _line_data([-0.8, -0.3, 0.2, 0.6, 0.9], slope=3.0, intercept=0.5)
        rule = fit(NCL, data)
        norm = float(np.linalg.norm(rule.coef))
        assert abs(norm - 1.0) <= 1e-8

        # oracle: no random unit-norm candidate does better on the data
        x = np.array([[xv, 1.0] for xv in [-0.8, -0.3, 0.2, 0.6, 0.9]])
        y = 3.0 * x[:, 0] + 0.5

        def residual(coef):
            return float(np.sum((x @ coef - y) ** 2))

        fitted_residual = residual(rule.coef)
        rng = np.random.default_rng(11)
        for _ in range(100):
            candidate = rng.standard_normal(2)
            candidate /= np.linalg.norm(candidate)
            assert fitted_residual <= residual(candidate) + 1e-9

    def test_fit_is_pure(self):
        build = lambda: _line_data([-0.5, 0.1, 0.7], slope=1.5, intercept=0.3)
        a, b = fit(NCL, build()), fit(NCL, build())
        np.testing.assert_array_equal(a.coef, b.coef)


class TestPredict:
    def test_in_range_identity(self):
        np.testing.assert_array_equal(predict_batch(MeanRule(2.0, 4), None, 3, alpha=5.0), [2.0] * 3)

    def test_lower_clip(self):
        np.testing.assert_array_equal(predict_batch(MeanRule(-0.3, 4), None, 2, alpha=5.0), [0.0] * 2)

    def test_upper_clip_linear(self):
        rule = LinearRule(np.array([2.0, 1.0]), 3)
        xs = np.array([[1.0], [-0.8], [0.25]])
        np.testing.assert_array_equal(predict_batch(rule, xs, 3, alpha=2.0), [2.0, 0.0, 1.5])

    def test_batch_matches_scalar(self):
        # the offline baseline's batch against the online driver's one dot per row
        rule = LinearRule(np.array([0.8, -0.2, 0.4]), 5)
        rng = np.random.default_rng(3)
        xs = sample_cases(BallCases(2), 50, rng, rng)
        batch = predict_batch(rule, xs, 50, alpha=1.0)
        w, b = rule.coef[:-1], rule.coef[-1]
        scalar = [min(max(float(w @ x + b), 0.0), 1.0) for x in xs]
        np.testing.assert_allclose(batch, scalar, atol=1e-15)


class TestErrBound:
    def test_empty_dataset_convention(self):
        assert err_bound(MEAN, 0, sigma=1.0, alpha=3.0) == 3.0

    def test_direct_formula(self):
        assert err_bound(MEAN, 4, sigma=1.0, alpha=10.0) == 0.5

    def test_linear_dimension_factor(self):
        value = err_bound(OLS, 9, sigma=1.0, alpha=10.0, dim=3)
        assert value == pytest.approx(math.sqrt(4) / 3.0)

    def test_alpha_caps_the_bound(self):
        assert err_bound(MEAN, 1, sigma=5.0, alpha=2.0) == 2.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            err_bound(MEAN, -1, sigma=1.0, alpha=1.0)

    @pytest.mark.parametrize(
        "kind, dim, sigma, alpha",
        [
            (MEAN, None, 0.7, 2.0),
            (MEAN, None, 0.0, 1.0),
            (LearnerKind(LearnerFamily.EMPIRICAL_MEAN, err_constant=0.3), None, 5.0, 1.0),
            (OLS, 3, 0.05, 1.0),
            (LearnerKind(LearnerFamily.NORM_CONSTRAINED, err_constant=5.0), 9, 0.1, 3),
        ],
    )
    def test_array_of_counts_matches_scalar_calls(self, kind, dim, sigma, alpha):
        counts = np.arange(0, 2000)
        values = err_bound(kind, counts, sigma, alpha, dim)
        scale = 1.0 if dim is None else math.sqrt(dim + 1)
        assert values[0] == alpha
        for m, value in zip(counts.tolist(), values.tolist()):
            # The scalar call, and the bound in Python float arithmetic.
            expected = alpha if m == 0 else min(alpha, kind.err_constant * sigma * scale / math.sqrt(m))
            assert value.hex() == float(err_bound(kind, m, sigma, alpha, dim)).hex() == float(expected).hex()

    def test_negative_size_in_an_array_rejected(self):
        with pytest.raises(ValueError, match="got -3"):
            err_bound(MEAN, np.array([0, 4, -3, -1]), sigma=1.0, alpha=1.0)

    def test_non_increasing_in_m(self):
        values = [err_bound(MEAN, m, sigma=0.7, alpha=2.0) for m in range(0, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monte_carlo_rmse_within_bound(self):
        # Monte Carlo RMSE oracle: the empirical mean's true error is exactly
        # sigma/sqrt(m), i.e. it sits at the bound, so the one-sided check
        # below runs against a frozen seed; the two-sided 5% check is robust.
        rng = np.random.default_rng(0)
        sigma = 1.0
        for m in (16, 64):
            draws = rng.normal(0.0, sigma, size=(10_000, m))
            rmse = math.sqrt(float(np.mean(draws.mean(axis=1) ** 2)))
            assert rmse <= err_bound(MEAN, m, sigma=sigma, alpha=10.0)
            assert rmse == pytest.approx(sigma / math.sqrt(m), rel=0.05)
