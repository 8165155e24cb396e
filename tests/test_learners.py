"""Learner fitting, prediction clipping, and error bounds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from courtlearn.core import BallCases, ConfigurationError, augment, decompose, sample_cases
from courtlearn.learners import LearnerFamily, LearnerKind, _fit_linear, err_bound
from courtlearn.sim import _clip, _LinearFits, _mean_rules, _predict

MEAN = LearnerKind(LearnerFamily.EMPIRICAL_MEAN)
OLS = LearnerKind(LearnerFamily.OLS)
NCL = LearnerKind(LearnerFamily.NORM_CONSTRAINED, radius=1.0)


def _fit(kind, rows, ys):
    """``_fit_linear`` on the Gram matrix and X^T y of augmented ``rows``, summed one row at a time."""
    gram = np.zeros((rows.shape[1], rows.shape[1]))
    xty = np.zeros(rows.shape[1])
    for row, y in zip(rows, ys):
        gram += np.outer(row, row)
        xty += y * row
    return _fit_linear(kind, decompose(gram).pick(None), xty[None])[0]


def _line_fit(kind, xs, slope, intercept):
    return _fit(kind, augment(np.array(xs)[:, None]), [slope * x + intercept for x in xs])


class TestFit:
    def test_empirical_mean(self):
        assert _mean_rules(np.array([1.0, 3.0]), 5.0).tolist() == [0.0, 1.0, 2.0]

    def test_empty_dataset_gives_zero_rule(self):
        assert _mean_rules(np.array([]), 5.0).tolist() == [0.0]
        fits = _LinearFits(OLS, np.zeros((4, 2)), np.ones(4))
        np.testing.assert_array_equal(fits.coefs(), np.zeros((1, 3)))

    def test_ols_noiseless_interpolation(self):
        coef = _line_fit(OLS, [-0.4, 0.0, 0.3], slope=2.0, intercept=1.0)
        np.testing.assert_allclose(coef, [2.0, 1.0], atol=1e-9)

    def test_ols_rank_deficient_uses_minimum_norm(self):
        # one observation in 2-d: infinitely many interpolants, pick the shortest
        x = augment(np.array([0.6, 0.0]))
        coef = _fit(OLS, x[None], [1.2])
        lstsq_coef = np.linalg.lstsq(x[None, :], np.array([1.2]), rcond=None)[0]
        np.testing.assert_allclose(coef, lstsq_coef, atol=1e-10)
        assert abs(float(coef @ x) - 1.2) < 1e-10

    def test_norm_constraint_inactive_inside_ball(self):
        line = ([-0.4, 0.0, 0.3], 0.5, 0.2)
        np.testing.assert_allclose(_line_fit(NCL, *line), _line_fit(OLS, *line), atol=1e-12)

    def test_norm_constraint_active_on_steep_line(self):
        # true coefficients (3, 0.5) have norm > 1, so the constraint binds
        coef = _line_fit(NCL, [-0.8, -0.3, 0.2, 0.6, 0.9], slope=3.0, intercept=0.5)
        norm = float(np.linalg.norm(coef))
        assert abs(norm - 1.0) <= 1e-8

        # oracle: no random unit-norm candidate does better on the data
        x = np.array([[xv, 1.0] for xv in [-0.8, -0.3, 0.2, 0.6, 0.9]])
        y = 3.0 * x[:, 0] + 0.5

        def residual(coef):
            return float(np.sum((x @ coef - y) ** 2))

        fitted_residual = residual(coef)
        rng = np.random.default_rng(11)
        for _ in range(100):
            candidate = rng.standard_normal(2)
            candidate /= np.linalg.norm(candidate)
            assert fitted_residual <= residual(candidate) + 1e-9

    def test_fit_is_pure(self):
        line = ([-0.5, 0.1, 0.7], 1.5, 0.3)
        np.testing.assert_array_equal(_line_fit(NCL, *line), _line_fit(NCL, *line))


def _running_means(ys, alpha):
    """The clipped mean after each outcome, kept as one running sum (0 before any)."""
    rules, sum_y = [0.0], 0.0
    for k, y in enumerate(ys, 1):
        sum_y += y
        rules.append(min(max(sum_y / k, 0.0), alpha))
    return rules


# At most 60 outcomes of magnitude <= 1e300: no partial sum overflows.
_OUTCOMES = st.floats(-1e300, 1e300) | st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


@settings(max_examples=300, deadline=None)
@given(
    first_negative_zero=st.booleans(),
    ys=st.lists(_OUTCOMES, max_size=59),
    alpha=st.floats(0.01, 2.0) | st.floats(1e-300, 1e300),
)
@example(first_negative_zero=False, ys=[], alpha=1.0)
@example(first_negative_zero=True, ys=[], alpha=1.0)
# a subnormal negative mean rounds to -0.0, which both clips keep
@example(first_negative_zero=False, ys=[0.0, 0.0, -5e-324], alpha=1.0)
def test_mean_rules_match_the_running_mean(first_negative_zero, ys, alpha):
    ys = ([-0.0] if first_negative_zero else []) + ys
    rules = _mean_rules(np.array(ys, dtype=float), alpha)
    assert rules.dtype == np.float64
    assert [r.hex() for r in rules.tolist()] == [r.hex() for r in _running_means(ys, alpha)]


class TestPredict:
    def test_in_range_identity(self):
        np.testing.assert_array_equal(_clip(np.full(3, 2.0), alpha=5.0), [2.0] * 3)

    def test_lower_clip(self):
        np.testing.assert_array_equal(_clip(np.full(2, -0.3), alpha=5.0), [0.0] * 2)

    def test_upper_clip_linear(self):
        xs = np.array([[1.0], [-0.8], [0.25]])
        raw = _predict(xs, np.array([[2.0, 1.0]]), np.zeros(3, dtype=int))
        np.testing.assert_array_equal(_clip(raw, alpha=2.0), [2.0, 0.0, 1.5])

    def test_batch_matches_scalar(self):
        # the driver's stacked prediction against one dot per row
        coef = np.array([0.8, -0.2, 0.4])
        rng = np.random.default_rng(3)
        xs = sample_cases(BallCases(2), 50, rng, rng)
        batch = _clip(_predict(xs, coef[None], np.zeros(50, dtype=int)), alpha=1.0)
        w, b = coef[:-1], coef[-1]
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

    def test_linear_bound_needs_the_dimension(self):
        with pytest.raises(ConfigurationError, match="^ols error bound needs the case dimension$"):
            err_bound(OLS, 4, sigma=1.0, alpha=1.0)

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
