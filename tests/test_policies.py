"""Selection policy operations: agent response, compel schedules, subsidy
sampling, and the eigenvalue-gated prediction rule."""

import math
import typing

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from courtlearn.core import (
    BallCases,
    ConfigurationError,
    ConstantTruth,
    PointMassCosts,
    SingletonCases,
    UniformCosts,
)
from courtlearn.learners import LearnerFamily, LearnerKind
from courtlearn.policies import (
    DynamicCompellingConfig,
    EtcConfig,
    KwikConfig,
    NoSubsidyConfig,
    PolicyConfig,
    SubsidySamplingConfig,
    agent_decision,
    dynamic_compel_probability,
    etc_compel_count,
    subsidy_bases,
    subsidy_tail_probability,
    transition_step,
)
from courtlearn.sim import RunConfig, _offers
from oracle import kwik_gate


def _offer(t, two_err, alpha, c_min, c_max, phase1, u):
    """The subsidy law's offer at step t for the uniform draw u."""
    bases = subsidy_bases(np.array([u]), np.array([t]), alpha, c_min, c_max, t if phase1 else 0)
    return _offers(bases, two_err).item(0)


class TestAgentDecision:
    def test_boundary_litigates(self):
        assert agent_decision(cost=1.0, subsidy=0.0, err_before=0.5) is True

    def test_settles_when_court_too_expensive(self):
        assert agent_decision(cost=1.0, subsidy=0.0, err_before=0.25) is False

    def test_subsidy_flips_the_decision(self):
        assert agent_decision(cost=1.0, subsidy=0.6, err_before=0.25) is True


class TestEtcCompelCount:
    def test_direct_formula(self):
        assert etc_compel_count(10_000, alpha=1.0, c_max=1.0) == 100

    def test_scaled_inputs(self):
        assert etc_compel_count(100, alpha=2.0, c_max=4.0) == 10

    def test_capped_at_horizon(self):
        assert etc_compel_count(4, alpha=10.0, c_max=1.0) == 4

    def test_tiny_positive_value_compels_one_case(self):
        # ceil(1e-12 * sqrt(10)) = 1; the product may also underflow to 0.0
        assert etc_compel_count(10, alpha=1e-12, c_max=1.0) == 1
        assert etc_compel_count(10, alpha=1e-300, c_max=1e300) == 1

    def test_subnormal_c_max_compels_every_case(self):
        # T / c_max overflows to inf, which ceil refuses
        assert etc_compel_count(10, 1.0, 1e-320) == 10


class TestDynamicCompelProbability:
    def test_direct(self):
        assert dynamic_compel_probability(1, alpha=1.0, c_max=4.0) == 0.5

    def test_clamped(self):
        assert dynamic_compel_probability(1, alpha=3.0, c_max=1.0) == 1.0

    def test_late_step(self):
        assert dynamic_compel_probability(10_000, alpha=1.0, c_max=1.0) == pytest.approx(0.01)

    def test_non_increasing(self):
        probs = [dynamic_compel_probability(t, 1.3, 0.8) for t in range(1, 500)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestSubsidyTailProbability:
    def test_direct(self):
        assert subsidy_tail_probability(4, c=1.0, alpha=1.0) == 0.5

    def test_phase1_scaling(self):
        assert subsidy_tail_probability(1, c=4.0, alpha=2.0, phase1=True) == 0.5

    def test_late_step(self):
        assert subsidy_tail_probability(100, c=1.0, alpha=1.0) == pytest.approx(0.1)

    def test_ill_defined_raises(self):
        with pytest.raises(ConfigurationError):
            subsidy_tail_probability(1, c=0.25, alpha=1.0)

    def test_non_increasing_in_t(self):
        values = [subsidy_tail_probability(t, c=0.5, alpha=1.0) for t in range(2, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSampleSubsidy:
    def test_residual_mass_at_zero(self):
        # u above the tail probability at c_min lands on the zero atom
        assert _offer(9, 0.0, 1.0, 0.25, 1.0, False, 0.9) == 0.0

    def test_point_mass_branch(self):
        # P(point mass) = 1/sqrt(4 * 1) = 0.5, so u = 0.3 hits c_max - e
        s = _offer(4, 0.1, 1.0, 0.25, 1.0, True, 0.3)
        assert s == pytest.approx(0.9)

    def test_density_branch_inverts_the_tail(self):
        # u between the endpoint tails solves u = alpha / sqrt(t c)
        t, alpha, e = 9, 1.0, 0.05
        u = 0.4
        s = _offer(t, e, alpha, 0.25, 1.0, False, u)
        c = (alpha / (u * math.sqrt(t))) ** 2
        assert s == pytest.approx(c - e)

    def test_negative_support_floored_at_zero(self):
        # huge threshold gap: every support point c - e is negative
        s = _offer(4, 5.0, 1.0, 0.25, 1.0, True, 0.3)
        assert s == 0.0

    def test_monte_carlo_tail_identity(self):
        # empirical tails against the closed form alpha / sqrt(t c); here
        # t=4, alpha=1 gives Pr[s >= c] = 1 / (2 sqrt(c))
        rng = np.random.default_rng(12)
        t, alpha, c_min, c_max = 4, 1.0, 0.25, 1.0
        # transition step t: every draw is in phase 1
        bases = subsidy_bases(rng.random(10**6), np.full(10**6, t), alpha, c_min, c_max, t)
        draws = _offers(bases, 0.0)
        for c in (0.25, 0.5, 1.0):
            empirical = float(np.mean(draws >= c))
            assert empirical == pytest.approx(1.0 / (2.0 * math.sqrt(c)), abs=0.01)

    def test_total_mass_by_quadrature(self):
        # point mass + integrated density + zero atom must account for 1
        for t, alpha, c_min, c_max, e, phase1 in [
            (9, 1.0, 0.25, 1.0, 0.1, False),
            (2, 2.0, 1.0, 4.0, 0.3, True),
        ]:
            scale = 1.0 / alpha if phase1 else 1.0
            p_max = subsidy_tail_probability(t, c_max, alpha, phase1)
            p_min = subsidy_tail_probability(t, c_min, alpha, phase1)
            density = lambda x: scale * alpha / (2.0 * math.sqrt(t) * (x + e) ** 1.5)
            integral, _ = quad(density, c_min - e, c_max - e, epsabs=1e-12, epsrel=1e-12)
            mass = p_max + integral + (1.0 - p_min)
            assert abs(mass - 1.0) < 1e-9


class TestKwikGate:
    def test_empty_history_compels(self):
        empty = np.zeros((0, 3))
        query = np.array([1.0, 0.0, 0.0])
        assert kwik_gate(empty, query, alpha1=0.1, alpha2=0.05) is True

    def test_dense_history_predicts(self):
        # 400 copies of each basis direction: all eigenvalues are 400, the
        # covered mass of a unit query is exactly 1/20 per active direction
        k = 3
        history = np.repeat(np.eye(k), 400, axis=0)
        query = np.array([1.0, 0.0, 0.0])
        gram = history.T @ history
        eigvals = np.linalg.eigvalsh(gram)
        assert np.all(eigvals >= 1.0)
        covered_norm = math.sqrt(float(query @ np.linalg.inv(gram) @ query))
        assert covered_norm == pytest.approx(1.0 / 20.0)
        assert kwik_gate(history, query, alpha1=0.1, alpha2=0.05) is False

    def test_orthogonal_novelty_compels(self):
        history = np.tile(np.array([1.0, 0.0, 0.0]), (5, 1))
        query = np.array([0.0, 1.0, 0.0])
        assert kwik_gate(history, query, alpha1=0.1, alpha2=0.05) is True

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        history = rng.standard_normal((30, 4)) * 0.4
        query = rng.standard_normal(4) * 0.3
        first = kwik_gate(history, query, 0.2, 0.1)
        assert all(kwik_gate(history, query, 0.2, 0.1) is first for _ in range(5))


class TestSelect:
    """Each policy's whole-horizon actions (compel mask, subsidy bases, active)."""

    @pytest.mark.parametrize("horizon", [1, 7, 500])
    @pytest.mark.parametrize("cls", typing.get_args(PolicyConfig), ids=lambda cls: cls.name)
    def test_horizon_actions_contract(self, cls, horizon):
        # Every policy states a bool mask and None or float bases over the
        # whole horizon, and neither compels nor offers from index active on.
        policy = cls(epsilon=0.1, delta=0.1) if cls is KwikConfig else cls()
        run = _run_config(policy, cases=BallCases(2), costs=UniformCosts(1.0, 4.0), horizon=horizon, alpha=2.0)
        compel, bases, active = policy.horizon_actions(run, np.random.default_rng(horizon))
        assert isinstance(compel, np.ndarray) and compel.dtype == np.bool_ and compel.shape == (horizon,)
        assert bases is None or (
            isinstance(bases, np.ndarray) and bases.dtype == np.float64 and bases.shape == (horizon,)
        )
        assert 0 <= active <= horizon
        assert not compel[active:].any()
        assert bases is None or not (bases[active:] > 0.0).any()

    def test_no_subsidy_always_idle(self):
        run = _run_config(NoSubsidyConfig(), horizon=1000)
        compel, bases, active = run.policy.horizon_actions(run, np.random.default_rng(0))
        assert compel.shape == (1000,) and not compel.any() and bases is None and active == 0

    def test_kwik_mask_starts_empty(self):
        # The visit search sets the mask where the gate fires.
        run = _run_config(KwikConfig(epsilon=0.1, delta=0.1), cases=BallCases(2), horizon=50)
        compel, bases, active = run.policy.horizon_actions(run, np.random.default_rng(0))
        assert compel.shape == (50,) and not compel.any() and bases is None and active == 50

    def test_etc_threshold(self):
        run = _run_config(EtcConfig(), horizon=100, alpha=2.0, costs=PointMassCosts(4.0))
        rng = np.random.default_rng(0)
        compel, bases, active = run.policy.horizon_actions(run, rng)
        assert compel[10 - 1] and not compel[11 - 1]
        assert compel[:10].all() and not compel[10:].any() and bases is None
        assert active == 10

    def test_dynamic_compel_frequency(self):
        # Monte Carlo check of the stated per-step probability at t = 10^4
        rng = np.random.default_rng(17)
        trials = 10**6
        compels = int((rng.random(trials) < dynamic_compel_probability(10_000, 1.0, 1.0)).sum())
        assert compels / trials == pytest.approx(0.01, abs=0.001)

    def test_compelling_policies_never_subsidize(self):
        rng = np.random.default_rng(3)
        for policy in (EtcConfig(), DynamicCompellingConfig()):
            run = _run_config(policy, horizon=50, costs=PointMassCosts(1.0))
            compel, bases, active = policy.horizon_actions(run, rng)
            assert compel.shape == (50,) and bases is None
            assert active == (8 if isinstance(policy, EtcConfig) else 50)  # etc: ceil(sqrt(50))

    def test_subsidy_policy_never_compels(self):
        rng = np.random.default_rng(4)
        run = _run_config(SubsidySamplingConfig(), horizon=199, costs=UniformCosts(4.0, 12.0))
        compel, bases, active = run.policy.horizon_actions(run, rng)
        assert compel.shape == (199,) and not compel.any() and bases.shape == (199,) and active == 199
        assert np.isfinite(bases).all() and (bases >= 0.0).all()

    @settings(max_examples=200, deadline=None)
    @given(
        # log-uniform, out to where RunConfig's worst-case-total bound refuses c_max
        alpha=(st.floats(-6.0, 6.0) | st.floats(-150.0, 80.0)).map(lambda e: 10.0**e),
        c_min=(st.floats(-6.0, 6.0) | st.floats(-300.0, 150.0)).map(lambda e: 10.0**e),
        width=(st.floats(0.0, 6.0) | st.floats(0.0, 300.0)).map(lambda e: 10.0**e),
        horizon=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    # phase 1 (alpha > sqrt(c_min)), and a run without it
    @example(alpha=4.0, c_min=1.0, width=3.0, horizon=3000, seed=0)
    @example(alpha=1.0, c_min=1.0, width=10.0, horizon=3000, seed=0)
    def test_subsidy_bases_stay_in_the_cost_range(self, alpha, c_min, width, horizon, seed):
        # RunConfig's worst-case-total bound keeps c_max finite, so every base
        # is finite: 0, the point mass at c_max, or a middle draw in [c_min, c_max].
        c_max = c_min * width
        try:
            run = RunConfig(horizon, ConstantTruth(alpha / 2, alpha / 2, alpha), SingletonCases(),
                            UniformCosts(c_min, c_max), LearnerKind(LearnerFamily.EMPIRICAL_MEAN),
                            SubsidySamplingConfig())
        except ConfigurationError:  # outside the t = 1 region, or an unbounded total
            reject()
        _, bases, _ = run.policy.horizon_actions(run, np.random.default_rng(seed))
        assert np.isfinite(bases).all()
        assert ((bases == 0.0) | (bases == c_max) | ((c_min <= bases) & (bases <= c_max))).all()


class TestPolicyConfigs:
    def test_transition_step_active(self):
        assert transition_step(alpha=2.0, c_min=1.0) == 4  # max(floor(4), floor(4/1))

    def test_transition_step_inactive(self):
        assert transition_step(alpha=1.0, c_min=4.0) == 0

    def test_ill_defined_first_step_rejected(self):
        # early-phase scaling cannot repair c_min < 1 at t = 1
        with pytest.raises(ConfigurationError, match="tail probability .* > 1 at t=1"):
            _run_config(SubsidySamplingConfig(), costs=UniformCosts(0.25, 1.0))

    def test_kwik_threshold_defaults(self):
        alpha1, alpha2 = KwikConfig(epsilon=0.25, delta=0.05).thresholds(5)
        assert alpha2 == 0.0625
        expected = 0.25**2 / (5 * math.log(6) * math.sqrt(math.log(1.0 / (0.25 * 0.05))))
        assert alpha1 == pytest.approx(expected)
        assert KwikConfig(epsilon=0.25, delta=0.05, alpha1=0.07, alpha2=0.2).thresholds(5) == (0.07, 0.2)

    @pytest.mark.parametrize(
        "epsilon, delta, value", [(1e-200, 0.5, "0.0"), (1e200, 1e-300, "nan")], ids=["underflow", "overflow"]
    )
    def test_out_of_range_default_alpha1_rejected(self, epsilon, delta, value):
        # epsilon^2 underflows to 0, or overflows; an explicit alpha1 needs no default
        with pytest.raises(ConfigurationError, match=f"^kwik policy alpha1: default {value} for"):
            KwikConfig(epsilon=epsilon, delta=delta).thresholds(5)
        assert KwikConfig(epsilon, delta, alpha1=0.1).thresholds(5)[0] == 0.1

    def test_kwik_requires_vector_cases(self):
        with pytest.raises(ConfigurationError, match="^kwik policy requires vector cases$"):
            _run_config(KwikConfig(epsilon=0.1, delta=0.1), cases=SingletonCases())
        _run_config(KwikConfig(epsilon=0.1, delta=0.1), cases=BallCases(2))


def _run_config(policy, *, cases=SingletonCases(), costs=UniformCosts(1.0, 2.0), horizon=10, alpha=1.0):
    return RunConfig(
        horizon=horizon,
        truth=ConstantTruth(0.5, 0.5, alpha),
        cases=cases,
        costs=costs,
        learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN),
        policy=policy,
    )
