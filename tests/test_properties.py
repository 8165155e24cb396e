"""Property tests for the pure operations."""

import dataclasses
import math
import tempfile

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from courtlearn.config import parse_config
from courtlearn.core import ConfigurationError, ConstantTruth, PointMassCosts, SingletonCases, UniformCosts
from courtlearn.experiment import run_experiment
from courtlearn.learners import LearnerFamily, LearnerKind, err_bound
from courtlearn.policies import (
    DynamicCompellingConfig,
    EtcConfig,
    NoSubsidyConfig,
    SubsidySamplingConfig,
    agent_decision,
    dynamic_compel_probability,
    subsidy_bases,
    subsidy_tail_probability,
)
from courtlearn.sim import RunConfig, _clip, _offers, _predict

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@given(
    sigma=st.floats(min_value=0.0, max_value=10.0),
    alpha=positive,
    constant=st.floats(min_value=1e-3, max_value=10.0),
    m_small=st.integers(min_value=0, max_value=500),
    extra=st.integers(min_value=1, max_value=500),
)
def test_err_bound_non_increasing_in_m(sigma, alpha, constant, m_small, extra):
    kind = LearnerKind(LearnerFamily.EMPIRICAL_MEAN, err_constant=constant)
    assert err_bound(kind, m_small + extra, sigma, alpha) <= err_bound(kind, m_small, sigma, alpha)


@given(mean=finite, alpha=positive)
def test_mean_prediction_stays_in_range(mean, alpha):
    (value,) = _clip(np.array([mean]), alpha)
    assert 0.0 <= value <= alpha


@given(
    coef=st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
    x=st.floats(min_value=-0.7, max_value=0.7),
    y=st.floats(min_value=-0.7, max_value=0.7),
    alpha=positive,
)
def test_linear_prediction_stays_in_range(coef, x, y, alpha):
    (value,) = _clip(_predict(np.array([[x, y]]), np.array([coef]), np.zeros(1, dtype=int)), alpha)
    assert 0.0 <= value <= alpha


@given(cost=positive, subsidy=st.floats(min_value=0.0, max_value=1e3), err=st.floats(min_value=0.0, max_value=1e3))
def test_agent_decision_matches_threshold(cost, subsidy, err):
    assert agent_decision(cost, subsidy, err) == (cost - subsidy <= 2.0 * err)


@given(t=st.integers(min_value=1, max_value=10**6), alpha=positive, c_max=positive)
def test_dynamic_probability_valid_and_decaying(t, alpha, c_max):
    p = dynamic_compel_probability(t, alpha, c_max)
    assert 0.0 < p <= 1.0
    assert dynamic_compel_probability(t + 1, alpha, c_max) <= p


@given(
    t=st.integers(min_value=1, max_value=10**4),
    c=st.floats(min_value=1.0, max_value=100.0),
    alpha=st.floats(min_value=0.1, max_value=1.0),
)
def test_tail_probability_decays_in_t(t, c, alpha):
    assert subsidy_tail_probability(t + 1, c, alpha) <= subsidy_tail_probability(t, c, alpha)


@settings(max_examples=300)
@given(
    t=st.integers(min_value=1, max_value=10**4),
    two_err=st.floats(min_value=0.0, max_value=20.0),
    # alpha <= sqrt(c_min) keeps the distribution well-defined from t = 1 on
    alpha=st.floats(min_value=0.05, max_value=1.0),
    c_lo=st.floats(min_value=1.0, max_value=4.0),
    width=st.floats(min_value=0.0, max_value=16.0),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_sampled_subsidy_nonnegative_and_bounded(t, two_err, alpha, c_lo, width, u):
    c_hi = c_lo + width
    s = _offers(subsidy_bases(np.array([u]), np.array([t]), alpha, c_lo, c_hi, 0), two_err).item(0)
    assert math.isfinite(s)
    assert 0.0 <= s <= max(0.0, c_hi - two_err)


@st.composite
def state_free_runs(draw):
    """Run configs under a state-free policy, horizons 1 to 300.

    The compelling policies meet a point cost ``c_max``; ``subsidy_sampling``
    meets costs uniform on [c_min, c_min + c_max].
    """
    horizon = draw(st.integers(min_value=1, max_value=300))
    alpha = draw(st.floats(min_value=0.05, max_value=5.0))
    c_max = draw(st.floats(min_value=0.05, max_value=5.0))
    # c_min >= min(1, alpha**2) keeps subsidy_sampling well-defined from t = 1 on
    c_min = draw(st.floats(min_value=min(1.0, alpha**2), max_value=5.0))
    policy = draw(
        st.sampled_from(
            [NoSubsidyConfig(), EtcConfig(), DynamicCompellingConfig(), SubsidySamplingConfig()]
        )
    )
    subsidy = isinstance(policy, SubsidySamplingConfig)
    return RunConfig(
        horizon=horizon,
        truth=ConstantTruth(0.0, 0.0, alpha),
        cases=SingletonCases(),
        costs=UniformCosts(c_min, c_min + c_max) if subsidy else PointMassCosts(c_max),
        learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN),
        policy=policy,
    )


@settings(max_examples=200, deadline=None)
@given(run=state_free_runs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inactive_policies_neither_compel_nor_offer(run, seed):
    # The tail skip's soundness: from step index ``active`` on, the drawn
    # actions compel nobody and offer no subsidy.
    compel, bases, active = run.policy.horizon_actions(run, np.random.default_rng(seed))
    assert 0 <= active <= run.horizon
    assert compel is None or not compel[active:].any()
    assert bases is None or not bases[active:].any()


@st.composite
def experiment_configs(draw, extreme=False):
    """Config mappings over all policies, cost kinds and case spaces, small horizons.

    ``extreme`` scales alpha (with mu, sigma and beta) and the costs by
    independent log-uniform magnitudes in 1e-300..1e300.
    """
    def magnitude():
        return 10.0 ** draw(st.floats(min_value=-300.0, max_value=300.0)) if extreme else 1.0

    alpha = magnitude() * draw(st.floats(min_value=0.1, max_value=3.0))
    dim = draw(st.sampled_from([None, 1, 3]))
    cost_scale = magnitude()
    c_min = cost_scale * draw(st.floats(min_value=0.1, max_value=3.0))
    c_max = c_min + cost_scale * draw(st.floats(min_value=0.0, max_value=2.0))
    cost = draw(
        st.sampled_from(
            [
                {"kind": "point", "c": c_min},
                {"kind": "uniform", "c_min": c_min, "c_max": c_max},
                {"kind": "sequence", "costs": [c_max, c_min]},
            ]
        )
    )
    sigma = alpha * draw(st.floats(min_value=0.0, max_value=1.0))
    if dim is None or draw(st.booleans()):
        mu = alpha * draw(st.floats(min_value=0.0, max_value=1.0))
        truth = {"family": "constant", "mu": mu, "sigma": sigma, "alpha": alpha}
        learners = ["empirical_mean"] if dim is None else ["empirical_mean", "ols", "norm_constrained"]
    else:
        # |beta| <= alpha / 4 and beta0 = alpha / 2 keep the rule inside [0, alpha]
        b = alpha / 4 * draw(st.floats(min_value=0.0, max_value=1.0)) / math.sqrt(dim)
        truth = {"family": "linear", "beta": [b] * dim, "beta0": alpha / 2, "sigma": sigma, "alpha": alpha}
        learners = ["ols", "norm_constrained"]
    kwik = {
        "name": "kwik",
        "epsilon": 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)),
        "delta": draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
    }
    # Two entries may name the same policy, which the loader refuses.
    policies = draw(
        st.lists(
            st.sampled_from(
                [
                    "no_subsidy",
                    "etc",
                    "dynamic_compelling",
                    "subsidy_sampling",
                    kwik,
                ]
            ),
            min_size=1,
            max_size=2,
        )
    )
    data = {
        "truth": truth,
        "cost": cost,
        "learner": {"kind": draw(st.sampled_from(learners))},
        "policies": policies,
        "sweep": sorted(draw(st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=3))),
        "replications": 1,
    }
    if dim is not None:
        data["cases"] = {"kind": "ball", "dim": dim}
    return data


@settings(max_examples=80, deadline=None)
@given(data=experiment_configs())
def test_every_loadable_config_completes_a_sweep(data):
    try:
        spec = parse_config(data)
    except ConfigurationError:
        reject()
    with tempfile.TemporaryDirectory() as out_dir:
        run_experiment(dataclasses.replace(spec, sweep=spec.sweep[:1], out_dir=out_dir))


@settings(max_examples=80, deadline=None)
@given(data=experiment_configs(extreme=True))
def test_every_loadable_extreme_config_completes_without_overflow(data):
    # The load-time bound on a run's worst-case total leaves no overflow in
    # any sum, standard error or ledger of the sweep.
    try:
        spec = parse_config({**data, "replications": 2})
    except ConfigurationError:
        reject()
    with tempfile.TemporaryDirectory() as out_dir, np.errstate(over="raise", invalid="raise"):
        run_experiment(dataclasses.replace(spec, out_dir=out_dir), ledgers=True)
