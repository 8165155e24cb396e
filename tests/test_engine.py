"""The event engine against the step loop, and the whole-horizon policy laws
against their per-step forms, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from courtlearn import sim
from courtlearn.core import (
    SINGLETON_CASE,
    BallCases,
    ConfigurationError,
    ConstantTruth,
    FixedCosts,
    LinearTruth,
    PointMassCosts,
    SingletonCases,
    UniformCosts,
)
from courtlearn.learners import LearnerFamily, LearnerKind
from courtlearn.policies import (
    ActionKind,
    DynamicCompellingConfig,
    EtcConfig,
    KwikConfig,
    NoSubsidyConfig,
    SubsidySamplingConfig,
    dynamic_compel_mask,
    dynamic_compel_probability,
    make_policy,
    sample_subsidy,
    subsidy_bases,
    subsidy_tail_probability,
)


class _Replay:
    """Stands in for a Generator: hands out fixed draws, one per ``random()`` call."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def _bits(value):
    """Type plus exact value; floats by their hex form, so -0.0 != 0.0."""
    return type(value), value.hex() if isinstance(value, float) else value


def _mean_config(policy, horizon, *, alpha=1.0, mu=0.5, sigma=0.5, costs=None,
                 cases=SingletonCases(), err_constant=1.0, seed=0):
    return sim.RunConfig(
        horizon=horizon,
        truth=ConstantTruth(mu, sigma, alpha),
        cases=cases,
        costs=costs if costs is not None else UniformCosts(1.0, 2.0),
        learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN, err_constant=err_constant),
        policy=policy,
        seed=seed,
    )


def _outcome(simulate, config, env, rep, keep_records):
    try:
        return simulate(config, env, rep, keep_records)
    except ConfigurationError as exc:
        return exc


@st.composite
def mean_runs(draw):
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 3.0))
    mu = draw(st.sampled_from([0.0, alpha]) | st.floats(0.0, alpha))
    sigma = draw(st.sampled_from([0.0, alpha]) | st.floats(0.0, alpha))
    c_min = draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 3.0))
    width = draw(st.floats(0.0, 2.0))
    costs = draw(
        st.sampled_from(
            [
                PointMassCosts(c_min),
                UniformCosts(c_min, c_min + width),
                FixedCosts((c_min + width, c_min, c_min + width / 2)),
            ]
        )
    )
    horizon = draw(st.integers(1, 1500))
    factor = draw(st.sampled_from([1.0, 0.1, 3.0]))
    policy = draw(
        st.sampled_from(
            [
                NoSubsidyConfig(),
                EtcConfig(horizon, alpha, costs.c_max * factor),
                DynamicCompellingConfig(alpha, costs.c_max * factor),
                SubsidySamplingConfig(alpha, costs.c_min, costs.c_max * max(factor, 1.0)),
            ]
        )
    )
    config = _mean_config(
        policy,
        horizon,
        alpha=alpha,
        mu=mu,
        sigma=sigma,
        costs=costs,
        cases=draw(st.sampled_from([SingletonCases(), BallCases(1), BallCases(3)])),
        err_constant=draw(st.sampled_from([0.3, 1.0, 5.0])),
        seed=draw(st.integers(0, 50)),
    )
    return config, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(run=mean_runs(), keep_records=st.booleans())
# The tail skip fires at t = 1: 2 * alpha < c_min and no_subsidy never acts.
@example(run=(_mean_config(NoSubsidyConfig(), 50, alpha=0.4, mu=0.2, sigma=0.1,
                           costs=PointMassCosts(1.0)), 0), keep_records=False)
# After one visit 2 * err == c_min == 1.0 exactly: the strict test keeps the skip off.
@example(run=(_mean_config(NoSubsidyConfig(), 1500), 1), keep_records=False)
@example(run=(_mean_config(EtcConfig(1500, 1.0, 2.0), 1500), 2), keep_records=False)
@example(run=(_mean_config(SubsidySamplingConfig(1.0, 1.0, 2.0), 1, sigma=0.0), 0),
         keep_records=True)
@example(run=(_mean_config(DynamicCompellingConfig(1.0, 2.0), 400, sigma=0.0,
                           cases=BallCases(2)), 2), keep_records=True)
def test_event_engine_matches_step_loop(run, keep_records):
    config, rep = run
    env = sim.draw_environment(config, rep)
    loop = _outcome(sim._step_loop, config, env, rep, keep_records)
    engine = _outcome(sim._simulate, config, env, rep, keep_records)
    if isinstance(loop, Exception):
        assert type(engine) is type(loop) and str(engine) == str(loop)
        return
    for name in ("total_loss", "court_count", "total_subsidy_paid", "seed", "config_digest"):
        assert _bits(getattr(engine, name)) == _bits(getattr(loop, name)), name
    assert list(engine.steps) == list(loop.steps) == (list(sim.STEP_COLUMNS) if keep_records else [])
    for name, want in loop.steps.items():
        got = engine.steps[name]
        assert got.dtype == want.dtype == sim.STEP_COLUMNS[name], name
        assert got.shape == want.shape == (config.horizon,), name
        # bytes, not ==: -0.0 and 0.0 must not pass for each other
        assert got.tobytes() == want.tobytes(), name


def test_dispatch_rule_reads_the_config_only(monkeypatch):
    def engine(*args):
        return "engine"

    def loop(*args):
        return "loop"

    monkeypatch.setattr(sim, "_event_engine", engine)
    monkeypatch.setattr(sim, "_step_loop", loop)
    for policy in (
        NoSubsidyConfig(),
        EtcConfig(100, 1.0, 2.0),
        DynamicCompellingConfig(1.0, 2.0),
        SubsidySamplingConfig(1.0, 1.0, 2.0),
    ):
        assert sim._simulate(_mean_config(policy, 100), None, 0, False) == "engine"
    kwik = KwikConfig(epsilon=0.25, delta=0.05)
    mean_kwik = _mean_config(kwik, 100, cases=BallCases(2))
    assert sim._simulate(mean_kwik, None, 0, False) == "loop"
    linear = sim.RunConfig(
        horizon=100,
        truth=LinearTruth(np.array([0.1, 0.1]), 0.5, 0.1, 1.0),
        cases=BallCases(2),
        costs=PointMassCosts(1.0),
        learner=LearnerKind(LearnerFamily.OLS),
        policy=DynamicCompellingConfig(1.0, 1.0),
    )
    assert sim._simulate(linear, None, 0, False) == "loop"


@pytest.mark.parametrize(
    "policy",
    [
        NoSubsidyConfig(),
        EtcConfig(300, 2.0, 1.0),
        DynamicCompellingConfig(3.0, 1.0),
        SubsidySamplingConfig(2.0, 1.0, 4.0),
    ],
    ids=lambda p: p.name,
)
def test_horizon_actions_replay_select(policy):
    horizon, err = 300, 0.3
    rng_whole = np.random.default_rng(17)
    rng_steps = np.random.default_rng(17)
    compel, bases = make_policy(policy).horizon_actions(horizon, rng_whole)
    stepper = make_policy(policy)
    for t in range(1, horizon + 1):
        action = stepper.select(t, SINGLETON_CASE, err, rng_steps)
        assert (action.kind is ActionKind.COMPEL) == (compel is not None and bool(compel[t - 1]))
        if bases is None:
            assert action.kind is not ActionKind.SUBSIDY
        else:
            offer = max(0.0, bases.item(t - 1) - 2.0 * err)
            assert _bits(action.subsidy) == _bits(offer)
    # Both consumed the same number of draws.
    assert rng_whole.random() == rng_steps.random()


def test_dynamic_compel_mask_matches_per_step_draws():
    alpha, c_max, horizon = 3.0, 1.0, 2000
    mask = dynamic_compel_mask(np.random.default_rng(4).random(horizon), alpha, c_max)
    rng = np.random.default_rng(4)
    expected = [rng.random() < dynamic_compel_probability(t, alpha, c_max)
                for t in range(1, horizon + 1)]
    assert mask.tolist() == expected
    assert mask[:9].all()  # probability 1 while t * c_max <= alpha**2


@pytest.mark.parametrize(
    "alpha, c_min, c_max",
    [(2.0, 1.0, 4.0), (1.0, 1.0, 4.0), (0.5, 0.3, 0.9)],
)
def test_subsidy_bases_match_sample_subsidy_draw_for_draw(alpha, c_min, c_max):
    horizon = 400
    transition = SubsidySamplingConfig(alpha, c_min, c_max).transition_step
    draws = np.random.default_rng(5).random(horizon)
    bases = subsidy_bases(draws, alpha, c_min, c_max, transition)
    for two_err in (0.0, 0.25, 3.0):
        replay = _Replay(draws.tolist())
        for t in range(1, horizon + 1):
            expected = sample_subsidy(t, two_err, alpha, c_min, c_max, t <= transition, replay)
            assert _bits(max(0.0, bases.item(t - 1) - two_err)) == _bits(expected), (t, two_err)
    branches = set()
    for t, u in enumerate(draws.tolist(), start=1):
        phase1 = t <= transition
        if u <= subsidy_tail_probability(t, c_max, alpha, phase1):
            branches.add("point mass")
        elif u <= subsidy_tail_probability(t, c_min, alpha, phase1):
            branches.add("density")
        else:
            branches.add("zero")
    assert branches == {"point mass", "density", "zero"}
    assert (transition >= 1) == (alpha == 2.0)  # the first case covers phase 1


# (step, draw) pairs, alpha = 1 and costs in [1, 4], at which Python's x ** 2
# (libm pow) and x * x round differently for x = alpha / (u * sqrt(t)); numpy's
# square and power round like x * x on them.
_POW_DRAWS = [
    (1, "0x1.2e6ceb9fe70a0p-1"),
    (1, "0x1.8a910483fdd9ep-1"),
    (2, "0x1.21b99950a374ap-1"),
    (2, "0x1.0ec8f8a8c4c9fp-1"),
    (3, "0x1.45468c58c4f60p-2"),
    (7, "0x1.271a932f17eb6p-2"),
    (10, "0x1.fc6e5d926ee01p-3"),
    (10, "0x1.8c2b6a05bb53bp-3"),
]


@pytest.mark.parametrize("t, draw_hex", _POW_DRAWS)
def test_subsidy_bases_square_like_sample_subsidy(t, draw_hex):
    u = float.fromhex(draw_hex)
    x = 1.0 / (u * math.sqrt(t))
    assert x ** 2 != x * x  # a draw on which the two roundings differ
    draws = np.full(t, 0.999)
    draws[-1] = u
    bases = subsidy_bases(draws, 1.0, 1.0, 4.0, 0)
    expected = sample_subsidy(t, 0.0, 1.0, 1.0, 4.0, False, _Replay([u]))
    assert _bits(bases.item(-1)) == _bits(expected)


def test_subsidy_bases_raise_like_the_tail_law():
    alpha, c_min, c_max = 1.0, 0.25, 1.0
    transition = SubsidySamplingConfig(alpha, c_min, c_max).transition_step
    with pytest.raises(ConfigurationError) as scalar:
        subsidy_tail_probability(1, c_min, alpha, 1 <= transition)
    with pytest.raises(ConfigurationError) as whole:
        subsidy_bases(np.full(10, 0.5), alpha, c_min, c_max, transition)
    assert str(whole.value) == str(scalar.value)
