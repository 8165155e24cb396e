"""Simulation loop protocol, loss accounting, baseline pairing, and regret."""

import math

import numpy as np
import pytest

from courtlearn import sim
from courtlearn.core import (
    ConfigurationError,
    ConstantTruth,
    FixedCosts,
    LinearTruth,
    PointMassCosts,
    SingletonCases,
    BallCases,
    UniformCosts,
)
from courtlearn.learners import LearnerFamily, LearnerKind, err_bound
from courtlearn.policies import (
    DynamicCompellingConfig,
    EtcConfig,
    NoSubsidyConfig,
    SubsidySamplingConfig,
    etc_compel_count,
)
from courtlearn.sim import (
    Environment,
    RunConfig,
    check_deterrent,
    draw_environment,
    estimate_regret,
    offline_baseline,
    run,
)
from oracle import recompute_total_loss

MEAN = LearnerKind(LearnerFamily.EMPIRICAL_MEAN)


def constant_config(**overrides):
    base = dict(
        horizon=10,
        truth=ConstantTruth(mu=1.0, sigma=0.5, alpha=2.0),
        cases=SingletonCases(),
        costs=PointMassCosts(1.0),
        learner=MEAN,
        policy=NoSubsidyConfig(),
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def linear_config(**overrides):
    base = dict(
        horizon=10,
        truth=LinearTruth(beta=np.array([0.1, -0.2, 0.15]), beta0=0.5, sigma=0.2, alpha=1.0),
        cases=BallCases(3),
        costs=PointMassCosts(1.0),
        learner=LearnerKind(LearnerFamily.OLS),
        policy=NoSubsidyConfig(),
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


ENV_FIELDS = ("xs", "f_values", "outcomes", "costs")
COST_KINDS = [PointMassCosts(1.0), UniformCosts(0.5, 1.5), FixedCosts((1.0, 2.0, 1.5))]


def compel_all(horizon, **overrides):
    """An etc run that compels every case: its point cost is at most alpha^2 / T."""
    config = constant_config(horizon=horizon, costs=PointMassCosts(1e-9), policy=EtcConfig(), **overrides)
    assert etc_compel_count(horizon, config.truth.alpha, config.costs.c_max) == horizon
    return config


class TestRunProtocol:
    def test_settle_only_hand_trace(self):
        # zero noise, cost too high for anyone: all five cases settle at the
        # empty-data prediction 0, each paying squared error 1
        config = constant_config(
            horizon=5,
            truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=1.0),
            costs=PointMassCosts(3.0),
        )
        ledger = run(config)
        assert ledger.total_loss == 5.0
        assert ledger.court_count == 0
        assert not ledger.steps["went_to_court"].any()
        assert (ledger.steps["applied_decision"] == 0.0).all()

    def test_compel_all_hand_trace(self):
        # zero noise: the first court visit pins the rule exactly, so the
        # only loss is three court fees of 0.5
        config = constant_config(
            horizon=3,
            truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=10.0),
            costs=PointMassCosts(0.5),
            policy=EtcConfig(),
        )
        ledger = run(config)
        assert ledger.total_loss == pytest.approx(1.5)
        assert ledger.court_count == 3
        assert ledger.steps["m_before"].tolist() == [0, 1, 2]

    def test_court_updates_before_deciding(self):
        # litigated steps are decided from the post-update dataset: with zero
        # noise the very first court decision is already exact
        config = constant_config(
            horizon=1,
            truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=10.0),
            costs=PointMassCosts(0.5),
            policy=EtcConfig(),
        )
        steps = run(config).steps
        assert steps["went_to_court"][0]
        assert steps["applied_decision"][0] == 1.0
        assert steps["settlement_value"][0] == 0.0  # what settling would have paid

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(policy=DynamicCompellingConfig()),
            # positive offers, some of them taken
            dict(policy=SubsidySamplingConfig(), costs=UniformCosts(1.0, 4.0)),
            dict(policy=SubsidySamplingConfig(), costs=FixedCosts((1.0, 2.0, 1.5))),
        ],
        ids=["dynamic_compelling", "subsidy_uniform", "subsidy_sequence"],
    )
    def test_accounting_identity(self, overrides):
        config = constant_config(horizon=200, seed=3, **overrides)
        ledger = run(config)
        assert recompute_total_loss(ledger) == ledger.total_loss
        steps = ledger.steps
        diff = steps["applied_decision"] - steps["true_value"]
        np.testing.assert_array_equal(steps["squared_error"], diff * diff)
        np.testing.assert_array_equal(
            steps["court_cost_incurred"], np.where(steps["went_to_court"], steps["cost"], 0.0)
        )
        # the subsidy paid is the ledger's own subsidy column summed over visits, in step order
        paid = 0.0
        for offer in steps["subsidy"][steps["went_to_court"]].tolist():
            paid += offer
        assert paid.hex() == ledger.total_subsidy_paid.hex()
        assert (paid > 0.0) == isinstance(config.policy, SubsidySamplingConfig)
        np.testing.assert_array_equal(
            steps["pre_step_err_bound"],
            err_bound(config.learner, steps["m_before"], config.truth.sigma, config.truth.alpha),
        )
        assert run(config, keep_records=False).total_subsidy_paid.hex() == paid.hex()

    def test_dataset_growth_identity(self):
        config = constant_config(horizon=300, policy=DynamicCompellingConfig(), seed=5)
        ledger = run(config)
        courted = ledger.steps["went_to_court"]
        assert ledger.court_count == courted.sum()
        # m_before counts exactly the prior courted steps
        assert ledger.steps["m_before"][courted].tolist() == list(range(ledger.court_count))

    def test_determinism(self):
        config = constant_config(horizon=500, policy=DynamicCompellingConfig(), seed=9)
        a, b = run(config), run(config)
        assert a.total_loss == b.total_loss
        assert a.court_count == b.court_count
        assert a.config_digest == b.config_digest
        for name in ("applied_decision", "cost", "subsidy"):
            np.testing.assert_array_equal(a.steps[name], b.steps[name])

    def test_litigation_stops_for_good_once_bound_clears_cost(self):
        # once 2 * err < c_min with no selection pressure, the dataset is
        # frozen and no later case litigates
        config = constant_config(horizon=400, seed=11, costs=UniformCosts(0.8, 1.2))
        ledger = run(config)
        clears = 2.0 * ledger.steps["pre_step_err_bound"] < config.costs.c_min
        assert clears.any()
        cleared = int(clears.argmax())  # the first step that clears
        assert not ledger.steps["went_to_court"][cleared:].any()

    def test_voluntary_litigation_threshold(self):
        # alpha = 2 makes the first two cases litigate at cost 1 (the second
        # on the boundary 2 * 0.5 <= 1), then everyone settles
        config = constant_config(horizon=50, truth=ConstantTruth(mu=1.0, sigma=0.5, alpha=2.0))
        ledger = run(config)
        assert ledger.steps["went_to_court"][:3].tolist() == [True, True, False]
        assert ledger.court_count == 2


class TestEnvironment:
    def test_prefix_stability_across_horizons(self):
        short = draw_environment(constant_config(horizon=100, seed=21), rep=2)
        long = draw_environment(constant_config(horizon=1000, seed=21), rep=2)
        np.testing.assert_array_equal(short.costs, long.costs[:100])
        np.testing.assert_array_equal(short.outcomes, long.outcomes[:100])

    @pytest.mark.parametrize("costs", COST_KINDS, ids=["point", "uniform", "sequence"])
    def test_linear_prefix_stability_across_horizons(self, costs):
        short = draw_environment(linear_config(horizon=100, costs=costs, seed=21), rep=2)
        long = draw_environment(linear_config(horizon=1000, costs=costs, seed=21), rep=2)
        for name in ENV_FIELDS:
            np.testing.assert_array_equal(getattr(short, name), getattr(long, name)[:100])

    @pytest.mark.parametrize("family", list(LearnerFamily))
    def test_baseline_on_a_prefix_view_is_the_short_draws(self, family):
        learner = LearnerKind(family)
        make = constant_config if family is LearnerFamily.EMPIRICAL_MEAN else linear_config
        config = make(horizon=300, learner=learner, seed=8)
        long = draw_environment(make(horizon=1000, learner=learner, seed=8), rep=1)
        xs = None if long.xs is None else long.xs[:300]
        view = Environment(xs, long.f_values[:300], long.outcomes[:300], long.costs[:300])
        alpha = config.truth.alpha
        expected = offline_baseline(draw_environment(config, rep=1), learner, alpha)
        assert offline_baseline(view, learner, alpha).hex() == expected.hex()

    def test_a_prefix_whose_rule_values_differ_is_drawn_afresh(self):
        # BLAS may round ``xs @ beta`` differently for a different row count,
        # so the driver checks a linear truth's values on each prefix
        short = linear_config(horizon=20)
        env = draw_environment(linear_config(horizon=50), rep=1)
        assert np.shares_memory(sim._prefix(env, short, 1).costs, env.costs)
        f_values = env.f_values.copy()
        f_values[3] = np.nextafter(f_values[3], 1.0)
        tampered = Environment(env.xs, f_values, env.outcomes, env.costs)
        prefix, fresh = sim._prefix(tampered, short, 1), draw_environment(short, rep=1)
        for name in ENV_FIELDS:
            np.testing.assert_array_equal(getattr(prefix, name), getattr(fresh, name))

    def test_policy_does_not_perturb_environment(self):
        a = draw_environment(constant_config(seed=4, policy=NoSubsidyConfig()))
        b = draw_environment(constant_config(seed=4, policy=DynamicCompellingConfig()))
        np.testing.assert_array_equal(a.costs, b.costs)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_ledger_consumes_the_environment_stream(self):
        config = constant_config(horizon=50, seed=13)
        env = draw_environment(config, rep=0)
        ledger = run(config, rep=0)
        np.testing.assert_array_equal(ledger.steps["cost"], env.costs)
        np.testing.assert_array_equal(ledger.steps["true_value"], env.f_values)


class TestOfflineBaseline:
    def test_noiseless_floor_is_zero(self):
        config = constant_config(truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=2.0))
        assert offline_baseline(draw_environment(config), MEAN, 2.0) == 0.0

    def test_constant_family_floor_scale(self):
        # offline error of the pooled mean is sigma^2 / T per case, so the
        # total stays near sigma^2 = 1 regardless of T
        config = constant_config(horizon=10_000, truth=ConstantTruth(mu=2.0, sigma=1.0, alpha=4.0))
        values = [
            offline_baseline(draw_environment(config, rep), MEAN, 4.0) for rep in range(100)
        ]
        assert 0.5 <= float(np.mean(values)) <= 2.0

    def test_independent_of_online_policy(self):
        cfg_a = constant_config(seed=6, policy=NoSubsidyConfig())
        cfg_b = constant_config(seed=6, policy=DynamicCompellingConfig())
        la = offline_baseline(draw_environment(cfg_a, 3), MEAN, 2.0)
        lb = offline_baseline(draw_environment(cfg_b, 3), MEAN, 2.0)
        assert la == lb

    def test_linear_baseline(self):
        truth = LinearTruth(beta=np.array([0.2, 0.1]), beta0=0.4, sigma=0.0, alpha=1.0)
        config = RunConfig(
            horizon=50,
            truth=truth,
            cases=BallCases(2),
            costs=PointMassCosts(1.0),
            learner=LearnerKind(LearnerFamily.OLS),
            policy=NoSubsidyConfig(),
            seed=0,
        )
        assert offline_baseline(draw_environment(config), config.learner, 1.0) < 1e-18


class TestEstimateRegret:
    def test_zero_loss_both_sides(self):
        # zero noise and (effectively) free court: compel-all learns exactly
        # and only pays a vanishing fee
        config = compel_all(100, truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=10.0))
        report = estimate_regret(config, 20)
        assert abs(report.mean_regret) <= 1e-6

    def test_report_identity(self):
        config = constant_config(horizon=200, policy=DynamicCompellingConfig())
        report = estimate_regret(config, 30)
        derived = (report.mean_online_loss - report.mean_offline_loss) / config.horizon
        assert report.mean_regret == pytest.approx(derived, rel=1e-12)

    def test_replications_floor(self):
        with pytest.raises(ConfigurationError, match="^replications must be >= 1, got 0$"):
            estimate_regret(constant_config(), 0)

    def test_learning_stall_plateau(self):
        # with no selection pressure the dataset freezes at two observations
        # and the per-case regret plateaus near sigma^2 / 2 = 0.125
        for horizon in (1000, 10_000):
            config = constant_config(horizon=horizon, seed=2)
            report = estimate_regret(config, 200)
            assert 0.09 <= report.mean_regret <= 0.17

    def test_compel_all_regret_vanishes(self):
        # per-case regret from always litigating decays like log(T)/T
        reports = {
            horizon: estimate_regret(compel_all(horizon, seed=7), 60)
            for horizon in (1000, 10_000)
        }
        assert reports[10_000].mean_regret < reports[1000].mean_regret

    def test_etc_regret_ratio_tracks_square_root(self):
        reports = {
            horizon: estimate_regret(
                constant_config(
                    horizon=horizon,
                    truth=ConstantTruth(mu=0.5, sigma=0.5, alpha=1.0),
                    costs=UniformCosts(0.5, 1.0),
                    policy=EtcConfig(),
                    seed=3,
                ),
                80,
            )
            for horizon in (1000, 10_000)
        }
        ratio = reports[10_000].mean_regret / reports[1000].mean_regret
        expected = math.sqrt(1000 / 10_000)
        assert abs(ratio - expected) <= 0.35 * expected


class TestSweep:
    def test_one_draw_per_replication_and_one_baseline_per_horizon(self, monkeypatch):
        draws, baselines = [], []
        draw, score = sim.draw_environment, sim.offline_baseline

        def counting_draw(config, rep=0):
            draws.append(draw(config, rep))
            return draws[-1]

        def counting_score(env, kind, alpha):
            baselines.append(len(env.costs))
            return score(env, kind, alpha)

        monkeypatch.setattr(sim, "draw_environment", counting_draw)
        monkeypatch.setattr(sim, "offline_baseline", counting_score)
        configs = [
            constant_config(horizon=horizon, policy=policy, costs=UniformCosts(0.5, 1.5), seed=4)
            for policy in (NoSubsidyConfig(), EtcConfig(), DynamicCompellingConfig())
            for horizon in (10, 100, 1000)
        ]
        reports = sim._sweep(configs, 3)
        assert len(draws) == 3
        assert sorted(baselines) == [10] * 3 + [100] * 3 + [1000] * 3
        for env in draws:
            for name in ("f_values", "outcomes", "costs"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(env, name)[0] = 0.0
        monkeypatch.undo()
        assert reports == [estimate_regret(config, 3) for config in configs]

    def test_cells_must_share_their_environment(self):
        configs = [constant_config(seed=1), constant_config(seed=2)]
        with pytest.raises(ValueError, match="differ only in policy and horizon"):
            sim._sweep(configs, 1)


class TestCheckDeterrent:
    def test_no_subsidy_payoff_always_negative(self):
        config = constant_config(horizon=30, seed=1)
        report = check_deterrent(config, 50)
        assert all(value <= 0.0 for value in report.per_step_estimates)
        assert report.max_violation <= 0.0
        assert report.satisfied

    def test_needs_two_replications(self):
        with pytest.raises(ConfigurationError, match="^deterrent check needs at least 2 replications$"):
            check_deterrent(constant_config(), 1)

    def test_subsidy_sampling_reports_offers(self):
        config = constant_config(
            horizon=40,
            truth=ConstantTruth(mu=0.5, sigma=0.5, alpha=1.0),
            costs=UniformCosts(4.0, 12.0),
            policy=SubsidySamplingConfig(),
            seed=8,
        )
        report = check_deterrent(config, 200)
        assert report.per_step_mean_subsidy.shape == (40,)
        assert np.all(report.per_step_mean_subsidy >= 0.0)
        assert report.satisfied


class TestRunConfigValidation:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            constant_config(horizon=0)

    def test_mean_learner_needs_constant_truth(self):
        with pytest.raises(ConfigurationError):
            RunConfig(
                horizon=10,
                truth=LinearTruth(beta=np.array([0.1]), beta0=0.4, sigma=0.1, alpha=1.0),
                cases=BallCases(1),
                costs=PointMassCosts(1.0),
                learner=MEAN,
                policy=NoSubsidyConfig(),
            )

    def test_linear_learner_needs_vector_cases(self):
        with pytest.raises(ConfigurationError):
            constant_config(learner=LearnerKind(LearnerFamily.OLS))

    def test_ill_defined_subsidy_distribution_aborts_before_step_one(self):
        with pytest.raises(ConfigurationError):
            constant_config(
                costs=UniformCosts(0.25, 1.0),
                policy=SubsidySamplingConfig(),
            )
