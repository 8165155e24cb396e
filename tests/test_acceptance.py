"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion.  Criteria 1-4 estimate the regret at all of their horizons in
one ``estimate_regret`` sweep, which draws each replication once.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import courtlearn as cl
from courtlearn.config import parse_config
from courtlearn.experiment import fit_loglog_slope, kwik_report, run_experiment
from courtlearn.core import augment, decompose
from courtlearn.learners import LearnerFamily, LearnerKind, _fit_linear
from courtlearn.policies import subsidy_bases, subsidy_tail_probability, transition_step
from courtlearn.sim import _mean_rules, _offers
from oracle import recompute_total_loss


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} - {detail}")


def _constant_config(horizon, policy, *, mu, sigma, alpha, costs, seed=0, err_constant=1.0):
    return cl.RunConfig(
        horizon=horizon,
        truth=cl.ConstantTruth(mu=mu, sigma=sigma, alpha=alpha),
        cases=cl.SingletonCases(),
        costs=costs,
        learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN, err_constant=err_constant),
        policy=policy,
        seed=seed,
    )


def test_criterion_1_learning_stalls_without_selection():
    """No selection pressure: exactly two court visits ever, flat regret."""
    replications = 500
    costs = cl.PointMassCosts(1.0)
    configs = [
        _constant_config(horizon, cl.NoSubsidyConfig(), mu=1.0, sigma=0.5, alpha=2.0, costs=costs, seed=0)
        for horizon in (1000, 10_000)
    ]
    reports = cl.estimate_regret(configs, replications)
    regrets = {config.horizon: report.mean_regret for config, report in zip(configs, reports)}
    courts_ok = True
    for config in configs:
        for rep in range(replications):
            ledger = cl.run(config, rep, keep_records=False)
            if ledger.court_count != 2:
                courts_ok = False
    in_band = all(0.09 <= r <= 0.17 for r in regrets.values())
    stable = abs(regrets[10_000] - regrets[1000]) < 0.02
    ok = courts_ok and in_band and stable
    _report(
        1,
        "learning stalls without selection",
        ok,
        f"court_count==2 everywhere: {courts_ok}; "
        f"R(1e3)={regrets[1000]:.4f}, R(1e4)={regrets[10_000]:.4f} in [0.09, 0.17]: {in_band}; "
        f"|diff|={abs(regrets[10_000] - regrets[1000]):.4f} < 0.02: {stable}",
    )
    assert ok


def _sweep_slope(policy, costs, replications=200, seed=0):
    horizons = (1000, 10_000, 100_000)
    configs = [
        _constant_config(horizon, policy, mu=0.5, sigma=0.5, alpha=1.0, costs=costs, seed=seed)
        for horizon in horizons
    ]
    reports = dict(zip(horizons, cl.estimate_regret(configs, replications)))
    slope = fit_loglog_slope(
        np.array(horizons), np.array([report.mean_regret for report in reports.values()])
    )
    return slope, reports


def test_criterion_2_explore_then_commit_rate():
    """Regret of the compel-a-prefix policy decays like 1/sqrt(T)."""
    slope, _ = _sweep_slope(cl.EtcConfig(), cl.UniformCosts(0.5, 1.0))
    ok = -0.65 <= slope <= -0.35
    _report(2, "explore-then-commit rate", ok, f"log-log slope {slope:.3f} in [-0.65, -0.35]")
    assert ok


def test_criterion_3_dynamic_compelling_rate_and_exploration():
    """Horizon-free compelling matches the same rate and its court budget."""
    slope, reports = _sweep_slope(cl.DynamicCompellingConfig(), cl.UniformCosts(0.5, 1.0))
    slope_ok = -0.65 <= slope <= -0.35
    courts_ok = True
    details = []
    for horizon, report in reports.items():
        target = 2.0 * math.sqrt(horizon)  # 2 * alpha * sqrt(T / c_max)
        ratio = report.mean_court_count / target
        details.append(f"T={horizon}: courts {report.mean_court_count:.1f} ({ratio:.2f}x)")
        if not 0.75 <= ratio <= 1.25:
            courts_ok = False
    ok = slope_ok and courts_ok
    _report(
        3,
        "dynamic compelling rate and exploration",
        ok,
        f"slope {slope:.3f} in band: {slope_ok}; court counts within 25%: {courts_ok} "
        f"({'; '.join(details)})",
    )
    assert ok


def test_criterion_4_subsidy_sampling():
    """Random subsidies: deterrence holds, offers stay bounded, rate matches."""
    costs = cl.UniformCosts(4.0, 12.0)  # mean 8, c_max = 12 <= (8/2)^2
    policy = cl.SubsidySamplingConfig()

    deterrent_config = _constant_config(
        1000, policy, mu=0.5, sigma=0.5, alpha=1.0, costs=costs, seed=0
    )
    deterrent = cl.check_deterrent(deterrent_config, 400)
    means = deterrent.per_step_estimates
    violation_ok = bool(
        np.all(means <= 3.0 * deterrent.per_step_std_errors)
    ) and deterrent.satisfied

    subsidy_cap = 2.0 * math.sqrt(costs.c_max)
    cap_slack = subsidy_cap + 3.0 * deterrent.per_step_subsidy_std_errors
    subsidy_ok = bool(np.all(deterrent.per_step_mean_subsidy <= cap_slack))

    slope, _ = _sweep_slope(policy, costs)
    slope_ok = -0.65 <= slope <= -0.35

    ok = violation_ok and subsidy_ok and slope_ok
    _report(
        4,
        "subsidy sampling",
        ok,
        f"max violation {deterrent.max_violation:.3f} (<= 0 within 3 SE: {violation_ok}); "
        f"max mean subsidy {deterrent.per_step_mean_subsidy.max():.3f} <= {subsidy_cap:.3f}: "
        f"{subsidy_ok}; slope {slope:.3f} in band: {slope_ok}",
    )
    assert ok


def test_criterion_5_subsidy_distribution_exactness():
    """The sampler's tails and total mass match the designed distribution."""
    # (t, alpha, c_min, c_max, two_err); early-phase flags follow the
    # configured transition step of each tuple
    tuples = [
        (4, 1.0, 0.25, 1.0, 0.0),
        (9, 1.0, 0.25, 1.0, 0.1),
        (25, 2.0, 1.0, 4.0, 0.05),
        (2, 1.0, 0.5, 9.0, 0.2),
        (100, 1.0, 0.04, 1.0, 0.01),
    ]
    draws_per_tuple = 10**6
    rng = np.random.default_rng(20_240)
    tails_ok = True
    mass_ok = True
    worst_gap = 0.0
    for t, alpha, c_min, c_max, two_err in tuples:
        transition = transition_step(alpha, c_min)
        phase1 = t <= transition
        steps = np.full(draws_per_tuple, t)
        draws = _offers(
            subsidy_bases(rng.random(draws_per_tuple), steps, alpha, c_min, c_max, transition),
            two_err,
        )
        scale = 1.0 / alpha if phase1 else 1.0
        for c in (c_min, 0.5 * (c_min + c_max), c_max):
            expected = scale * alpha / math.sqrt(t * c)
            empirical = float(np.mean(draws >= c - two_err))
            se = math.sqrt(expected * (1.0 - expected) / draws_per_tuple)
            gap = abs(empirical - expected)
            worst_gap = max(worst_gap, gap - 3.0 * se)
            if gap > 3.0 * se:
                tails_ok = False
        # quadrature: point mass + density + zero atom account for all mass
        p_max = subsidy_tail_probability(t, c_max, alpha, phase1)
        p_min = subsidy_tail_probability(t, c_min, alpha, phase1)
        density = lambda x: scale * alpha / (2.0 * math.sqrt(t) * (x + two_err) ** 1.5)
        integral, _ = quad(density, c_min - two_err, c_max - two_err, epsabs=1e-13, epsrel=1e-13)
        if abs(p_max + integral + (1.0 - p_min) - 1.0) > 1e-9:
            mass_ok = False
    ok = tails_ok and mass_ok
    _report(
        5,
        "subsidy distribution exactness",
        ok,
        f"tails within 3 MC SE over {len(tuples)} tuples x 3 costs: {tails_ok} "
        f"(worst slack {worst_gap:.2e}); total mass within 1e-9: {mass_ok}",
    )
    assert ok


def test_criterion_6_learner_error_bounds():
    """Monte Carlo error of both learners tracks the published bounds."""
    rng = np.random.default_rng(6)
    sigma = 1.0
    mean_ok = True
    mean_details = []
    for m in (1, 4, 16, 64):
        draws = rng.normal(0.0, sigma, size=(10**5, m))
        estimates = draws.mean(axis=1)
        rmse = math.sqrt(float(np.mean(estimates**2)))
        target = sigma / math.sqrt(m)
        mean_details.append(f"m={m}: {rmse:.4f} vs {target:.4f}")
        if abs(rmse - target) > 0.05 * target:
            mean_ok = False
    # the vectorized estimator above is the simulator's own mean fit (the
    # draws shifted into [0, alpha], so that the fit's clip does not act)
    spot = _mean_rules(draws[0] + 5.0, 10.0)
    assert spot.item(-1) == pytest.approx(float(estimates[0]) + 5.0, rel=1e-12)

    # linear rate: RMSE * sqrt(m) stays flat as m grows
    n = 5
    truth = cl.LinearTruth(
        beta=np.full(n, 2.0 / math.sqrt(n)), beta0=5.0, sigma=0.5, alpha=10.0
    )
    ols = LearnerKind(LearnerFamily.OLS)
    scaled = {}
    for m in (2 * n, 4 * n, 16 * n):
        errors = np.empty(3000)
        for i in range(3000):
            xs = cl.sample_cases(cl.BallCases(n), m, rng, rng)
            ys = xs @ truth.beta + truth.beta0 + truth.sigma * rng.standard_normal(m)
            rows = augment(xs)
            coef = _fit_linear(ols, decompose(rows.T @ rows).pick(None), (rows.T @ ys)[None])[0]
            query = cl.sample_cases(cl.BallCases(n), 1, rng, rng)
            prediction = min(max(float(query[0] @ coef[:-1] + coef[-1]), 0.0), truth.alpha)
            errors[i] = prediction - (query[0] @ truth.beta + truth.beta0)
        scaled[m] = math.sqrt(float(np.mean(errors**2))) * math.sqrt(m)
    ratio = max(scaled.values()) / min(scaled.values())
    ols_ok = ratio < 3.0
    ok = mean_ok and ols_ok
    _report(
        6,
        "learner error bounds",
        ok,
        f"mean RMSE within 5% ({'; '.join(mean_details)}): {mean_ok}; "
        f"OLS rmse*sqrt(m) ratio {ratio:.2f} < 3: {ols_ok}",
    )
    assert ok


def test_criterion_7_kwik_individual_accuracy(tmp_path):
    """The gated policy predicts accurately and stops exploring."""
    n, epsilon, delta = 5, 0.25, 0.05
    beta = [0.35 / math.sqrt(n)] * n
    spec = parse_config(
        {
            "truth": {"family": "linear", "beta": beta, "beta0": 0.6, "sigma": 0.05, "alpha": 1.0},
            "cases": {"kind": "ball", "dim": n},
            "cost": {"kind": "point", "c": 1.0},
            "learner": {"kind": "norm_constrained"},
            "policies": [
                {
                    "name": "kwik",
                    "epsilon": epsilon,
                    "delta": delta,
                    "alpha1_constant": 15.0,
                }
            ],
            "sweep": [10_000, 20_000],
            "seed": 7,
            "out_dir": str(tmp_path),
        }
    )
    outputs = kwik_report(spec)
    lines = outputs["kwik"].read_text().splitlines()
    header = lines[0].split(",")
    rows = {int(r[0]): dict(zip(header, r)) for r in (line.split(",") for line in lines[1:])}

    fraction = float(rows[20_000]["fraction_predictions_within_eps"])
    accuracy_ok = fraction >= 1.0 - delta and int(rows[20_000]["predicted_count"]) > 0

    first_half = int(rows[10_000]["compelled_count"])
    growth = int(rows[20_000]["compelled_count"]) - first_half
    sublinear_ok = growth < 0.5 * first_half

    ok = accuracy_ok and sublinear_ok
    _report(
        7,
        "kwik individual accuracy",
        ok,
        f"fraction within eps {fraction:.4f} >= {1 - delta}: {accuracy_ok}; "
        f"second-half compels {growth} < 50% of first half ({first_half}): {sublinear_ok}",
    )
    assert ok


def _random_run_config(rng: np.random.Generator) -> cl.RunConfig:
    horizon = int(rng.integers(10, 61))
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    sigma = float(rng.uniform(0.0, 0.5 * alpha))
    cost_kind = rng.integers(0, 3)
    if cost_kind == 0:
        costs = cl.PointMassCosts(float(rng.uniform(0.2, 3.0)))
    elif cost_kind == 1:
        lo = float(rng.uniform(0.2, 2.0))
        costs = cl.UniformCosts(lo, lo + float(rng.uniform(0.0, 2.0)))
    else:
        costs = cl.FixedCosts(tuple(rng.uniform(0.2, 3.0, size=int(rng.integers(1, 6)))))

    if rng.random() < 0.5:
        truth = cl.ConstantTruth(mu=float(rng.uniform(0.0, alpha)), sigma=sigma, alpha=alpha)
        cases = cl.SingletonCases()
        learner = LearnerKind(LearnerFamily.EMPIRICAL_MEAN, err_constant=float(rng.uniform(0.5, 2.0)))
        policy_pool = ["no_subsidy", "etc", "dynamic"]
    else:
        n = int(rng.integers(1, 5))
        beta0 = float(rng.uniform(0.25, 0.5)) * alpha
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        norm = float(rng.uniform(0.0, min(beta0, alpha - beta0)))
        truth = cl.LinearTruth(beta=direction * norm, beta0=beta0, sigma=sigma, alpha=alpha)
        cases = cl.BallCases(n)
        family = LearnerFamily.OLS if rng.random() < 0.5 else LearnerFamily.NORM_CONSTRAINED
        learner = LearnerKind(family, err_constant=float(rng.uniform(0.5, 2.0)))
        policy_pool = ["no_subsidy", "etc", "dynamic", "kwik"]
    if alpha <= math.sqrt(costs.c_min):
        policy_pool.append("subsidy")

    name = policy_pool[int(rng.integers(0, len(policy_pool)))]
    if name == "no_subsidy":
        policy = cl.NoSubsidyConfig()
    elif name == "etc":
        policy = cl.EtcConfig()
    elif name == "dynamic":
        policy = cl.DynamicCompellingConfig()
    elif name == "kwik":
        policy = cl.KwikConfig(epsilon=0.25, delta=0.1, alpha1_constant=float(rng.uniform(1.0, 20.0)))
    else:
        policy = cl.SubsidySamplingConfig()
    return cl.RunConfig(
        horizon=horizon,
        truth=truth,
        cases=cases,
        costs=costs,
        learner=learner,
        policy=policy,
        seed=int(rng.integers(0, 2**31)),
    )


def test_criterion_8_determinism_and_accounting(tmp_path):
    """Same master seed, same bytes; ledgers satisfy the loss identity exactly."""
    base = {
        "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
        "cost": {"kind": "uniform", "c_min": 0.5, "c_max": 1.0},
        "learner": {"kind": "empirical_mean"},
        "policies": ["no_subsidy", {"name": "etc"}, {"name": "dynamic_compelling"}],
        "sweep": [100, 300],
        "replications": 10,
        "seed": 99,
    }
    first = run_experiment(parse_config({**base, "out_dir": str(tmp_path / "a")}))
    second = run_experiment(parse_config({**base, "out_dir": str(tmp_path / "b")}))
    bytes_ok = (
        first["regret"].read_bytes() == second["regret"].read_bytes()
        and first["slopes"].read_bytes() == second["slopes"].read_bytes()
    )

    rng = np.random.default_rng(808)
    accounting_ok = True
    for _ in range(100):
        config = _random_run_config(rng)
        ledger = cl.run(config)
        if recompute_total_loss(ledger) != ledger.total_loss:
            accounting_ok = False
        steps = ledger.steps
        if ledger.court_count != steps["went_to_court"].sum():
            accounting_ok = False
        # recompute with the same arithmetic form the simulator uses
        # (d * d, not d ** 2: float pow differs in the last ulp)
        diff = steps["applied_decision"] - steps["true_value"]
        if not np.array_equal(steps["squared_error"], diff * diff):
            accounting_ok = False
        court = np.where(steps["went_to_court"], steps["cost"], 0.0)
        if not np.array_equal(steps["court_cost_incurred"], court):
            accounting_ok = False

    ok = bytes_ok and accounting_ok
    _report(
        8,
        "determinism and accounting",
        ok,
        f"regret.csv byte-identical rerun: {bytes_ok}; "
        f"loss identity exact on 100 random configs: {accounting_ok}",
    )
    assert ok
