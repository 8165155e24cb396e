"""Online simulation loop, offline baseline, regret, and deterrent analytics.

Each step draws the case and its court cost, lets the configured policy
act, resolves the agent's settle-vs-litigate choice, and accounts the
squared decision error plus any court cost.  When a case goes to court the
revealed outcome is appended to the dataset and the court decides from the
updated fit; settled cases receive the prediction from past court data only.

Two paths compute a run, chosen from its config alone.  With an
``empirical_mean`` learner and a state-free policy (``no_subsidy``, ``etc``,
``dynamic_compelling``, ``subsidy_sampling``) the event engine draws the
policy's actions for the whole horizon up front and jumps from court visit
to court visit, since the learner's state changes only there.  Every other
run (linear learners, ``kwik``) goes case by case through the step loop,
which is also the reference the engine is tested against bit for bit.

The environment (cases, noise, costs) is pre-drawn from seed-derived streams
that are split per concern, so every policy faces the identical sequence for
a given (seed, replication) and the offline baseline can score the same
draws.  Shorter horizons consume a prefix of longer ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .core import (
    CaseFeatures,
    CaseSpec,
    ConfigurationError,
    ConstantTruth,
    CostModel,
    Dataset,
    GroundTruth,
    LinearTruth,
    Observation,
    RunLedger,
    SINGLETON_CASE,
    SingletonCases,
    canonical_digest,
    sample_cases,
)
from .learners import (
    LearnerFamily,
    LearnerKind,
    MeanRule,
    _fit_linear,
    fit,
    predict,
    predict_batch,
)
from .policies import (
    ActionKind,
    EtcConfig,
    KwikConfig,
    PolicyConfig,
    SubsidySamplingConfig,
    agent_decision,
    make_policy,
    subsidy_action,
)

__all__ = [
    "STEP_COLUMNS",
    "RunConfig",
    "Environment",
    "draw_environment",
    "run",
    "offline_baseline",
    "RegretReport",
    "estimate_regret",
    "DeterrentReport",
    "check_deterrent",
]

# Stream indices for per-concern RNG derivation.
_STREAM_CASE_DIRECTION = 0
_STREAM_CASE_RADIUS = 1
_STREAM_NOISE = 2
_STREAM_COST = 3
_STREAM_POLICY = 4

# Event engine: steps searched after each court visit (doubled while no visit
# is found).
_FIRST_WINDOW = 64

#: The ledger's per-step columns and their dtypes, in the order of the step
#: loop's per-step tuples.  ``RunLedger.steps`` holds one array per name.
STEP_COLUMNS = {
    "t": np.int64,
    "cost": np.float64,
    "subsidy": np.float64,
    "compelled": np.bool_,
    "went_to_court": np.bool_,
    "applied_decision": np.float64,
    "true_value": np.float64,
    "squared_error": np.float64,
    "court_cost_incurred": np.float64,
    "pre_step_err_bound": np.float64,
    "m_before": np.int64,
    "settlement_value": np.float64,
}


def _stream(seed: int, rep: int, stream: int, extra: int | None = None) -> np.random.Generator:
    entropy = [seed, rep, stream] if extra is None else [seed, rep, stream, extra]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulated run needs; validated eagerly."""

    horizon: int
    truth: GroundTruth
    cases: CaseSpec
    costs: CostModel
    learner: LearnerKind
    policy: PolicyConfig
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        case_dim = self.cases.dim
        if isinstance(self.truth, LinearTruth):
            if case_dim is None or case_dim != self.truth.dim:
                raise ConfigurationError(
                    f"linear truth of dimension {self.truth.dim} needs matching vector cases"
                )
        if self.learner.family is LearnerFamily.EMPIRICAL_MEAN:
            if not isinstance(self.truth, ConstantTruth):
                raise ConfigurationError("empirical_mean learner requires a constant truth")
        elif case_dim is None:
            raise ConfigurationError(f"{self.learner.family.value} learner requires vector cases")
        if isinstance(self.policy, EtcConfig) and self.policy.horizon != self.horizon:
            raise ConfigurationError(
                f"etc policy horizon {self.policy.horizon} does not match run horizon {self.horizon}"
            )
        if isinstance(self.policy, KwikConfig) and case_dim is None:
            raise ConfigurationError("kwik policy requires vector cases")
        if isinstance(self.policy, SubsidySamplingConfig):
            if self.policy.c_min > self.costs.c_min or self.policy.c_max < self.costs.c_max:
                raise ConfigurationError(
                    "subsidy policy cost range must cover the cost model range"
                )

    def canonical(self) -> dict:
        """JSON-serializable description; the basis for the config digest."""
        truth: dict
        if isinstance(self.truth, ConstantTruth):
            truth = {"family": "constant", "mu": self.truth.mu}
        else:
            truth = {
                "family": "linear",
                "beta": [float(b) for b in self.truth.beta],
                "beta0": self.truth.beta0,
            }
        truth.update(sigma=self.truth.sigma, alpha=self.truth.alpha)
        cases = (
            {"kind": "singleton"}
            if isinstance(self.cases, SingletonCases)
            else {"kind": "ball", "dim": self.cases.dim}
        )
        costs = {"kind": type(self.costs).__name__, **_public_fields(self.costs)}
        learner = {
            "kind": self.learner.family.value,
            "err_constant": self.learner.err_constant,
            "radius": self.learner.radius,
        }
        policy = {"name": self.policy.name, **_public_fields(self.policy)}
        return {
            "horizon": self.horizon,
            "truth": truth,
            "cases": cases,
            "costs": costs,
            "learner": learner,
            "policy": policy,
            "seed": self.seed,
        }

    def digest(self) -> str:
        return canonical_digest(self.canonical())


def _public_fields(obj) -> dict:
    out = {}
    for field in fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, tuple):
            value = list(value)
        out[field.name] = value
    return out


@dataclass
class Environment:
    """One fully materialized draw of cases, outcomes, and costs.

    ``outcomes`` holds the would-be court information for every step, settled
    or not; the online run only ever reads the entries of litigated steps,
    while the offline baseline scores them all.
    """

    xs: np.ndarray | None
    f_values: np.ndarray
    outcomes: np.ndarray
    costs: np.ndarray


def draw_environment(config: RunConfig, rep: int = 0) -> Environment:
    T = config.horizon
    seed = config.seed
    xs = sample_cases(
        config.cases,
        T,
        _stream(seed, rep, _STREAM_CASE_DIRECTION),
        _stream(seed, rep, _STREAM_CASE_RADIUS),
    )
    truth = config.truth
    if isinstance(truth, ConstantTruth):
        f_values = np.full(T, truth.mu)
    else:
        f_values = xs @ truth.beta + truth.beta0
    noises = truth.sigma * _stream(seed, rep, _STREAM_NOISE).standard_normal(T)
    costs = config.costs.sample(T, _stream(seed, rep, _STREAM_COST))
    return Environment(xs, f_values, f_values + noises, costs)


def run(config: RunConfig, rep: int = 0, keep_records: bool = True) -> RunLedger:
    """Execute one online run and return its ledger.

    ``keep_records=False`` leaves ``ledger.steps`` empty (the totals are
    still exact); use it when aggregating many replications.
    """
    return _simulate(config, draw_environment(config, rep), rep, keep_records=keep_records)


def _simulate(config: RunConfig, env: Environment, rep: int, keep_records: bool) -> RunLedger:
    """One replication: the event engine when the config allows it, else the step loop."""
    if config.learner.family is LearnerFamily.EMPIRICAL_MEAN and config.policy.state_free:
        return _event_engine(config, env, rep, keep_records)
    return _step_loop(config, env, rep, keep_records)


def _step_loop(config: RunConfig, env: Environment, rep: int, keep_records: bool) -> RunLedger:
    """Reference path: one case at a time, for every learner and policy."""
    T = config.horizon
    truth = config.truth
    alpha = truth.alpha
    sigma = truth.sigma
    kind = config.learner
    case_dim = config.cases.dim
    policy = make_policy(config.policy, case_dim)
    policy_rng = _stream(config.seed, rep, _STREAM_POLICY, config.policy.tag)

    data = Dataset(case_dim)
    rule = fit(kind, data)
    mean_learner = kind.family is LearnerFamily.EMPIRICAL_MEAN
    # Prediction of the current rule; for mean rules a cached constant.
    rule_value = min(max(rule.mean, 0.0), alpha) if mean_learner else None

    costs = env.costs.tolist()
    f_values = env.f_values.tolist()
    outcomes = env.outcomes.tolist()
    xs = env.xs

    err_scale = kind.err_constant * sigma * (1.0 if mean_learner else math.sqrt(case_dim + 1))
    cost_floor = config.costs.c_min
    # Closed-form skip of the all-settle tail: sound only when the policy is
    # permanently inactive, no cost can clear the litigation threshold, and
    # the prediction no longer depends on the case.
    fast_candidate = (
        not keep_records and mean_learner and isinstance(truth, ConstantTruth)
    )

    rows: list[tuple] = []
    total_loss = 0.0
    court_count = 0
    subsidy_paid = 0.0
    err_before = alpha  # err bound with the current dataset; alpha while empty

    compel_kind = ActionKind.COMPEL
    subsidy_kind = ActionKind.SUBSIDY

    for t in range(1, T + 1):
        if fast_candidate and 2.0 * err_before < cost_floor and policy.inactive_from(t):
            total_loss += (T - t + 1) * (rule_value - truth.mu) ** 2
            break
        i = t - 1
        cost = costs[i]
        if xs is None:
            case = SINGLETON_CASE
        else:
            case = CaseFeatures(xs[i])
        pre_err = err_before
        action = policy.select(t, case, pre_err, policy_rng)
        action_kind = action.kind
        if action_kind is compel_kind:
            compelled = True
            offered = 0.0
            litigates = True
        elif action_kind is subsidy_kind:
            compelled = False
            offered = action.subsidy
            litigates = agent_decision(cost, offered, pre_err)
        else:
            compelled = False
            offered = 0.0
            litigates = agent_decision(cost, 0.0, pre_err)

        if mean_learner:
            settlement = rule_value
        else:
            settlement = predict(rule, case, alpha)

        m_before = court_count
        if litigates:
            data.append(Observation(case, outcomes[i]))
            rule = fit(kind, data)
            if mean_learner:
                rule_value = min(max(rule.mean, 0.0), alpha)
                applied = rule_value
            else:
                applied = predict(rule, case, alpha)
            policy.record_court(case)
            court_count += 1
            subsidy_paid += offered
            court_cost = cost
            err_before = min(alpha, err_scale / math.sqrt(court_count))
        else:
            applied = settlement
            court_cost = 0.0

        diff = applied - f_values[i]
        squared_error = diff * diff
        total_loss += squared_error + court_cost

        if keep_records:
            rows.append(
                (t, cost, offered, compelled, litigates, applied, f_values[i],
                 squared_error, court_cost, pre_err, m_before, settlement)
            )

    return RunLedger(
        steps=_step_columns(dict(zip(STEP_COLUMNS, zip(*rows)))) if keep_records else {},
        total_loss=total_loss,
        court_count=court_count,
        total_subsidy_paid=subsidy_paid,
        seed=config.seed,
        config_digest=config.digest(),
    )


def _event_engine(config: RunConfig, env: Environment, rep: int, keep_records: bool) -> RunLedger:
    """Mean learner under a state-free policy: jump from court visit to court visit.

    Between visits the learner's state (court count, outcome sum) and hence
    the error bound are frozen, so the next visit is found by a vectorized
    litigation test over a window that doubles while it finds none.  Every
    float is produced by the same operations, in the same order, as in
    ``_step_loop``, so ledgers and totals are bit for bit the same.
    """
    T = config.horizon
    alpha = config.truth.alpha
    mu = config.truth.mu
    policy = make_policy(config.policy, config.cases.dim)
    compel, bases = policy.horizon_actions(
        T, _stream(config.seed, rep, _STREAM_POLICY, config.policy.tag)
    )
    if bases is not None and np.isinf(bases).any():
        subsidy_action(math.inf)  # an infinite offer fails SelectionAction's check
    costs = env.costs
    err_scale = config.learner.err_constant * config.truth.sigma
    cost_floor = config.costs.c_min

    # Per court count m: the prediction and the error bound after m visits.
    rule_values = [0.0]
    errs = [alpha]
    visits: list[int] = []
    sum_y = 0.0
    subsidy_paid = 0.0
    tail_loss = 0.0
    end = T  # steps played out one by one; the closed-form tail covers the rest
    s = 0
    window = _FIRST_WINDOW
    while s < T:
        two_err = 2.0 * errs[-1]
        # The step loop's closed-form tail skip, at the same step: err is frozen
        # until the next visit, and a policy that goes inactive (etc) compels
        # every step before, so the loop's first firing step is a window start.
        if not keep_records and two_err < cost_floor and policy.inactive_from(s + 1):
            tail_loss = (T - s) * (rule_values[-1] - mu) ** 2
            end = s
            break
        stop = min(T, s + window)
        if bases is None:
            litigates = costs[s:stop] <= two_err  # cost - 0.0 is cost
        else:
            litigates = costs[s:stop] - _offers(bases[s:stop], two_err) <= two_err
        if compel is not None:
            litigates |= compel[s:stop]
        hit = int(litigates.argmax())
        if not litigates[hit]:
            s = stop
            window *= 2
            continue
        v = s + hit
        if bases is not None:
            subsidy_paid += max(0.0, bases.item(v) - two_err)
        visits.append(v)
        m = len(visits)
        sum_y += env.outcomes.item(v)
        rule_values.append(min(max(sum_y / m, 0.0), alpha))
        errs.append(min(alpha, err_scale / math.sqrt(m)))
        s = v + 1
        window = _FIRST_WINDOW

    went = np.zeros(end, dtype=bool)
    went[visits] = True
    m_after = np.cumsum(went)
    predictions = np.array(rule_values)
    diff = predictions[m_after] - env.f_values[:end]
    squared = diff * diff
    terms = squared + np.where(went, costs[:end], 0.0)
    total_loss = np.cumsum(terms).item(-1) if end else 0.0
    total_loss += tail_loss

    steps = {}
    if keep_records:  # the tail skip is off, so end == T
        m_before = m_after - went
        pre_errs = np.array(errs)[m_before]
        steps = _step_columns(
            {
                "t": np.arange(1, end + 1),
                "cost": costs,
                "subsidy": np.zeros(end) if bases is None else _offers(bases, 2.0 * pre_errs),
                "compelled": np.zeros(end, dtype=bool) if compel is None else compel,
                "went_to_court": went,
                "applied_decision": predictions[m_after],
                "true_value": env.f_values,
                "squared_error": squared,
                "court_cost_incurred": np.where(went, costs, 0.0),
                "pre_step_err_bound": pre_errs,
                "m_before": m_before,
                "settlement_value": predictions[m_before],
            }
        )
    return RunLedger(
        steps=steps,
        total_loss=total_loss,
        court_count=len(visits),
        total_subsidy_paid=subsidy_paid,
        seed=config.seed,
        config_digest=config.digest(),
    )


def _step_columns(columns: dict) -> dict[str, np.ndarray]:
    """``STEP_COLUMNS``, in order and dtype, from a mapping of name to values."""
    return {name: np.asarray(columns[name], dtype=dtype) for name, dtype in STEP_COLUMNS.items()}


def _offers(bases: np.ndarray, two_err) -> np.ndarray:
    """``max(0.0, base - two_err)`` per step, as ``sample_subsidy`` computes it."""
    shifted = bases - two_err
    return np.where(shifted > 0.0, shifted, 0.0)


def offline_baseline(env: Environment, kind: LearnerKind, alpha: float) -> float:
    """Loss floor: fit once on the full environment draw, sum squared errors.

    The baseline learner sees every (case, outcome) pair regardless of what
    the online run litigated; it pays no court costs and offers no subsidies.
    """
    count = env.outcomes.shape[0]
    if kind.family is LearnerFamily.EMPIRICAL_MEAN:
        rule = MeanRule(float(env.outcomes.mean()), count)
        predictions = predict_batch(rule, None, count, alpha)
    else:
        if env.xs is None:
            raise ConfigurationError(f"{kind.family.value} baseline requires vector cases")
        augmented = np.hstack([env.xs, np.ones((count, 1))])
        rule = _fit_linear(kind, augmented.T @ augmented, augmented.T @ env.outcomes, count)
        predictions = predict_batch(rule, env.xs, count, alpha)
    residual = predictions - env.f_values
    return float(residual @ residual)


@dataclass(frozen=True)
class RegretReport:
    """Cross-replication regret summary for one (config, horizon) cell."""

    mean_regret: float
    std_error: float
    replications: int
    mean_online_loss: float
    mean_offline_loss: float
    mean_court_count: float
    mean_total_subsidy: float


def estimate_regret(
    config: RunConfig,
    replications: int,
    ledger_sink: Callable[[int, RunLedger], None] | None = None,
) -> RegretReport:
    """Average per-case regret over independent replications.

    Each replication pairs the online run with an offline baseline scored on
    the same environment draw.  ``ledger_sink``, when given, receives each
    replication's full ledger (step columns included) as soon as it ends.
    """
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    T = config.horizon
    regrets = np.empty(replications)
    online = np.empty(replications)
    offline = np.empty(replications)
    courts = np.empty(replications)
    subsidies = np.empty(replications)
    for rep in range(replications):
        env = draw_environment(config, rep)
        ledger = _simulate(config, env, rep, keep_records=ledger_sink is not None)
        baseline = offline_baseline(env, config.learner, config.truth.alpha)
        regrets[rep] = (ledger.total_loss - baseline) / T
        online[rep] = ledger.total_loss
        offline[rep] = baseline
        courts[rep] = ledger.court_count
        subsidies[rep] = ledger.total_subsidy_paid
        if ledger_sink is not None:
            ledger_sink(rep, ledger)
    std_error = float(regrets.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    return RegretReport(
        mean_regret=float(regrets.mean()),
        std_error=std_error,
        replications=replications,
        mean_online_loss=float(online.mean()),
        mean_offline_loss=float(offline.mean()),
        mean_court_count=float(courts.mean()),
        mean_total_subsidy=float(subsidies.mean()),
    )


@dataclass(frozen=True)
class DeterrentReport:
    """Per-step estimate of the law-breaking payoff s - c - settlement.

    The mechanism deters violations when every per-step mean is nonpositive;
    ``satisfied`` allows the worst step up to three standard errors of slack.
    """

    per_step_estimates: list[tuple[int, float]]
    per_step_std_errors: np.ndarray
    per_step_mean_subsidy: np.ndarray
    per_step_subsidy_std_errors: np.ndarray
    max_violation: float
    max_violation_std_error: float
    satisfied: bool
    replications: int


def check_deterrent(config: RunConfig, replications: int) -> DeterrentReport:
    """Estimate the violation payoff per step across replications."""
    if replications < 2:
        raise ConfigurationError("deterrent check needs at least 2 replications")
    T = config.horizon
    sum_v = np.zeros(T)
    sumsq_v = np.zeros(T)
    sum_s = np.zeros(T)
    sumsq_s = np.zeros(T)
    for rep in range(replications):
        env = draw_environment(config, rep)
        ledger = _simulate(config, env, rep, keep_records=True)
        subsidy = ledger.steps["subsidy"]
        v = subsidy - env.costs - ledger.steps["settlement_value"]
        sum_v += v
        sumsq_v += v * v
        sum_s += subsidy
        sumsq_s += subsidy * subsidy

    def _mean_se(total: np.ndarray, total_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = total / replications
        var = (total_sq - replications * mean * mean) / (replications - 1)
        return mean, np.sqrt(np.clip(var, 0.0, None) / replications)

    mean_v, se_v = _mean_se(sum_v, sumsq_v)
    mean_s, se_s = _mean_se(sum_s, sumsq_s)
    worst = int(np.argmax(mean_v))
    max_violation = float(mean_v[worst])
    max_violation_se = float(se_v[worst])
    return DeterrentReport(
        per_step_estimates=[(t + 1, float(mean_v[t])) for t in range(T)],
        per_step_std_errors=se_v,
        per_step_mean_subsidy=mean_s,
        per_step_subsidy_std_errors=se_s,
        max_violation=max_violation,
        max_violation_std_error=max_violation_se,
        satisfied=max_violation <= 3.0 * max_violation_se,
        replications=replications,
    )
