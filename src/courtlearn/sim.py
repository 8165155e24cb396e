"""Online simulation, offline baseline, regret, and deterrent analytics.

Each step draws the case and its court cost, applies the configured policy's
action, resolves the agent's settle-vs-litigate choice, and accounts the
squared decision error plus any court cost.  When a case goes to court the
revealed outcome is appended to the dataset and the court decides from the
updated fit; settled cases receive the prediction from past court data only.

The learner changes only when a case goes to court, so one driver computes
every run by jumping from court visit to court visit.  A state-free policy
(``no_subsidy``, ``etc``, ``dynamic_compelling``, ``subsidy_sampling``) draws
its actions for the whole horizon up front, and the next visit is found by a
vectorized litigation test; the ``kwik`` gate scans the raw case rows one at
a time on the frozen spectrum.  After the last visit the predictions and the
loss are built from each segment's frozen rule.  The run's ``Dataset`` holds
its only Gram matrix and one cached eigendecomposition of it, shared by the
linear fit and the kwik gate: one ``eigh`` per court visit at most, plus one
when the kwik gate meets the empty dataset.

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

# The agent's rule is called as ``policies.agent_decision``, on arrays too;
# ``bench/child.py`` would wrap a ``sim.agent_decision`` as a scalar hook.
from . import policies
from .core import (
    CaseSpec,
    ConfigurationError,
    ConstantTruth,
    CostModel,
    Dataset,
    GroundTruth,
    LinearTruth,
    RunLedger,
    SingletonCases,
    augment,
    canonical_digest,
    check_unit_ball,
    decompose,
    sample_cases,
)
from .learners import (
    LearnerFamily,
    LearnerKind,
    MeanRule,
    _fit_linear,
    err_bound,
    fit,
    predict_batch,
)
from .policies import (
    EtcConfig,
    KwikConfig,
    KwikPolicy,
    PolicyConfig,
    SubsidySamplingConfig,
    subsidy_tail_probability,
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

# RunConfig refuses a run whose worst-case total could exceed this.  The
# headroom below the float maximum (about 1.8e8) keeps sums of such totals
# over replications finite as well.
_TOTAL_LIMIT = 1e300

# Steps searched for the next court visit of a state-free policy (doubled
# while no visit is found).
_FIRST_WINDOW = 64

#: The ledger's per-step columns and their dtypes.  ``RunLedger.steps`` holds
#: one array per name, in this order.
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
            # The scaled distribution must already be a probability measure at
            # t = 1, the worst step; fail fast instead of mid-run.  The early
            # phase exists exactly when alpha > sqrt(c_min); its length,
            # ``transition_step``, may overflow for a config refused here.
            phase1 = self.policy.alpha / math.sqrt(self.policy.c_min) > 1.0
            subsidy_tail_probability(1, self.policy.c_min, self.policy.alpha, phase1)
        # A step's squared error, court fee, subsidy and deterrent payoff each
        # stay within w, so a run's sums stay within T * w, and a regret's
        # squared deviation from the mean within (2 * w)^2.
        alpha, c_max = self.truth.alpha, self.costs.c_max
        w = alpha * alpha + alpha + 2.0 * c_max
        worst = max(self.horizon * w, 4.0 * w * w)
        if not worst <= _TOTAL_LIMIT:
            raise ConfigurationError(
                f"worst-case total max(T * w, (2 * w)^2) = {worst:.3g} with"
                f" w = alpha^2 + alpha + 2 * c_max exceeds {_TOTAL_LIMIT:g}"
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
    if xs is not None:
        check_unit_ball(xs)
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
    """One replication, from court visit to court visit (see the module docstring).

    Every float is produced by the same operations, in the same order, as in
    the case-by-case loop of ``tests/oracle.py``, so ledgers and totals are
    bit for bit the same.
    """
    T = config.horizon
    alpha = config.truth.alpha
    kind = config.learner
    linear = kind.is_linear
    policy = config.policy
    state_free = policy.state_free
    data = Dataset(config.cases.dim)
    if state_free:
        compel, bases = policy.horizon_actions(
            T, _stream(config.seed, rep, _STREAM_POLICY, policy.tag)
        )
    else:  # kwik marks the gate's verdicts as its scan finds them
        compels, compel, bases = KwikPolicy(policy, data).compels, np.zeros(T, dtype=bool), None
    # Only the linear fit and the kwik gate read the court rows.
    keep_rows = linear or not state_free
    # The closed-form tail needs a case-free prediction (mean learners only)
    # and a policy that can go idle for good (a state-free one).
    skip_tail = state_free and not keep_records and not linear
    costs = env.costs
    xs = env.xs
    cost_floor = config.costs.c_min

    # Per court count m: the rule (a clipped mean, or the linear coefficients
    # with the offset last) and the error bound after m visits.
    rule = fit(kind, data)
    rules = [rule.coef] if linear else [min(max(rule.mean, 0.0), alpha)]
    errs = [alpha]
    visits: list[int] = []
    sum_y = subsidy_paid = tail_loss = 0.0
    end = T  # steps played out one by one; the closed-form tail covers the rest
    s = 0
    window = _FIRST_WINDOW
    while s < T:
        err = errs[-1]
        two_err = 2.0 * err
        # A case-by-case loop's first tail-skip step is a window start: err is
        # frozen until the next visit, and a policy that goes inactive (etc)
        # compels every step before.
        if skip_tail and two_err < cost_floor and policy.inactive_from(s + 1):
            tail_loss = (T - s) * (rules[-1] - config.truth.mu) ** 2
            end = s
            break
        if state_free:
            stop = min(T, s + window)
            offers = 0.0 if bases is None else _offers(bases[s:stop], two_err)
            litigates = policies.agent_decision(costs[s:stop], offers, err)
            if compel is not None:
                litigates |= compel[s:stop]
            hit = int(litigates.argmax())
            if not litigates[hit]:
                s = stop
                window *= 2
                continue
            v = s + hit
            window = _FIRST_WINDOW
            if bases is not None:
                subsidy_paid += max(0.0, bases.item(v) - two_err)
        else:
            for v in range(s, T):
                if compels(xs[v]):
                    compel[v] = True
                    break
                if policies.agent_decision(costs.item(v), 0.0, err):
                    break
            else:
                break  # no visit before the horizon
        visits.append(v)
        m = len(visits)
        outcome = env.outcomes.item(v)
        if keep_rows:
            data.append_row(augment(xs[v]), outcome)
        if linear:
            rules.append(fit(kind, data).coef)
        else:
            sum_y += outcome
            rules.append(min(max(sum_y / m, 0.0), alpha))
        errs.append(err_bound(kind, m, config.truth.sigma, alpha, data.dim))
        s = v + 1

    went = np.zeros(end, dtype=bool)
    went[visits] = True
    m_after = np.cumsum(went)
    if linear:
        # One dot per row under the rule of its segment, as the reference loop predicts.
        raw = np.empty(end)
        for coef, lo, hi in zip(rules, [0, *visits], [*visits, end]):
            w, b = coef[:-1], coef[-1]
            raw[lo:hi] = [w @ x + b for x in xs[lo:hi]]
        applied = _clip(raw, alpha)
    else:
        applied = np.array(rules)[m_after]
    diff = applied - env.f_values[:end]
    squared = np.multiply(diff, diff, out=diff)  # in place: one T-length array fewer
    terms = squared + np.where(went, costs[:end], 0.0)
    total_loss = (np.cumsum(terms).item(-1) if end else 0.0) + tail_loss

    steps = {}
    if keep_records:  # the tail skip is off, so end == T
        m_before = m_after - went
        pre_errs = np.array(errs)[m_before]
        if linear:
            settlement = applied.copy()
            settlement[visits] = _clip(np.array([c[:-1] @ xs[v] + c[-1] for c, v in zip(rules, visits)]), alpha)
        else:
            settlement = np.array(rules)[m_before]
        steps = _step_columns(
            {
                "t": np.arange(1, end + 1),
                "cost": costs,
                "subsidy": np.zeros(end) if bases is None else _offers(bases, 2.0 * pre_errs),
                "compelled": np.zeros(end, dtype=bool) if compel is None else compel,
                "went_to_court": went,
                "applied_decision": applied,
                "true_value": env.f_values,
                "squared_error": squared,
                "court_cost_incurred": np.where(went, costs, 0.0),
                "pre_step_err_bound": pre_errs,
                "m_before": m_before,
                "settlement_value": settlement,
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


def _clip(raw: np.ndarray, alpha: float) -> np.ndarray:
    """``raw`` clipped into [0, alpha] by the reference loop's two comparisons."""
    return np.where(raw < 0.0, 0.0, np.where(raw > alpha, alpha, raw))


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
        rule = _fit_linear(kind, decompose(augmented.T @ augmented), augmented.T @ env.outcomes, count)
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
