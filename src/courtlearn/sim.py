"""Online simulation, offline baseline, regret, and deterrent analytics.

Each step draws the case and its court cost, applies the configured policy's
action, resolves the agent's settle-vs-litigate choice, and accounts the
squared decision error plus any court cost.  When a case goes to court the
revealed outcome is appended to the court data and the court decides from the
updated fit; settled cases receive the prediction from past court data only.

The learner changes only when a case goes to court, so one driver computes
every run in two phases.  The search finds the court visits: it needs only
the error bound, which depends on the visit count alone, and for ``kwik``
the spectrum of the courted Gram matrix, never a fitted rule.  A state-free
policy (``no_subsidy``, ``etc``, ``dynamic_compelling``,
``subsidy_sampling``) draws its actions for the whole horizon up front, as
(compel mask, subsidy bases, active) with ``active`` the number of leading
steps on which it may act.  Both searches guess, then verify, a window of
up to ``_LAST_WINDOW`` steps per round, and return only the court visits.
The state-free search (``_state_free_visits``) decides a window at the
current visit count, decides each step after the first guessed visit again
at the count the guess implies, and keeps the steps up to the first
disagreement, which is exact too.  The ``kwik`` search (``_kwik_visits``)
gates rows on the spectrum frozen since the last visit, decomposes the Gram
prefixes of the guessed visits in one stacked ``eigh``, and decides each
later row again on the prefix its guessed count implies.  The fit then
computes the rule after each visit: a linear one in stacked passes of
``_FLUSH`` visits, a mean one by one ``np.cumsum``.  Last, the scoring pass
derives the rest from the visits and one error-bound table by court count:
the subsidy paid, the start of the closed-form tail, and each row's rule,
gathered by its visit count, for the predictions and the loss.

The environment (cases, noise, costs) is pre-drawn from seed-derived streams
that are split per concern, so every policy faces the identical sequence for
a given (seed, replication) and the offline baseline can score the same
draws.  Shorter horizons consume a prefix of longer ones.  So the sweep
driver (``_sweep``) puts the replications on the outer loop: it draws each
replication's environment once, at the sweep's longest horizon, scores the
offline baseline once per horizon on the prefix, and runs every cell on its
horizon's prefix.  It is the only loop over replications: every caller,
``estimate_regret`` and ``check_deterrent`` included, runs through it.
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
    GroundTruth,
    LinearTruth,
    RunLedger,
    Spectrum,
    augment,
    canonical_digest,
    decompose,
    sample_cases,
)
from .learners import LearnerFamily, LearnerKind, _fit_linear, err_bound
from .policies import KwikConfig, PolicyConfig, SubsidySamplingConfig, subsidy_tail_probability

__all__ = [
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

# Steps in a visit search's first window, and in its window after a reset.
_FIRST_WINDOW = 64
# A visit search's window stops doubling here: it bounds the search arrays,
# (window, dim + 1) rows for the kwik gate.
_LAST_WINDOW = 4096
# Court visits fitted in one stacked pass, and the most guessed kwik visits decomposed at once.
_FLUSH = 256
# Rows per stacked prediction product.
_PREDICT_CHUNK = 1024

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
        if self.horizon > 2**53:  # dynamic_compelling computes its step numbers in float64
            raise ConfigurationError(
                f"horizon must be <= 2**53, up to which float64 step numbers are exact, got {self.horizon}"
            )
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
        if isinstance(self.policy, KwikConfig):
            if case_dim is None:
                raise ConfigurationError("kwik policy requires vector cases")
            self.policy.thresholds(case_dim)  # refuses an undefined default alpha1
        if isinstance(self.policy, SubsidySamplingConfig):
            # The scaled distribution must already be a probability measure at
            # t = 1, the worst step; fail fast instead of mid-run.  The early
            # phase exists exactly when alpha > sqrt(c_min); its length,
            # ``policies.transition_step``, may overflow for a run refused here.
            alpha, c_min = self.truth.alpha, self.costs.c_min
            # An overflow here means a probability above 1, which is refused anyway.
            with np.errstate(over="ignore"):
                subsidy_tail_probability(1, c_min, alpha, alpha / math.sqrt(c_min) > 1.0)
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
        truth = {"family": self.truth.family, **_public_fields(self.truth)}
        cases = {"kind": self.cases.kind, **_public_fields(self.cases)}
        # The pinned config digests name a cost model by its class, not its config-file kind.
        costs = {"kind": type(self.costs).__name__, **_public_fields(self.costs)}
        learner = {
            "kind": self.learner.family.value,
            "err_constant": self.learner.err_constant,
            "radius": self.learner.radius,
        }
        run_values = {
            "horizon": self.horizon,
            "alpha": self.truth.alpha,
            "c_min": self.costs.c_min,
            "c_max": self.costs.c_max,
        }
        policy = {
            "name": self.policy.name,
            **_public_fields(self.policy),
            **{name: run_values[name] for name in self.policy.run_fields},
        }
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
        if isinstance(value, (tuple, np.ndarray)):
            value = [float(v) for v in value]
        out[field.name] = value
    return out


@dataclass
class Environment:
    """One full draw of cases, outcomes, and costs.

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
    """One replication: draw the actions, search for the court visits, fit after each, then score.

    Scoring derives the subsidy paid, the closed-form tail's start and the
    records' ``pre_step_err_bound`` from the visits and one error-bound table.
    Every float is produced by the same operations, in the same order, as in
    the case-by-case loop of ``tests/oracle.py``, so ledgers and totals are
    bit for bit the same.
    """
    T = config.horizon
    alpha = config.truth.alpha
    kind = config.learner
    linear = kind.is_linear
    policy = config.policy
    dim = config.cases.dim
    costs = env.costs
    xs = env.xs
    fits = _LinearFits(kind, xs, env.outcomes) if linear else None

    def bound(m: np.ndarray) -> np.ndarray:
        return err_bound(kind, m, config.truth.sigma, alpha, dim)

    if isinstance(policy, KwikConfig):
        compel, bases, tail_from = np.zeros(T, dtype=bool), None, T
        visits = _kwik_visits(xs, costs, policy.thresholds(dim), bound, compel, fits)
    else:
        compel, bases, active = policy.horizon_actions(
            config, _stream(config.seed, rep, _STREAM_POLICY, policy.tag)
        )
        # The closed-form tail needs a case-free prediction (mean learners only).
        tail_from = T if keep_records or linear else active
        visits = _state_free_visits(costs, config.costs.c_min, compel, bases, bound, tail_from)
        if linear:  # flushed as if added one visit at a time
            for lo in range(0, len(visits), _FLUSH):
                fits.add(visits[lo : lo + _FLUSH])

    errs = bound(np.arange(len(visits) + 1))  # the error bound by court count
    subsidy_paid = 0.0
    if bases is not None and visits:  # np.cumsum adds in visit order, as a sequential loop would
        subsidy_paid = np.cumsum(_offers(bases[visits], 2.0 * errs[:-1])).item(-1)
    end = T
    if 2.0 * errs.item(-1) < config.costs.c_min:  # no visit can follow the last past tail_from
        end = min(max(visits[-1] + 1 if visits else 0, tail_from), T)
    went = np.zeros(end, dtype=bool)
    went[visits] = True
    m_after = np.cumsum(went)
    tail_loss = 0.0
    if linear:
        coefs = fits.coefs()
        applied = _clip(_predict(xs, coefs, m_after), alpha)
    else:
        rules = _mean_rules(env.outcomes[visits], alpha)
        applied = rules[m_after]
        # The closed-form tail: steps end .. T - 1 all settle on the last rule.
        tail_loss = (T - end) * (rules.item(-1) - config.truth.mu) ** 2
    diff = applied - env.f_values[:end]
    squared = np.multiply(diff, diff, out=diff)  # in place: one T-length array fewer
    terms = squared + np.where(went, costs[:end], 0.0)
    total_loss = (np.cumsum(terms).item(-1) if end else 0.0) + tail_loss

    steps = {}
    if keep_records:  # the tail skip is off, so end == T
        m_before = m_after - went
        pre_errs = errs[m_before]
        if linear:
            settlement = applied.copy()
            settlement[visits] = _clip(_predict(xs[visits], coefs, np.arange(len(visits))), alpha)
        else:
            settlement = rules[m_before]
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


def _state_free_visits(
    costs: np.ndarray, c_min: float, compel: np.ndarray | None, bases: np.ndarray | None,
    bound: Callable, tail_from: int,
) -> list[int]:
    """The court visits of a state-free run.

    Each round guesses, then verifies.  It decides a window of steps from
    the current step at the current count m; the steps up to the first
    guessed visit are exact.  Each later step is decided again, with the
    same elementwise expressions, at the count the guess implies (m plus
    the guessed visits before it).  The steps before the first disagreement
    are kept, and so is the disagreement itself: the count before it is
    exact, so its re-decision is the true one.  The window doubles, up to
    ``_LAST_WINDOW``, after a round that keeps it whole, and falls back to
    ``_FIRST_WINDOW`` after a disagreement.

    The search stops at a round start from step index ``tail_from`` on once
    2 * err < c_min: the policy is idle there and no cost clears the agent's
    test, so no visit can follow.
    """
    T = costs.shape[0]

    def decide(lo: int, hi: int, err) -> np.ndarray:
        offers = 0.0 if bases is None else _offers(bases[lo:hi], 2.0 * err)
        went = policies.agent_decision(costs[lo:hi], offers, err)
        if compel is not None:
            went |= compel[lo:hi]
        return went

    visits: list[int] = []
    errs = bound(np.arange(_FIRST_WINDOW))
    s, window = 0, _FIRST_WINDOW
    while s < T:
        m = len(visits)
        err = errs.item(m)
        if s >= tail_from and 2.0 * err < c_min:
            break
        stop = min(T, s + window)
        guess = decide(s, stop, err)
        guessed = np.flatnonzero(guess)
        if not guessed.size:
            s, window = stop, min(2 * window, _LAST_WINDOW)
            continue
        first = guessed.item(0)
        errs = _err_table(bound, errs, m + len(guessed) + 1)
        # If the guess holds, steps s + first + 1 .. stop - 1 follow m + 1 .. m + len(guessed) visits.
        went = decide(s + first + 1, stop, errs[m + np.cumsum(guess[first:-1])])
        differ = np.flatnonzero(went != guess[first + 1 :])
        if differ.size:
            kept, window = differ.item(0) + 1, _FIRST_WINDOW
        else:
            kept, window = len(went), min(2 * window, _LAST_WINDOW)
        visits.append(s + first)
        visits.extend((s + first + 1 + np.flatnonzero(went[:kept])).tolist())
        s += first + 1 + kept
    return visits


def _mean_rules(ys: np.ndarray, alpha: float) -> np.ndarray:
    """The clipped mean of the first k outcomes, k = 0, 1, ...: each sum is the running
    ``sum_y += y``'s, bit for bit, as the leading 0.0 makes the first ``0.0 + y``."""
    return _clip(np.cumsum(np.append(0.0, ys)) / np.maximum(np.arange(len(ys) + 1), 1), alpha)


def _err_table(bound: Callable, errs: np.ndarray, m: int) -> np.ndarray:
    """``errs``, the error bound by court count, extended (doubling) to cover count ``m``."""
    return errs if m < len(errs) else bound(np.arange(2 * m + 1))


def _kwik_visits(
    xs: np.ndarray,
    costs: np.ndarray,
    thresholds: tuple[float, float],
    bound: Callable,
    compel: np.ndarray,
    fits: _LinearFits | None,
) -> list[int]:
    """The court visits of a kwik run; ``compel`` is set where the gate fired.

    Each round guesses, then verifies.  It gates a window of rows from the
    current step on the spectrum frozen since the last visit, at the current
    error bound; the rows up to the first guessed visit are exact.  The Gram
    prefixes of the first k guessed visits (``np.cumsum`` from the current
    Gram matrix) get one stacked ``eigh``, and each later row is decided
    again on the prefix its guessed count c implies, against the bound after
    c visits.  The rows before the first disagreement are kept.  At it the
    state is exact, so a guessed visit that settles is decided too, while a
    guessed settle that visits is left to the next round.  k doubles, up to
    ``_FLUSH``, after k guessed visits are all kept, and falls back to 1 after
    a disagreement; the window doubles, up to ``_LAST_WINDOW``, while nothing
    is guessed.  The spectrum after each kept visit goes to ``fits`` (if any)
    with it, so no fit decomposes again.
    """
    T = costs.shape[0]
    alpha1, alpha2 = thresholds
    gram = np.zeros((xs.shape[1] + 1,) * 2)
    spectrum = decompose(gram)
    errs = bound(np.arange(_FIRST_WINDOW))
    visits: list[int] = []
    s, window, k = 0, _FIRST_WINDOW, 1
    while s < T:
        m = len(visits)
        stop = min(T, s + window)
        rows = augment(xs[s:stop])
        gated = policies._gate(spectrum, rows, alpha1, alpha2)
        guess = gated | policies.agent_decision(costs[s:stop], 0.0, errs.item(m))
        guessed = np.flatnonzero(guess)
        if not guessed.size:
            s, window = stop, min(2 * window, _LAST_WINDOW)
            continue
        first, window = guessed.item(0), _FIRST_WINDOW
        picked = rows[guessed[:k]]
        grams = _prefix_sums(gram, picked[:, :, None] * picked[:, None, :])
        spectra = decompose(grams)
        errs = _err_table(bound, errs, m + len(picked))
        # Rows first + 1 .. end - 1 hold 1 .. len(picked) guessed visits before them.
        end = guessed.item(k) if k < len(guessed) else stop - s
        redo = slice(first + 1, end)
        counts = np.cumsum(guess[first : end - 1])
        regated = policies._gate(spectra.pick(counts - 1), rows[redo], alpha1, alpha2)
        went = regated | policies.agent_decision(costs[s:stop][redo], 0.0, errs[m + counts])
        differ = np.flatnonzero(went != guess[redo])
        kept = len(went)
        if differ.size:  # the re-decision there is exact: keep the row if it settles
            kept = differ.item(0) + (not went[differ.item(0)])
        done = 1 + int(np.count_nonzero(went[:kept]))
        compel[s + first] = gated[first]
        compel[s + first + 1 : s + first + 1 + kept] = regated[:kept]
        new = (s + guessed[:done]).tolist()
        visits.extend(new)
        if fits is not None:
            fits.add(new, spectra.pick(slice(done)))
        gram, spectrum = grams[done - 1], spectra.pick(done - 1)
        if differ.size:
            k = 1
        elif done == k:
            k = min(2 * k, _FLUSH)
        s += first + 1 + kept
    return visits


def _prefix_sums(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``start + terms[0]``, then ``+ terms[1]``, ...: each sum is the sequential ``+=``'s, bit for bit."""
    terms[0] += start
    return np.cumsum(terms, axis=0, out=terms)


class _LinearFits:
    """The linear rule after each court visit, fitted in stacked passes of ``_FLUSH`` visits.

    ``add`` queues visits (with the spectra of the Gram matrices after each,
    when a kwik search has them); a flush builds the ``X^T y`` prefixes, and
    the Gram prefixes and their stacked ``eigh`` when no spectra came, and
    fits every queued visit at once.
    """

    def __init__(self, kind: LearnerKind, xs: np.ndarray, outcomes: np.ndarray):
        k = xs.shape[1] + 1
        self._kind = kind
        self._xs = xs
        self._outcomes = outcomes
        self._gram = np.zeros((k, k))
        self._xty = np.zeros(k)
        self._coefs = [np.zeros((1, k))]  # the rule before any visit
        self._queue: list[int] = []
        self._spectra: list[Spectrum] = []

    def add(self, visits, spectra: Spectrum | None = None) -> None:
        self._queue.extend(visits)
        if spectra is not None:
            self._spectra.append(spectra)
        if len(self._queue) >= _FLUSH:
            self._flush()

    def _flush(self) -> None:
        if not self._queue:
            return
        rows = augment(self._xs[self._queue])
        xty = _prefix_sums(self._xty, self._outcomes[self._queue][:, None] * rows)
        if self._spectra:
            spectra = Spectrum(*map(np.concatenate, zip(*self._spectra)))
        else:
            grams = _prefix_sums(self._gram, rows[:, :, None] * rows[:, None, :])
            self._gram = grams[-1]
            spectra = decompose(grams)
        self._xty = xty[-1]
        self._coefs.append(_fit_linear(self._kind, spectra, xty))
        self._queue, self._spectra = [], []

    def coefs(self) -> np.ndarray:
        """Every rule so far, one row per court count (the offset last)."""
        self._flush()
        return np.concatenate(self._coefs)


def _predict(xs: np.ndarray, coefs: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Row i's raw prediction under rule ``which[i]``: one ``ddot`` per row, as the reference loop's ``w @ x + b``."""
    raw = np.empty(len(which))
    for lo in range(0, len(which), _PREDICT_CHUNK):
        rule = coefs[which[lo : lo + _PREDICT_CHUNK]]
        rows = xs[lo : lo + _PREDICT_CHUNK]
        raw[lo : lo + _PREDICT_CHUNK] = np.matmul(rows[:, None, :], rule[:, :-1, None])[:, 0, 0] + rule[:, -1]
    return raw


def _clip(raw: np.ndarray, alpha: float) -> np.ndarray:
    """``raw`` clipped into [0, alpha] by the reference loop's two comparisons."""
    return np.where(raw < 0.0, 0.0, np.where(raw > alpha, alpha, raw))


def _step_columns(columns: dict) -> dict[str, np.ndarray]:
    """``STEP_COLUMNS``, in order and dtype, from a mapping of name to values."""
    return {name: np.asarray(columns[name], dtype=dtype) for name, dtype in STEP_COLUMNS.items()}


def _offers(bases: np.ndarray, two_err) -> np.ndarray:
    """Each step's offer ``max(0.0, base - two_err)`` from its ``subsidy_bases`` entry."""
    shifted = bases - two_err
    return np.where(shifted > 0.0, shifted, 0.0)


def offline_baseline(env: Environment, kind: LearnerKind, alpha: float) -> float:
    """Loss floor: fit once on the full environment draw, sum squared errors.

    The baseline learner sees every (case, outcome) pair regardless of what
    the online run litigated; it pays no court costs and offers no subsidies.
    """
    if kind.family is LearnerFamily.EMPIRICAL_MEAN:
        mean = float(env.outcomes.mean())
        predictions = np.full(env.outcomes.shape[0], min(max(mean, 0.0), alpha))
    else:
        if env.xs is None:
            raise ConfigurationError(f"{kind.family.value} baseline requires vector cases")
        augmented = augment(env.xs)
        spectrum = decompose(augmented.T @ augmented).pick(None)
        coef = _fit_linear(kind, spectrum, (augmented.T @ env.outcomes)[None])[0]
        predictions = np.clip(env.xs @ coef[:-1] + coef[-1], 0.0, alpha)
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


def estimate_regret(config: RunConfig, replications: int) -> RegretReport:
    """Average per-case regret over independent replications.

    Each replication pairs the online run with an offline baseline scored on
    the same environment draw.  This is the sweep driver's one-cell case.
    """
    return _sweep([config], replications)[0]


def _sweep(
    configs: list[RunConfig],
    replications: int,
    each: Callable[[int, int, RunLedger], None] | None = None,
) -> list[RegretReport]:
    """Every cell's regret report, with the replications on the outer loop.

    The cells may differ only in policy and horizon.  Each replication
    draws its environment once, at the longest horizon, and scores the
    offline baseline once per horizon, on the prefix; every cell runs on its
    horizon's prefix.  The runs keep their step records exactly when
    ``each`` is given, and ``each(rep, index, ledger)`` receives each run's
    full ledger as soon as the run ends: replication by replication, and
    within one by ascending horizon, a horizon's cells in index order.
    """
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    longest = max(configs, key=lambda config: config.horizon)
    shared = (longest.truth, longest.cases, longest.costs, longest.learner, longest.seed)
    if any((c.truth, c.cases, c.costs, c.learner, c.seed) != shared for c in configs):
        raise ValueError("the cells of one sweep may differ only in policy and horizon")
    # Per cell: the online loss, offline loss, court count and subsidy paid of each replication.
    books = np.empty((len(configs), 4, replications))
    for rep in range(replications):
        _replicate(configs, longest, rep, books[:, :, rep], each)
    return [_regret_report(config, cell) for config, cell in zip(configs, books)]


def _replicate(
    configs: list[RunConfig], longest: RunConfig, rep: int, books: np.ndarray, each
) -> None:
    """One replication of every cell, booked into ``books`` (one row per cell); its
    environment and last ledger are freed on return, before the next draw."""
    env = draw_environment(longest, rep)
    for array in (env.xs, env.f_values, env.outcomes, env.costs):
        if array is not None:
            array.flags.writeable = False
    for horizon in sorted({config.horizon for config in configs}):
        cells = [i for i, config in enumerate(configs) if config.horizon == horizon]
        prefix = _prefix(env, configs[cells[0]], rep)
        baseline = offline_baseline(prefix, longest.learner, longest.truth.alpha)
        for i in cells:
            ledger = _simulate(configs[i], prefix, rep, keep_records=each is not None)
            books[i] = ledger.total_loss, baseline, ledger.court_count, ledger.total_subsidy_paid
            if each is not None:
                each(rep, i, ledger)


def _prefix(env: Environment, config: RunConfig, rep: int) -> Environment:
    """The environment of ``config``'s horizon: views of the first steps of ``env``.

    The draws are prefix-stable, but BLAS's ``xs @ beta`` is not always: its
    kernels may round a row differently with the row count (seen at dim 8,
    and at one row from dim 5).  So a linear truth's values are checked
    against the product on the prefix, and drawn afresh where they differ.
    """
    T = config.horizon
    if T == env.costs.shape[0]:
        return env
    xs = None if env.xs is None else env.xs[:T]
    prefix = Environment(xs, env.f_values[:T], env.outcomes[:T], env.costs[:T])
    truth = config.truth
    if isinstance(truth, LinearTruth) and not np.array_equal(
        prefix.xs @ truth.beta + truth.beta0, prefix.f_values
    ):
        return draw_environment(config, rep)
    return prefix


def _regret_report(config: RunConfig, books: np.ndarray) -> RegretReport:
    """One cell's report from its per-replication online losses, offline losses,
    court counts and subsidies paid."""
    online, offline, courts, subsidies = books
    replications = len(online)
    regrets = (online - offline) / config.horizon
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

    per_step_estimates: np.ndarray
    per_step_std_errors: np.ndarray
    per_step_mean_subsidy: np.ndarray
    per_step_subsidy_std_errors: np.ndarray
    max_violation: float
    max_violation_std_error: float
    satisfied: bool
    replications: int


def check_deterrent(config: RunConfig, replications: int) -> DeterrentReport:
    """Estimate the violation payoff per step across the sweep driver's replications."""
    if replications < 2:
        raise ConfigurationError("deterrent check needs at least 2 replications")
    T = config.horizon
    # By step: the sums of the violation payoff, its square, the subsidy and its square.
    sums = np.zeros((4, T))

    def add(rep: int, index: int, ledger: RunLedger) -> None:
        steps = ledger.steps
        subsidy = steps["subsidy"]
        v = subsidy - steps["cost"] - steps["settlement_value"]
        sums[:] += (v, v * v, subsidy, subsidy * subsidy)

    _sweep([config], replications, add)
    mean_v, mean_s = means = sums[::2] / replications
    var = (sums[1::2] - replications * means * means) / (replications - 1)
    se_v, se_s = np.sqrt(np.clip(var, 0.0, None) / replications)
    worst = int(np.argmax(mean_v))
    max_violation = float(mean_v[worst])
    max_violation_se = float(se_v[worst])
    return DeterrentReport(
        per_step_estimates=mean_v,
        per_step_std_errors=se_v,
        per_step_mean_subsidy=mean_s,
        per_step_subsidy_std_errors=se_s,
        max_violation=max_violation,
        max_violation_std_error=max_violation_se,
        satisfied=max_violation <= 3.0 * max_violation_se,
        replications=replications,
    )
