"""Online simulation, offline baseline, regret, and deterrent analytics.

Each step draws the case and its court cost, applies the configured policy's
action, resolves the agent's settle-vs-litigate choice, and accounts the
squared decision error plus any court cost.  When a case goes to court the
revealed outcome is appended to the court data and the court decides from the
updated fit; settled cases receive the prediction from past court data only.

The learner changes only when a case goes to court, so one driver computes
every run in two phases.  The search (``_visits``) finds the court visits:
it needs only the error bound, which depends on the visit count alone, and
for ``kwik`` the spectrum of the courted Gram matrix, never a fitted rule.
Every policy states its actions by step range (``actions``), as (compel
mask, subsidy bases), and ``active``, the number of leading steps on which
it may act.  The search of a state-free run draws them window by window as
its rounds reach them and keeps each kept visit's subsidy base; the mask of
a ``kwik`` run starts all False and its gate sets it as the search goes.  Each
round guesses a window of up to ``_LAST_WINDOW`` steps at the current state,
decides the steps after the first guessed visit again at the states the
guessed visits imply (for ``kwik``, the first k of them, their Gram prefixes
in one stacked ``eigh``; k doubles up to ``_FLUSH`` while a round keeps all
k, and after a disagreement it is the number of visits that round kept), and
keeps the steps up to the first disagreement, which is exact.  The kept
visits are fitted as they come: a linear rule in a stacked pass once
``_FLUSH`` or more wait, a mean one at the end by one ``np.cumsum``.  Last,
the scoring pass derives the rest from the visits and one error-bound table
by court count: the subsidy paid, the start of the closed-form tail, and the
spans, the number of steps at each court count.  Each rule is repeated over
its span for the predictions.  Without records the squared errors and the
running loss are computed in place in the predictions' array, and only the
visits add their court fee, so a run holds no throwaway array of its
horizon.

The environment (cases, noise, costs) is pre-drawn from seed-derived streams
that are split per concern, so every policy faces the identical sequence for
a given (seed, replication) and the offline baseline can score the same
draws.  A draw at a shorter horizon is the prefix of a longer one, the rule
values included (``draw_environment``).  So the sweep driver
(``estimate_regret``) puts the replications on the outer loop: it draws each
replication's environment once, at the sweep's longest horizon, and every
horizon is a view of that one draw, on which the offline baseline is scored
once per horizon.  A run is causal, so the driver runs each policy whose law
does not read the horizon once per replication, at its longest horizon, and
cuts each shorter horizon from that run: the first T steps of the run are
the run at horizon T, and a cut past the start of the run's closed-form tail
prices its own tail steps, as a run alone at T does.  A policy whose law
reads the horizon runs each cell alone, on its horizon's view.  The driver
hands over the ledgers policy by policy, by ascending horizon within one, so
one long run's ledger is alive at a time.  A ledger holds only what its run
computed, so ``estimate_regret`` digests no config.  It is the only loop over
replications: every caller, ``check_deterrent`` and the ``experiment``
module included, runs through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
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
    _count,
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
# The most bytes one stacked array of a sweep or a run may take.
_STACK_BYTES = 2**29
# A sweep refuses more cells times replications than this: its books hold four
# float64 numbers per cell and replication, so they stay within _STACK_BYTES.
_BOOKS_LIMIT = _STACK_BYTES // 32

# Steps in a visit search's first window, and in its window after a reset.
_FIRST_WINDOW = 64
# A visit search's window stops doubling here: it bounds the search arrays,
# (window, dim + 1) rows for the kwik gate.
_LAST_WINDOW = 4096
# RunConfig refuses a larger case dimension.  A kwik re-decision picks a
# (dim + 1)^2 float64 spectrum for each of up to _LAST_WINDOW - 1 rows, and
# that stack stays within _STACK_BYTES; so dim <= 127.
_DIM_LIMIT = math.isqrt(_STACK_BYTES // (8 * (_LAST_WINDOW - 1))) - 1
# Queued court visits that set off a stacked fit, and the most guessed kwik visits decomposed at once.
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


def _replications(replications, cells: int) -> int:
    """``replications`` as an ``int``, refused below 1 or when a sweep of
    ``cells`` cells would book more than ``_BOOKS_LIMIT`` entries."""
    replications = _count("replications", replications, 1)
    if cells * replications > _BOOKS_LIMIT:
        raise ConfigurationError(
            f"cells * replications must be <= {_BOOKS_LIMIT}, got {cells} * {replications}"
        )
    return replications


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
        object.__setattr__(self, "horizon", _count("horizon", self.horizon, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))  # SeedSequence takes no negative entropy
        if self.horizon > 2**53:  # dynamic_compelling computes its step numbers in float64
            raise ConfigurationError(
                f"horizon must be <= 2**53, up to which float64 step numbers are exact, got {self.horizon}"
            )
        case_dim = self.cases.dim
        if case_dim is not None and case_dim > _DIM_LIMIT:
            raise ConfigurationError(
                f"cases.dim must be <= {_DIM_LIMIT}, so that a run's stacked (dim + 1)^2 arrays"
                f" stay within {_STACK_BYTES >> 20} MiB, got {case_dim}"
            )
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
    while the offline baseline scores them all.  A constant truth's
    ``f_values`` is ``mu`` broadcast to the horizon: a read-only view with
    stride 0, which every reader takes as the array of T copies, bit for bit.
    """

    xs: np.ndarray | None
    f_values: np.ndarray
    outcomes: np.ndarray
    costs: np.ndarray


def draw_environment(config: RunConfig, rep: int = 0) -> Environment:
    """Replication ``rep``'s cases, rule values, outcomes and costs for ``config``'s horizon.

    Every array of a draw at horizon T, the rule values included, equals the
    first T entries of a draw at any longer horizon with the same seed and
    replication: the streams are drawn in order, and a linear rule's values
    are computed row by row (``_predict``'s one ``ddot`` per row), never by a
    matrix-vector product whose rounding may change with the row count.  The
    sweep driver relies on this: it draws once, at the longest horizon, and
    runs every shorter one on a view of that draw.
    """
    _count("rep", rep, 0)  # numpy's SeedSequence takes no negative entropy
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
        f_values = np.broadcast_to(np.float64(truth.mu), (T,))
    else:
        f_values = _predict(xs, np.append(truth.beta, truth.beta0)[None], np.zeros(T, dtype=np.intp))
    outcomes = _stream(seed, rep, _STREAM_NOISE).standard_normal(T)
    outcomes *= truth.sigma  # in place: the noise draw's array becomes the outcomes
    outcomes += f_values
    costs = config.costs.sample(T, _stream(seed, rep, _STREAM_COST))
    return Environment(xs, f_values, outcomes, costs)


def run(config: RunConfig, rep: int = 0, keep_records: bool = True) -> RunLedger:
    """Execute one online run and return its ledger.

    ``keep_records=False`` leaves ``ledger.steps`` empty (the totals are
    still exact); use it when aggregating many replications.
    """
    return _simulate(config, [config.horizon], draw_environment(config, rep), rep, keep_records)[0]


def _simulate(
    config: RunConfig, horizons: list[int], env: Environment, rep: int, keep_records: bool
) -> list[RunLedger]:
    """One replication's run of ``config``, and its ledger cut at each of ``horizons``.

    ``horizons`` ascend, and the last is ``config``'s, which is ``env``'s.
    The run searches for the court visits, drawing its policy's actions
    (``actions``) as the search reaches them, fits after each, then scores.
    Without records a run holds the actions of one search round at a time;
    with records it draws them for the whole horizon at once, for its
    ``compelled`` and ``subsidy`` columns.  Scoring derives the subsidy paid
    (from the kept visits' subsidy bases), the start ``end`` of the
    closed-form tail (at or past the policy's ``active``, and T when records
    are kept or the learner is linear) and the records'
    ``pre_step_err_bound`` from the visits and one error-bound table.
    The rule after each visit is repeated over the steps up to the next (the
    spans), and without records the squared errors, each visit's court fee
    and their ``np.cumsum`` are computed in place in that array.
    A run is causal, so its ledger at a shorter horizon T is its first T steps:
    the visits below T, entry T - 1 of its subsidy ``np.cumsum``, ``[:T]`` views
    of its step columns, and entry T - 1 of its loss ``np.cumsum``, or past
    ``end`` that sum's last entry plus T - end steps of the tail.  A run alone
    at T finds the same visits and the same ``end`` where ``end`` < T, so its
    total is the same float.  Every float is produced by the same operations, in
    the same order, as in the case-by-case loop of ``tests/oracle.py``, so
    ledgers and totals are bit for bit the same.
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
    tail_from = T if keep_records or linear else policy.active(config)

    def bound(m: np.ndarray) -> np.ndarray:
        return err_bound(kind, m, config.truth.sigma, alpha, dim)

    if isinstance(policy, KwikConfig):
        rule = _KwikDecisions(costs, fits, xs, policy.thresholds(dim))
    else:
        rng = _stream(config.seed, rep, _STREAM_POLICY, policy.tag)
        rule = _Decisions(costs, partial(policy.actions, config, rng), fits, T if keep_records else 0)
    found = _visits(T, rule, bound, config.costs.c_min, tail_from)
    visits = np.array(found, dtype=np.intp)  # the dtype holds for no visit too

    counts = np.arange(len(visits) + 1)
    errs = bound(counts)  # the error bound by court count
    # np.cumsum adds in visit order, as a sequential loop would
    paid = np.zeros(len(visits)) if rule.bases is None else np.cumsum(_offers(rule.visit_bases(), 2.0 * errs[:-1]))
    end = T
    if 2.0 * errs.item(-1) < config.costs.c_min:  # no visit can follow the last past tail_from
        end = min(max(found[-1] + 1 if found else 0, tail_from), T)
    spans = np.diff(visits, prepend=0, append=end)  # the steps at each court count
    tail_rate = 0.0  # the loss of each step of the closed-form tail, steps end .. T - 1
    if linear:
        coefs = fits.coefs()
        applied = _clip(_predict(xs, coefs, np.repeat(counts, spans)), alpha)
    else:
        rules = _mean_rules(env.outcomes[visits], alpha)
        applied = np.repeat(rules, spans)
        tail_rate = (rules.item(-1) - config.truth.mu) ** 2  # all settle on the last rule
    # Without records the squares and losses overwrite the decisions.  Only
    # the visits get their fee: a settled step's x * x >= +0.0 equals x * x + 0.0.
    squared = np.subtract(applied, env.f_values[:end], out=None if keep_records else applied)
    np.multiply(squared, squared, out=squared)
    losses = squared.copy() if keep_records else squared
    losses[visits] += costs[visits]
    np.cumsum(losses, out=losses)

    steps = {}
    if keep_records:  # the tail skip is off, so end == T
        went = np.zeros(end, dtype=bool)
        went[visits] = True
        m_before = np.repeat(counts, spans) - went
        pre_errs = errs[m_before]
        if linear:
            settlement = applied.copy()
            settlement[visits] = _clip(_predict(xs[visits], coefs, np.arange(len(visits))), alpha)
        else:
            settlement = rules[m_before]
        steps = {
            "t": np.arange(1, end + 1),
            "cost": costs,
            # The rule's actions cover the whole horizon, drawn at once.
            "subsidy": np.zeros(end) if rule.bases is None else _offers(rule.bases, 2.0 * pre_errs),
            "compelled": np.zeros(end, dtype=bool) if rule.compel is None else rule.compel,
            "went_to_court": went,
            "applied_decision": applied,
            "true_value": env.f_values,
            "squared_error": squared,
            "court_cost_incurred": np.where(went, costs, 0.0),
            "pre_step_err_bound": pre_errs,
            "m_before": m_before,
            "settlement_value": settlement,
        }
    ledgers = []
    counts_at = np.searchsorted(visits, horizons).tolist()
    for horizon, count in zip(horizons, counts_at):
        scored = min(horizon, end)  # past end, the formula prices the cut's own tail steps
        ledgers.append(
            RunLedger(
                steps={name: column[:horizon] for name, column in steps.items()},
                total_loss=(losses.item(scored - 1) if scored else 0.0) + (horizon - scored) * tail_rate,
                court_count=count,
                total_subsidy_paid=paid.item(count - 1) if count else 0.0,
            )
        )
    return ledgers


def _visits(T: int, rule: _Decisions, bound: Callable, c_min: float, tail_from: int) -> list[int]:
    """The court visits of a run whose steps ``rule`` decides.

    Each round decides a window of steps from the current step at the
    current state (the count m); the steps up to the first guessed visit are
    exact.  Each later step, up to the first guessed visit past the k that
    ``rule`` verifies, is decided again at the state the guess implies.  The
    steps before the first disagreement are kept.  At it the state is exact,
    so a guessed visit that settles is kept too, and a guessed settle that
    visits is left to the next round, which decides it again the same way.
    The window doubles, up to ``_LAST_WINDOW``, after a round without a
    guessed visit, or kept whole unless ``rule.restart``; else it falls back
    to ``_FIRST_WINDOW``.  The search stops at a round start from step index
    ``tail_from`` on once 2 * err < c_min: the policy is idle there and no
    cost clears the agent's test, so no visit can follow.
    """
    visits: list[int] = []
    errs = bound(np.arange(_FIRST_WINDOW))  # the error bound by court count, doubled as needed
    s, window = 0, _FIRST_WINDOW
    while s < T:
        m = len(visits)
        err = errs.item(m)
        if s >= tail_from and 2.0 * err < c_min:
            break
        stop = min(T, s + window)
        guess = rule.decide(s, stop, err)
        guessed = np.flatnonzero(guess)
        if not guessed.size:
            s, window = stop, min(2 * window, _LAST_WINDOW)
            continue
        first = guessed.item(0)
        k = rule.verify(guessed)
        if m + k >= len(errs):
            errs = bound(np.arange(2 * (m + k) + 1))
        end = guessed.item(k) if k < len(guessed) else stop - s
        # Steps s + first + 1 .. s + end - 1 follow 1 .. k guessed visits.
        counts = np.cumsum(guess[first : end - 1])
        went = rule.decide(s + first + 1, s + end, errs[m + counts], counts)
        differ = np.flatnonzero(went != guess[first + 1 : end])
        kept = len(went)
        if differ.size:  # the state there is exact: keep the step if it settles
            kept = differ.item(0) + (not went[differ.item(0)])
        new = (s + guessed[: 1 + np.count_nonzero(went[:kept])]).tolist()
        visits.extend(new)
        rule.keep(new, not differ.size)
        window = _FIRST_WINDOW if differ.size or rule.restart else min(2 * window, _LAST_WINDOW)
        s += first + 1 + kept
    return visits


class _Decisions:
    """A state-free policy's steps for ``_visits``: its compel mask OR'd with the agent's choice at its offer.

    ``decide`` decides steps lo .. hi - 1 at the error bound ``err``, one for
    all or one per step, and a re-decision gets ``counts``, the guessed visits
    before each step; ``verify`` says how many of a round's guessed visits
    (window indices) it verifies, here all; ``keep`` takes the kept visits.

    ``actions(lo, hi)`` draws the policy's (compel mask, subsidy bases) for
    steps lo .. hi - 1, each ``None`` when the policy never acts so.  The
    rule buffers them from step index ``self.lo`` to ``self.hi``, first
    ``actions(0, drawn)``.  A guess that reaches past the buffer draws on to
    its end and drops the steps before its start: rounds only move forward,
    and a re-decision stays inside its round's window.  ``keep`` records the
    subsidy base of each kept visit.
    """

    restart = False  # the window doubles after a round kept whole

    def __init__(self, costs: np.ndarray, actions: Callable, fits: _LinearFits | None, drawn: int):
        self.costs, self.actions, self.fits = costs, actions, fits
        self.lo, self.hi = 0, drawn
        self.compel, self.bases = actions(0, drawn)
        self.kept_bases: list[np.ndarray] = []

    def decide(self, lo: int, hi: int, err, counts: np.ndarray | None = None) -> np.ndarray:
        if hi > self.hi:
            compel, bases = self.actions(self.hi, hi)
            drop = lo - self.lo
            self.compel = None if compel is None else np.concatenate((self.compel[drop:], compel))
            self.bases = None if bases is None else np.concatenate((self.bases[drop:], bases))
            self.lo, self.hi = lo, hi
        steps = slice(lo - self.lo, hi - self.lo)
        offers = 0.0 if self.bases is None else _offers(self.bases[steps], 2.0 * err)
        went = policies.agent_decision(self.costs[lo:hi], offers, err)
        if self.compel is not None:
            went |= self.compel[steps]
        return went

    def verify(self, guessed: np.ndarray) -> int:
        return len(guessed)

    def keep(self, visits: list[int], whole: bool) -> None:
        if self.bases is not None:
            self.kept_bases.append(self.bases[[v - self.lo for v in visits]])
        if self.fits is not None:  # at most _FLUSH at a time, so no stacked fit holds 2 * _FLUSH
            for lo in range(0, len(visits), _FLUSH):
                self.fits.add(visits[lo : lo + _FLUSH])

    def visit_bases(self) -> np.ndarray:
        """The subsidy base of each kept visit, in visit order."""
        return np.concatenate([np.empty(0), *self.kept_bases])


class _KwikDecisions(_Decisions):
    """A ``kwik`` run's steps: the gate, which writes the compel mask, OR'd with the agent's choice.

    A guess gates the window's rows, augmented once, on the spectrum frozen
    since the last visit; ``verify`` decomposes the Gram prefixes of the
    first k guessed visits in one stacked ``eigh``, on which a re-decision
    gates each row.  The round that keeps a row writes its mask entry last.
    k doubles, up to ``_FLUSH``, after k guessed visits are all kept, and
    after a disagreement falls back to ``done``, the visits that round kept
    (1 <= done <= k).  Only a round with a disagreement decomposes prefixes
    it drops, at most k - 1, and its k is at most the visits kept since the
    previous disagreement, that round's included; so the dropped prefixes
    never outnumber the visits.  The fits get the kept visits' spectra, so no
    fit decomposes again.
    """

    restart = True  # the window restarts after every round with a guessed visit

    def __init__(self, costs: np.ndarray, fits: _LinearFits | None, xs: np.ndarray,
                 thresholds: tuple[float, float]):
        self.costs, self.fits = costs, fits
        self.compel, self.bases = np.zeros(len(costs), dtype=bool), None
        self.xs, self.thresholds = xs, thresholds
        self.gram = np.zeros((xs.shape[1] + 1,) * 2)
        self.spectrum = decompose(self.gram)
        self.k = 1

    def decide(self, lo: int, hi: int, err, counts: np.ndarray | None = None) -> np.ndarray:
        if counts is None:
            self.lo, self.rows = lo, augment(self.xs[lo:hi])
            rows, spectrum = self.rows, self.spectrum
        else:
            rows, spectrum = self.rows[lo - self.lo : hi - self.lo], self.spectra.pick(counts - 1)
        gated = policies._gate(spectrum, rows, *self.thresholds)
        self.compel[lo:hi] = gated
        return gated | policies.agent_decision(self.costs[lo:hi], 0.0, err)

    def verify(self, guessed: np.ndarray) -> int:
        picked = self.rows[guessed[: self.k]]
        self.grams = _prefix_sums(self.gram, picked[:, :, None] * picked[:, None, :])
        self.spectra = decompose(self.grams)
        return len(picked)

    def keep(self, visits: list[int], whole: bool) -> None:
        done = len(visits)
        if self.fits is not None:
            self.fits.add(visits, self.spectra.pick(slice(done)))
        self.gram, self.spectrum = self.grams[done - 1], self.spectra.pick(done - 1)
        if not whole:
            self.k = done
        elif done == self.k:
            self.k = min(2 * self.k, _FLUSH)


def _mean_rules(ys: np.ndarray, alpha: float) -> np.ndarray:
    """The clipped mean of the first k outcomes, k = 0, 1, ...: each sum is the running
    ``sum_y += y``'s, bit for bit, as the leading 0.0 makes the first ``0.0 + y``."""
    return _clip(np.cumsum(np.append(0.0, ys)) / np.maximum(np.arange(len(ys) + 1), 1), alpha)


def _prefix_sums(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``start + terms[0]``, then ``+ terms[1]``, ...: each sum is the sequential ``+=``'s, bit for bit."""
    terms[0] += start
    return np.cumsum(terms, axis=0, out=terms)


class _LinearFits:
    """The linear rule after each court visit, fitted in a stacked pass once ``_FLUSH`` visits are queued.

    ``add`` queues visits (with the spectra of the Gram matrices after each,
    when a kwik run has them); a flush builds the ``X^T y`` prefixes, and
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
    """``raw`` clipped in place into [0, alpha] (alpha > 0) by the reference loop's two comparisons."""
    np.putmask(raw, raw < 0.0, 0.0)
    np.putmask(raw, raw > alpha, alpha)
    return raw


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
        residual = min(max(mean, 0.0), alpha) - env.f_values
    else:
        if env.xs is None:
            raise ConfigurationError(f"{kind.family.value} baseline requires vector cases")
        augmented = augment(env.xs)
        spectrum = decompose(augmented.T @ augmented).pick(None)
        coef = _fit_linear(kind, spectrum, (augmented.T @ env.outcomes)[None])[0]
        residual = np.clip(env.xs @ coef[:-1] + coef[-1], 0.0, alpha)
        residual -= env.f_values
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
    configs: list[RunConfig],
    replications: int,
    each: Callable[[int, int, RunLedger], None] | None = None,
) -> list[RegretReport]:
    """Each cell's average per-case regret over independent replications, in order.

    Each replication pairs a cell's online run with an offline baseline
    scored on the same environment draw.  The cells may differ only in
    policy and horizon, and the replications are on the outer loop: each
    draws its environment once, at the longest horizon, and scores the
    offline baseline once per horizon, on its view of that draw.  A policy
    whose law does not read the horizon runs once per replication, at its
    longest horizon, and its shorter horizons are cut from that run; every
    other cell runs alone, on its horizon's view.  The runs keep their step
    records exactly when ``each`` is given, and ``each(rep, index, ledger)``
    receives each cell's full ledger as soon as its run ends: replication by
    replication, within one policy by policy (in the order each first
    appears), and within a policy by ascending horizon.
    """
    if not configs:
        raise ConfigurationError("configs must hold at least one cell, got none")
    replications = _replications(replications, len(configs))
    longest = max(configs, key=lambda config: config.horizon)
    # Compared by value, as a LinearTruth compares by identity.
    shared = [{k: v for k, v in c.canonical().items() if k not in ("horizon", "policy")} for c in configs]
    if any(entry != shared[0] for entry in shared):
        raise ConfigurationError("the cells of one sweep may differ only in policy and horizon")
    # Per cell: the online loss, offline loss, court count and subsidy paid of each replication.
    books = np.empty((len(configs), 4, replications))
    for rep in range(replications):
        _replicate(configs, longest, rep, books[:, :, rep], each)
    return [_regret_report(config, cell) for config, cell in zip(configs, books)]


def _replicate(configs: list[RunConfig], longest: RunConfig, rep: int, books: np.ndarray, each) -> None:
    """One replication of every cell, booked into ``books`` (one row per cell).

    Every horizon runs on a view of the one draw (``_prefix``).  A policy's
    cells are one run, at the longest of their horizons, cut at the others,
    exactly when the policy's law does not read the horizon (``run_fields``);
    otherwise each cell runs alone.  The cells are booked policy by policy,
    by ascending horizon within one, and a run's ledgers are views of its
    longest one's columns, so one long ledger is alive at a time.  The
    environment and the ledgers are freed on return, before the next draw.
    """
    env = draw_environment(longest, rep)
    for array in (env.xs, env.f_values, env.outcomes, env.costs):
        if array is not None:
            array.flags.writeable = False
    keep_records = each is not None
    prefixes = {config.horizon: _prefix(env, config.horizon) for config in configs}
    baselines = {
        horizon: offline_baseline(prefix, longest.learner, longest.truth.alpha)
        for horizon, prefix in prefixes.items()
    }

    def book(index: int, ledger: RunLedger) -> None:
        books[index] = (ledger.total_loss, baselines[configs[index].horizon], ledger.court_count,
                        ledger.total_subsidy_paid)
        if each is not None:
            each(rep, index, ledger)

    for policy in dict.fromkeys(config.policy for config in configs):
        indices = sorted(
            (i for i, config in enumerate(configs) if config.policy == policy),
            key=lambda i: configs[i].horizon,
        )
        for run in [[i] for i in indices] if "horizon" in policy.run_fields else [indices]:
            config = configs[run[-1]]
            horizons = [configs[i].horizon for i in run]
            ledgers = dict(zip(run, _simulate(config, horizons, prefixes[config.horizon], rep, keep_records)))
            for i in run:
                book(i, ledgers.pop(i))


def _prefix(env: Environment, T: int) -> Environment:
    """The environment of horizon ``T``: views of the first ``T`` steps of ``env``,
    equal to a draw at ``T`` (``draw_environment``)."""
    xs = None if env.xs is None else env.xs[:T]
    return Environment(xs, env.f_values[:T], env.outcomes[:T], env.costs[:T])


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
    if _count("replications", replications) < 2:
        raise ConfigurationError("deterrent check needs at least 2 replications")
    T = config.horizon
    # By step: the sums of the violation payoff, its square, the subsidy and its square.
    sums = np.zeros((4, T))

    def add(rep: int, index: int, ledger: RunLedger) -> None:
        steps = ledger.steps
        subsidy = steps["subsidy"]
        v = subsidy - steps["cost"]
        v -= steps["settlement_value"]
        sums[0] += v
        sums[1] += np.multiply(v, v, out=v)
        sums[2] += subsidy
        sums[3] += np.multiply(subsidy, subsidy, out=v)

    estimate_regret([config], replications, add)
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
