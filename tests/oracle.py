"""Reference implementations that the fast paths in ``src/`` are tested against.

``step_loop`` plays a run one case at a time: the policy's action, the
agent's settle-vs-litigate choice, the prediction, and on a court visit the
append and the refit.  ``sim._simulate`` jumps from court visit to court visit
instead and must give the same ledger, bit for bit.  The closed-form skip of
the all-settle tail is the reference for the driver's skip.

``ledger_line`` encodes a ledger line with one ``json.dumps`` of the whole
payload; ``experiment._ledger_line`` streams it column by column and must
write the same bytes.  ``recompute_total_loss`` re-derives a ledger's total
loss from its columns.

``gate_from_eig`` gates one query row on one spectrum, summing its masses
with Python floats; ``step_loop`` gates each case with it on the spectrum
of its Gram matrix, decomposed after each court visit.  ``kwik_gate`` gates
a query on a Gram matrix built afresh from the courted rows.
``policies._gate`` gates stacks of rows at once and must give the same
verdicts.

``sample_subsidy`` draws one step's subsidy offer with scalar arithmetic;
``policies.subsidy_bases`` and ``sim._offers`` draw every step's offer at
once and must give the same offer for the same draw, bit for bit.
"""

import json
import math

import numpy as np

from courtlearn.core import ConstantTruth, RunLedger, augment, decompose
from courtlearn.learners import LearnerFamily, _fit_linear
from courtlearn.policies import KwikConfig, agent_decision, subsidy_tail_probability
from courtlearn.sim import _STREAM_POLICY, STEP_COLUMNS, RunConfig, Environment, _step_columns, _stream


def step_loop(config: RunConfig, env: Environment, rep: int, keep_records: bool) -> RunLedger:
    """Reference path: one case at a time; only the kwik gate acts per case."""
    T = config.horizon
    truth = config.truth
    alpha = truth.alpha
    sigma = truth.sigma
    kind = config.learner
    case_dim = config.cases.dim
    policy = config.policy
    state_free = not isinstance(policy, KwikConfig)
    rng = _stream(config.seed, rep, _STREAM_POLICY, policy.tag)
    compel, bases, active = policy.horizon_actions(config, rng)
    compel = compel.tolist()
    bases = [0.0] * T if bases is None else bases.tolist()
    if not state_free:
        alpha1, alpha2 = policy.thresholds(case_dim)

    mean_learner = kind.family is LearnerFamily.EMPIRICAL_MEAN
    # The court data's sums, added one visit at a time; vector cases also keep
    # the augmented Gram matrix, X^T y and the Gram matrix's spectrum.
    sum_y = 0.0
    if case_dim is not None:
        gram = np.zeros((case_dim + 1, case_dim + 1))
        xty = np.zeros(case_dim + 1)
        spectrum = decompose(gram)
    # The current rule: a cached clipped constant for mean rules, else the
    # linear rule's weights and offset; 0 before any visit.
    if mean_learner:
        rule_value = 0.0
    else:
        weights, offset = np.zeros(case_dim), 0.0

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
        state_free and not keep_records and mean_learner and isinstance(truth, ConstantTruth)
    )

    rows: list[tuple] = []
    total_loss = 0.0
    court_count = 0
    subsidy_paid = 0.0
    err_before = alpha  # err bound with the current dataset; alpha while empty

    for t in range(1, T + 1):
        if fast_candidate and 2.0 * err_before < cost_floor and t > active:
            total_loss += (T - t + 1) * (rule_value - truth.mu) ** 2
            break
        i = t - 1
        cost = costs[i]
        x = None if xs is None else xs[i]
        pre_err = err_before
        compelled = compel[i]
        if not state_free:  # kwik's mask is empty: the gate decides each case
            compelled = gate_from_eig(np.clip(spectrum.values, 0.0, None), spectrum.vectors, augment(x), alpha1, alpha2)
        offered = max(0.0, bases[i] - 2.0 * pre_err)
        litigates = compelled or agent_decision(cost, offered, pre_err)

        # The rule's prediction for this case, clipped into [0, alpha].
        if mean_learner:
            settlement = rule_value
        else:
            raw = float(weights @ x + offset)
            settlement = 0.0 if raw < 0.0 else (alpha if raw > alpha else raw)

        m_before = court_count
        if litigates:
            y = outcomes[i]
            if x is not None:
                row = augment(x)
                gram += np.outer(row, row)
                xty += y * row
                spectrum = decompose(gram)
            sum_y += y
            court_count += 1
            if mean_learner:
                rule_value = min(max(sum_y / court_count, 0.0), alpha)
                applied = rule_value
            else:
                coef = _fit_linear(kind, spectrum.pick(None), xty[None])[0]
                weights, offset = coef[:-1], coef[-1]
                raw = float(weights @ x + offset)
                applied = 0.0 if raw < 0.0 else (alpha if raw > alpha else raw)
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


def ledger_line(policy: str, horizon: int, rep: int, ledger: RunLedger) -> str:
    """One replication's JSONL line.  Bool columns are written as 0/1, and
    ``tolist`` hands floats to ``json`` as Python floats, written by repr."""
    steps = {
        name: (column.astype(np.int64) if column.dtype == bool else column).tolist()
        for name, column in ledger.steps.items()
    }
    payload = {
        "policy": policy,
        "T": horizon,
        "replication": rep,
        "seed": ledger.seed,
        "config_digest": ledger.config_digest,
        "total_loss": ledger.total_loss,
        "court_count": ledger.court_count,
        "total_subsidy_paid": ledger.total_subsidy_paid,
        "steps": steps,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def recompute_total_loss(ledger: RunLedger) -> float:
    """Re-derive a run's cumulative loss from its step columns, in the
    summation order of the simulator's running total."""
    if not ledger.steps:
        return 0.0
    return np.cumsum(ledger.steps["squared_error"] + ledger.steps["court_cost_incurred"]).item(-1)


def gate_from_eig(
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    query: np.ndarray,
    alpha1: float,
    alpha2: float,
) -> bool:
    """Gate on the courted-history spectrum: True (compel) unless the query is covered.

    Splits the query across the eigenvectors of the courted Gram matrix.
    Directions with eigenvalue >= 1 contribute projection^2 / eigenvalue to
    the covered mass; the rest contribute their raw squared projection.  Each
    mass is summed left to right, one term at a time (numpy's ``sum`` would
    switch to pairwise summing at 8 or more terms).
    """
    projections = eigvecs.T @ query
    covered = eigvals >= 1.0
    sq = projections * projections
    covered_mass = novel_mass = 0.0
    for term in (sq[covered] / eigvals[covered]).tolist():
        covered_mass += term
    for term in sq[~covered].tolist():
        novel_mass += term
    return not (covered_mass <= alpha1 * alpha1 and novel_mass <= alpha2 * alpha2)


def kwik_gate(courted: np.ndarray, query: np.ndarray, alpha1: float, alpha2: float) -> bool:
    """True when past courted (augmented) cases do not cover an augmented query: compel.

    ``courted`` is the (m, k) stack of augmented feature rows already sent to
    court; an empty history leaves every direction uncovered, so any query
    with norm above ``alpha2`` is compelled.
    """
    courted = np.asarray(courted, dtype=float)
    query = np.asarray(query, dtype=float)
    if courted.size == 0:
        gram = np.zeros((query.shape[0], query.shape[0]))
    else:
        gram = courted.T @ courted
    spectrum = decompose(gram)
    return gate_from_eig(np.clip(spectrum.values, 0.0, None), spectrum.vectors, query, alpha1, alpha2)


def sample_subsidy(
    t: int,
    two_err: float,
    alpha: float,
    c_min: float,
    c_max: float,
    phase1: bool,
    rng,
) -> float:
    """Draw a subsidy by inverse-transform sampling.

    The distribution places a point mass at c_max - two_err, a density
    proportional to (s + two_err)^(-3/2) on [c_min - two_err, c_max - two_err],
    and the remaining mass at 0, so that the tail identity
    Pr[s >= c - two_err] = alpha / sqrt(t * c) holds for every c in
    [c_min, c_max] (scaled uniformly by 1/alpha during phase 1).  Support
    points below zero are floored at 0; the affected agents litigate at
    s = 0 anyway, so their decisions are unchanged.
    """
    p_min = subsidy_tail_probability(t, c_min, alpha, phase1)
    p_max = subsidy_tail_probability(t, c_max, alpha, phase1)
    u = rng.random()
    if u <= p_max:
        return max(0.0, c_max - two_err)
    if u <= p_min:
        alpha_eff = 1.0 if phase1 else alpha
        c = (alpha_eff / (u * math.sqrt(t))) ** 2
        return max(0.0, c - two_err)
    return 0.0
