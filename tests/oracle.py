"""Reference implementations that the fast paths in ``src/`` are tested against.

``step_loop`` plays a run one case at a time: the policy's action, the
agent's settle-vs-litigate choice, the prediction, and on a court visit the
append and the refit.  ``sim._simulate`` jumps from court visit to court visit
instead and must give the same ledger, bit for bit.  The closed-form skip of
the all-settle tail is the reference for the driver's skip.

``ledger_line`` encodes a ledger line with one ``json.dumps`` of the whole
payload; ``experiment._ledger_line`` streams it column by column and must
write the same bytes.

``kwik_gate`` gates a query on a Gram matrix built afresh from the courted
rows; ``KwikPolicy.compels`` gates on the spectrum that the run's
``Dataset`` caches between appends and must give the same verdict.
"""

import json
import math

import numpy as np

from courtlearn.core import ConstantTruth, Dataset, RunLedger, augment, decompose
from courtlearn.learners import LearnerFamily, fit
from courtlearn.policies import KwikPolicy, _gate_from_eig, agent_decision
from courtlearn.sim import _STREAM_POLICY, STEP_COLUMNS, RunConfig, Environment, _step_columns, _stream


def step_loop(config: RunConfig, env: Environment, rep: int, keep_records: bool) -> RunLedger:
    """Reference path: one case at a time; only the kwik gate acts per case."""
    T = config.horizon
    truth = config.truth
    alpha = truth.alpha
    sigma = truth.sigma
    kind = config.learner
    case_dim = config.cases.dim
    data = Dataset(case_dim)
    policy = config.policy
    state_free = policy.state_free
    if state_free:
        compel, bases = policy.horizon_actions(
            T, _stream(config.seed, rep, _STREAM_POLICY, config.policy.tag)
        )
        compel = [False] * T if compel is None else compel.tolist()
        bases = [0.0] * T if bases is None else bases.tolist()
    else:
        compels = KwikPolicy(policy, data).compels

    rule = fit(kind, data)
    mean_learner = kind.family is LearnerFamily.EMPIRICAL_MEAN
    # The current rule: a cached clipped constant for mean rules, else the
    # linear rule's weights and offset.
    if mean_learner:
        rule_value = min(max(rule.mean, 0.0), alpha)
    else:
        weights, offset = rule.coef[:-1], rule.coef[-1]

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
        if fast_candidate and 2.0 * err_before < cost_floor and policy.inactive_from(t):
            total_loss += (T - t + 1) * (rule_value - truth.mu) ** 2
            break
        i = t - 1
        cost = costs[i]
        x = None if xs is None else xs[i]
        pre_err = err_before
        if state_free:
            compelled = compel[i]
            offered = max(0.0, bases[i] - 2.0 * pre_err)
        else:
            compelled = compels(x)
            offered = 0.0
        litigates = compelled or agent_decision(cost, offered, pre_err)

        # The rule's prediction for this case, clipped into [0, alpha].
        if mean_learner:
            settlement = rule_value
        else:
            raw = float(weights @ x + offset)
            settlement = 0.0 if raw < 0.0 else (alpha if raw > alpha else raw)

        m_before = court_count
        if litigates:
            data.append_row(None if x is None else augment(x), outcomes[i])
            rule = fit(kind, data)
            if mean_learner:
                rule_value = min(max(rule.mean, 0.0), alpha)
                applied = rule_value
            else:
                weights, offset = rule.coef[:-1], rule.coef[-1]
                raw = float(weights @ x + offset)
                applied = 0.0 if raw < 0.0 else (alpha if raw > alpha else raw)
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
    return _gate_from_eig(spectrum.floored, spectrum.vectors, query, alpha1, alpha2)
