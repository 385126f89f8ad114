"""Expected quality improvement: Theorem 2 and its building blocks.

Theorem 2 is the paper's key cleaning result: the expected improvement
of probing x-tuple ``τ_l`` ``M_l`` times, over the joint distribution
of all probe outcomes, collapses to the closed form

    I(X, M, D, Q) = -Σ_l (1 - (1 - P_l)^{M_l}) · g(l, D),

where ``g(l, D) = Σ_{t_i∈τ_l} ω_i·p_i <= 0`` is the x-tuple's
contribution to the quality score.  No cleaned database ever needs to
be materialized.

The *marginal* gain of the j-th probe of one x-tuple,

    b(l, D, j) = -(1 - P_l)^{j-1} · P_l · g(l, D),

decreases monotonically in ``j`` (Lemma 4), which is what lets the
knapsack formulation (Theorem 3) and the greedy heuristic work.

:func:`expected_improvement_bruteforce` evaluates Definition 6 /
Eq. 17 literally -- enumerating every joint probe outcome and scoring
every resulting database -- and exists to validate Theorem 2 in tests.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cleaning.model import CleaningPlan, CleaningProblem
from repro.core.tp import compute_quality_tp
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import XTuple

#: Success probabilities this close to 1 make (1-P)^j underflow cleanly;
#: no special handling needed, listed for documentation.


def success_probability(sc_probability: float, operations: int) -> float:
    """``1 - (1 - P_l)^{M_l}``: chance at least one of ``M_l`` probes works."""
    if operations < 0:
        raise ValueError("operation count must be non-negative")
    return 1.0 - (1.0 - sc_probability) ** operations


def cumulative_gain(sc_probability: float, g: float, operations: int) -> float:
    """``G(l, D, j)``: expected improvement of ``j`` probes of one x-tuple."""
    return -success_probability(sc_probability, operations) * g


def marginal_gain(sc_probability: float, g: float, j: int) -> float:
    """``b(l, D, j)``: extra improvement of raising the probe count to ``j``.

    ``b(l, D, 0) = 0`` by convention; decreasing in ``j`` (Lemma 4).
    """
    if j < 0:
        raise ValueError("probe index must be non-negative")
    if j == 0:
        return 0.0
    return -((1.0 - sc_probability) ** (j - 1)) * sc_probability * g


def expected_improvement(problem: CleaningProblem, plan: CleaningPlan) -> float:
    """``I(X, M, D, Q)`` for a plan, via Theorem 2 (exact, O(|X|)).

    Evaluated as one array expression over the problem's dense columns
    (``(1-(1-P)^M)·g`` summed over the selected x-tuples); only the
    id-to-index resolution stays scalar.
    """
    if not plan.operations:
        return 0.0
    indices = np.fromiter(
        (problem.xtuple_index(xid) for xid in plan.operations),
        dtype=np.int64,
        count=len(plan.operations),
    )
    counts = np.fromiter(
        plan.operations.values(), dtype=np.float64, count=len(plan.operations)
    )
    survive = (1.0 - problem.sc_probabilities[indices]) ** counts
    return float(-np.sum((1.0 - survive) * problem.g_by_xtuple[indices]))


def expected_quality_after(problem: CleaningProblem, plan: CleaningPlan) -> float:
    """``E[S(D', Q)] = S(D, Q) + I(X, M, D, Q)``."""
    return problem.quality + expected_improvement(problem, plan)


def improvement_upper_bound(problem: CleaningProblem) -> float:
    """The supremum of achievable expected improvement.

    Probing every x-tuple of ``Z`` infinitely often drives each success
    probability to one, so the bound is ``Σ_{l ∈ Z} -g(l,D)`` over ``Z``
    without its budget term (:attr:`CleaningProblem.probe_mask`) -- at
    most ``|S(D, Q)|`` (quality can never exceed zero).  An x-tuple no
    probe can change adds nothing, whatever float residue its g(l, D)
    holds.  One masked reduction over the dense columns.
    """
    return float(np.sum(-problem.g_by_xtuple[problem.probe_mask]))


def expected_improvement_bruteforce(
    db: ProbabilisticDatabase,
    problem: CleaningProblem,
    plan: CleaningPlan,
) -> float:
    """Definition 6 evaluated literally (Eq. 14-18). Test oracle only.

    Enumerates the cross product of per-x-tuple outcomes: each probed
    ``τ_l`` either stays uncertain (probability ``(1-P_l)^{M_l}``) or
    collapses to one of its alternatives ``t_i`` (probability
    ``e_i·(1-(1-P_l)^{M_l})``) -- or, for incomplete x-tuples, reveals
    "no reading" (the null mass share).  Every outcome database is
    scored with TP and the improvements are averaged.

    Exponential in ``|X|`` and per-x-tuple fan-out; keep inputs tiny.
    """
    before = problem.quality
    xids = sorted(plan.operations)

    # Per-selected-x-tuple outcome lists: (change, probability).  A
    # failed probe changes nothing; a success collapses the x-tuple, or
    # removes it when it reveals the null outcome.
    outcome_lists: List[List[Tuple[Dict[str, Optional[XTuple]], float]]] = []
    for xid in xids:
        l = problem.xtuple_index(xid)
        xt = db.xtuple(xid)
        p_success = success_probability(
            float(problem.sc_probabilities[l]), plan.operations[xid]
        )
        outcomes: List[Tuple[Dict[str, Optional[XTuple]], float]] = [
            ({}, 1.0 - p_success)
        ]
        for t in xt.alternatives:
            outcomes.append(
                ({xid: xt.collapsed_to(t.tid)}, p_success * t.probability)
            )
        null_mass = xt.null_probability
        if null_mass > 0.0:
            outcomes.append(({xid: None}, p_success * null_mass))
        outcome_lists.append(outcomes)

    expected_after = 0.0
    for combo in itertools.product(*outcome_lists):
        probability = 1.0
        changes: Dict[str, Optional[XTuple]] = {}
        for change, p in combo:
            probability *= p
            changes.update(change)
        if probability == 0.0:
            continue
        cleaned = db.with_xtuples_changed(changes)
        ranked = cleaned.ranked(problem.ranked.ranking)
        expected_after += probability * compute_quality_tp(ranked, problem.k).quality
    return expected_after - before
