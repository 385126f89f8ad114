"""Inverse cleaning: minimum cost to reach a target quality.

The paper's conclusion names this the natural follow-up problem ("how
to use minimal cost to attain a given quality score", Section VII); we
implement it as an extension.  Given a target *expected* quality (or,
equivalently, a target expected improvement), find the cheapest plan
achieving it.

Because the knapsack DP already produces the whole optimal
value-vs-capacity curve, the exact answer is a lookup: grow the
capacity geometrically until the curve crosses the target, then return
the first crossing.  A greedy variant accumulates probe ladders in
value-per-cost order and is near-optimal at a fraction of the cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.cleaning.dp import build_groups
from repro.cleaning.improvement import (
    improvement_upper_bound,
    marginal_gain,
)
from repro.cleaning.knapsack import solve_grouped_knapsack
from repro.cleaning.model import CleaningPlan, CleaningProblem
from repro.exceptions import InfeasibleTargetError

#: Slack applied to feasibility checks against the theoretical supremum.
FEASIBILITY_MARGIN = 1e-12


@dataclass(frozen=True)
class InverseCleaningSolution:
    """A plan reaching the target, and what it costs/achieves."""

    plan: CleaningPlan
    cost: int
    expected_improvement: float


def _require_feasible(problem: CleaningProblem, target_improvement: float) -> None:
    """Raise :class:`InfeasibleTargetError` for a positive target that
    no plan reaches even in the limit: one above the supremum by more
    than the margin, or any when no x-tuple can be probed (a zero
    supremum)."""
    bound = improvement_upper_bound(problem)
    if target_improvement > bound + FEASIBILITY_MARGIN or bound <= 0.0:
        raise InfeasibleTargetError(
            f"target improvement {target_improvement:.6g} exceeds the "
            f"supremum {bound:.6g} achievable by cleaning every x-tuple"
        )


def min_cost_plan_greedy(
    problem: CleaningProblem, target_improvement: float
) -> InverseCleaningSolution:
    """Greedy inverse cleaning: take items by ``γ`` until the target holds.

    Near-optimal for the same reason the budgeted greedy is: marginal
    values decay geometrically, so the final (overshooting) item is
    cheap.  Only x-tuples of ``Z`` without its budget term
    (:attr:`~repro.cleaning.model.CleaningProblem.probe_mask`) are
    taken.  Raises :class:`InfeasibleTargetError` when no finite plan
    can reach the target.
    """
    if target_improvement <= 0.0:
        return InverseCleaningSolution(
            plan=CleaningPlan(operations={}), cost=0, expected_improvement=0.0
        )
    _require_feasible(problem, target_improvement)

    achieved = 0.0
    cost = 0
    counts: Dict[int, int] = {}
    heap = []
    for l in np.flatnonzero(problem.probe_mask).tolist():
        gain = marginal_gain(
            problem.sc_probabilities[l], problem.g_by_xtuple[l], 1
        )
        if gain > 0.0:
            heapq.heappush(heap, (-gain / problem.costs[l], l, 1))
    while heap and achieved < target_improvement:
        _, l, j = heapq.heappop(heap)
        gain = marginal_gain(problem.sc_probabilities[l], problem.g_by_xtuple[l], j)
        if gain <= 0.0:
            continue
        achieved += gain
        cost += problem.costs[l]
        counts[l] = j
        heapq.heappush(
            heap,
            (
                -marginal_gain(
                    problem.sc_probabilities[l], problem.g_by_xtuple[l], j + 1
                )
                / problem.costs[l],
                l,
                j + 1,
            ),
        )
    if achieved < target_improvement:
        raise InfeasibleTargetError(
            f"target improvement {target_improvement:.6g} is unreachable: "
            f"marginal gains vanished at {achieved:.6g}"
        )
    plan = CleaningPlan(
        operations={problem.xtuple_id(l): j for l, j in counts.items()}
    )
    return InverseCleaningSolution(
        plan=plan, cost=cost, expected_improvement=achieved
    )


def min_cost_plan(
    problem: CleaningProblem,
    target_improvement: float,
    method: str = "dp",
    initial_capacity: int = 16,
    max_capacity: int = 1 << 24,
) -> InverseCleaningSolution:
    """Cheapest plan whose *expected* improvement reaches the target.

    Parameters
    ----------
    problem:
        The cleaning instance; its ``budget`` field is ignored (this is
        the inverse problem).
    target_improvement:
        Required expected quality improvement (>= 0).  Use
        ``target_quality - problem.quality`` to phrase a quality target.
    method:
        ``"dp"`` for the exact optimum, ``"greedy"`` for the fast
        near-optimal variant.
    initial_capacity / max_capacity:
        Capacity search window for the DP curve (grown geometrically).
    """
    if method == "greedy":
        return min_cost_plan_greedy(problem, target_improvement)
    if method != "dp":
        raise ValueError(f"method must be 'dp' or 'greedy', got {method!r}")

    if target_improvement <= 0.0:
        return InverseCleaningSolution(
            plan=CleaningPlan(operations={}), cost=0, expected_improvement=0.0
        )
    _require_feasible(problem, target_improvement)

    capacity = max(1, initial_capacity)
    while capacity <= max_capacity:
        candidate = problem.with_budget(capacity)
        groups = build_groups(candidate)
        solution = solve_grouped_knapsack(
            [g for _, g in groups], capacity
        )
        curve = solution.best_value_by_capacity
        if curve[-1] >= target_improvement:
            # First capacity where the optimal curve crosses the target.
            crossing = int((curve >= target_improvement).argmax())
            exact = problem.with_budget(crossing)
            exact_groups = build_groups(exact)
            exact_solution = solve_grouped_knapsack(
                [g for _, g in exact_groups], crossing
            )
            plan = CleaningPlan(
                operations={
                    problem.xtuple_id(l): count
                    for (l, _), count in zip(exact_groups, exact_solution.counts)
                    if count > 0
                }
            )
            return InverseCleaningSolution(
                plan=plan,
                cost=plan.total_cost(exact),
                expected_improvement=float(exact_solution.value),
            )
        capacity *= 2
    raise InfeasibleTargetError(
        f"no plan within capacity {max_capacity} reaches improvement "
        f"{target_improvement:.6g} (achievable in the limit: "
        f"{improvement_upper_bound(problem):.6g}; raise max_capacity)"
    )
