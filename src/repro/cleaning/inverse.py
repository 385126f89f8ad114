"""Inverse cleaning: minimum cost to reach a target quality.

The paper's conclusion names this the natural follow-up problem ("how
to use minimal cost to attain a given quality score", Section VII); we
implement it as an extension.  Given a target *expected* quality (or,
equivalently, a target expected improvement), find the cheapest plan
achieving it.

Because the knapsack DP already produces the whole optimal
value-vs-capacity curve, the exact answer is a lookup: grow the
capacity geometrically until the curve crosses the target, then return
the first crossing.  Only a target within rounding of the supremum
can lie above every capacity's curve -- one the feasibility margin
admits just above it, or one the ladders' float sums fall short of.
Such a target is refused once the first capacity falls short of it,
when the probe ladders, folded as the DP adds them, fall short too:
float addition is monotone, so no capacity's optimum exceeds that
fold.  Folding is sound only when the capacity window holds every
ladder whole, so a ladder the window would cut off with gain left --
decided from its closed form, before any ladder is built -- refuses
the target as beyond the window instead.  A lower target is crossed
as the capacity doubles, so its ladders never run past the crossing
capacity.  A greedy variant accumulates probe ladders in
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

#: Relative width of the band below the supremum whose targets the
#: complete probe ladders' fold must confirm (:func:`_curve_limit`).
#: The fold differs from the supremum by the rounding of its sums,
#: about ``1e-16 / P_l`` of it for the smallest sc-probability ``P_l``:
#: under 3e-12 for any ladder that completes within the default
#: ``max_capacity`` (``P_l`` above 745 / 2**24).
ROUNDING_BAND = 1e-9


@dataclass(frozen=True)
class InverseCleaningSolution:
    """A plan reaching the target, and what it costs/achieves."""

    plan: CleaningPlan
    cost: int
    expected_improvement: float


def _require_feasible(problem: CleaningProblem, target_improvement: float) -> float:
    """The supremum of ``problem``'s improvement.  Raise
    :class:`InfeasibleTargetError` for a positive target that no plan
    reaches even in the limit: one above the supremum by more than the
    margin, or any when no x-tuple can be probed (a zero supremum)."""
    bound = improvement_upper_bound(problem)
    if target_improvement > bound + FEASIBILITY_MARGIN or bound <= 0.0:
        raise InfeasibleTargetError(
            f"target improvement {target_improvement:.6g} exceeds the "
            f"supremum {bound:.6g} achievable by cleaning every x-tuple"
        )
    return bound


def _curve_limit(problem: CleaningProblem, max_capacity: int) -> float:
    """The most the optimal curve reaches at any capacity up to
    ``max_capacity``: every probe ladder within it, folded exactly as
    the DP adds them -- each group's values in order from 0.0, then the
    groups in candidate order.  Float addition is monotone, so no
    capacity's optimum exceeds the fold, and a capacity that takes
    every item reaches it."""
    limit = 0.0
    for _, group in build_groups(problem.with_budget(max_capacity)):
        cumulative = 0.0
        for value in group.values:
            cumulative += value
        limit += cumulative
    return limit


def _window_cuts_a_ladder(
    problem: CleaningProblem, max_capacity: int, bound: float
) -> bool:
    """Whether some x-tuple's probe ladder would stop at the window's
    ``max_capacity // c_l`` probes with more than :data:`ROUNDING_BAND`
    of the supremum ``bound`` still to gain.  Decided from the closed
    form, without building a ladder: the gain left after ``J`` probes
    is the tail of ``b(l, D, j) = -(1 - P_l)^(j-1) P_l g``, which sums
    to ``-(1 - P_l)^J g``."""
    probed = np.flatnonzero(problem.probe_mask).tolist()
    return any(
        -g * (1.0 - sc) ** (max_capacity // cost) > ROUNDING_BAND * bound
        for sc, g, cost in problem.rows(probed)
    )


def _beyond_window(
    problem: CleaningProblem, target_improvement: float, max_capacity: int
) -> InfeasibleTargetError:
    """The error of a target no capacity up to ``max_capacity`` reaches."""
    return InfeasibleTargetError(
        f"no plan within capacity {max_capacity} reaches improvement "
        f"{target_improvement:.6g} (achievable in the limit: "
        f"{improvement_upper_bound(problem):.6g}; raise max_capacity)"
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
    probed = np.flatnonzero(problem.probe_mask).tolist()
    rows = dict(zip(probed, problem.rows(probed)))
    for l, (sc, g, c) in rows.items():
        gain = marginal_gain(sc, g, 1)
        if gain > 0.0:
            heapq.heappush(heap, (-gain / c, l, 1))
    while heap and achieved < target_improvement:
        _, l, j = heapq.heappop(heap)
        sc, g, c = rows[l]
        gain = marginal_gain(sc, g, j)
        if gain <= 0.0:
            continue
        achieved += gain
        cost += c
        counts[l] = j
        heapq.heappush(heap, (-marginal_gain(sc, g, j + 1) / c, l, j + 1))
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
        When the first capacity falls short of a target within
        :data:`ROUNDING_BAND` of the supremum, a ladder the window cuts
        off with more than that band of gain left refuses the target
        as beyond the window (raise ``max_capacity``); otherwise the
        curve's limit over the window (:func:`_curve_limit`) decides
        whether growing it can help, and a target above the limit is
        refused then.
    """
    if method == "greedy":
        return min_cost_plan_greedy(problem, target_improvement)
    if method != "dp":
        raise ValueError(f"method must be 'dp' or 'greedy', got {method!r}")

    if target_improvement <= 0.0:
        return InverseCleaningSolution(
            plan=CleaningPlan(operations={}), cost=0, expected_improvement=0.0
        )
    bound = _require_feasible(problem, target_improvement)

    # Folding builds every complete ladder -- about 745 / P_l probes for
    # an sc-probability P_l -- so only a target the curve may never
    # cross pays for it.
    fold = target_improvement >= bound * (1.0 - ROUNDING_BAND)
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
        if fold:
            fold = False
            # A ladder the window cuts off short of its gain is the
            # window's limit, not the curve's: refuse before folding.
            if _window_cuts_a_ladder(problem, max_capacity, bound):
                raise _beyond_window(problem, target_improvement, max_capacity)
            limit = _curve_limit(problem, max_capacity)
            if limit < target_improvement:
                raise InfeasibleTargetError(
                    f"target improvement {target_improvement!r} is "
                    f"unreachable: marginal gains vanish and the optimal "
                    f"curve stops at {limit!r}"
                )
        capacity *= 2
    raise _beyond_window(problem, target_improvement, max_capacity)
