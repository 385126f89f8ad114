"""DP: the optimal cleaning planner (Section V-D.1).

Builds the knapsack instance of Theorem 3 -- one group per candidate
x-tuple, item ``j`` worth ``b(l, D, j)`` at cost ``c_l`` -- and solves
it exactly with the grouped dynamic program.  Runtime is the paper's
``O(C²|Z|)`` (with ``J_l = C/c_l`` items per group), which dominates
every heuristic but yields the provably maximal expected improvement.

For very large budgets the geometric decay of ``b(l, D, j)`` makes deep
items worthless; ``prune_tolerance`` optionally drops items whose value
falls below a fraction of the instance's largest item, trading a
bounded additive error (``<= N_dropped · tolerance · max_b``, in
practice far below float noise) for tractability.  Pruning is *off* by
default, so the planner is exact unless explicitly relaxed.
"""

from __future__ import annotations

from typing import List

from repro.cleaning.improvement import marginal_gain
from repro.cleaning.knapsack import KnapsackGroup, solve_grouped_knapsack
from repro.cleaning.model import CleaningPlan, CleaningProblem


def build_groups(
    problem: CleaningProblem,
    prune_tolerance: float = 0.0,
) -> List[tuple]:
    """The knapsack groups of ``P(C, Z)``: ``(x-tuple index, group)``.

    Groups follow the candidate set ``Z`` (Lemma 5 exclusions applied).
    With a positive ``prune_tolerance``, each group's ladder is cut off
    once its marginal value drops below ``tolerance · max_first_item``.
    """
    candidates = problem.candidate_indices()
    rows = problem.rows(candidates)
    max_first = 0.0
    for sc, g, _ in rows:
        b1 = marginal_gain(sc, g, 1)
        if b1 > max_first:
            max_first = b1
    floor = prune_tolerance * max_first
    groups = []
    for l, (sc, g, cost) in zip(candidates, rows):
        max_ops = problem.budget // cost  # J_l
        values = []
        for j in range(1, max_ops + 1):
            b = marginal_gain(sc, g, j)
            if b <= floor and j > 1:
                break
            if b <= 0.0:
                break
            values.append(b)
        if values:
            groups.append((l, KnapsackGroup(cost=cost, values=tuple(values))))
    return groups


class DPCleaner:
    """The optimal planner (exact knapsack DP).

    Parameters
    ----------
    prune_tolerance:
        Relative value floor for probe-ladder items (see module doc).
        ``0.0`` (default) keeps the planner exact.
    use_numpy:
        Select the vectorized DP (default) or the pure-Python reference.
    """

    name = "DP"

    def __init__(
        self, prune_tolerance: float = 0.0, use_numpy: bool = True
    ) -> None:
        if prune_tolerance < 0.0:
            raise ValueError("prune_tolerance must be non-negative")
        self.prune_tolerance = prune_tolerance
        self.use_numpy = use_numpy

    def plan(self, problem: CleaningProblem) -> CleaningPlan:
        """Solve P(C, Z) exactly and translate counts into a plan."""
        groups = build_groups(problem, self.prune_tolerance)
        if not groups:
            return CleaningPlan(operations={})
        solution = solve_grouped_knapsack(
            [g for _, g in groups], problem.budget, use_numpy=self.use_numpy
        )
        operations = {
            problem.xtuple_id(l): count
            for (l, _), count in zip(groups, solution.counts)
            if count > 0
        }
        return CleaningPlan(operations=operations)
