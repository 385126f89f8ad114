"""Greedy: near-optimal cleaning by value-per-cost (Section V-D.4).

Items ``(l, j)`` are scored ``γ_{l,j} = b(l, D, j) / c_l`` -- expected
improvement per budget unit -- and taken highest score first.  Because
``γ_{l,j+1} <= γ_{l,j}`` (Lemma 4), a heap holding *one* pending item
per x-tuple (the next probe of its ladder) suffices: popping ``(l, j)``
pushes ``(l, j+1)``.  When an x-tuple's cost no longer fits the
remaining budget it is dropped outright -- all its later items share
the same cost.  Runtime ``O((C/ c̄ + |Z|)·log|Z|)``, the paper's
``O(C|Z|log|Z|)`` bound.

The knapsack analogy explains the paper's observation that Greedy is
"close to optimal": greedy on a knapsack is optimal up to one boundary
item, and here item values decay geometrically, so the boundary error
is tiny.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

from repro.cleaning.improvement import marginal_gain
from repro.cleaning.model import CleaningPlan, CleaningProblem

#: Marginal gains at or below this are never worth a heap push; they
#: cannot change the plan's value at double precision.
GAIN_FLOOR = 0.0


class GreedyCleaner:
    """The greedy planner of Section V-D.4."""

    name = "Greedy"

    def plan(self, problem: CleaningProblem) -> CleaningPlan:
        """Take probe items by expected improvement per budget unit."""
        remaining = problem.budget
        counts: Dict[int, int] = {}
        # Seed scores vectorized over the candidate set: the first
        # probe of x-tuple l has gain b(l, D, 1) = -P_l·g(l, D).
        candidates = np.array(problem.candidate_indices(), dtype=np.int64)
        gains = -(
            problem.sc_probabilities[candidates]
            * problem.g_by_xtuple[candidates]
        )
        scores = gains / problem.costs[candidates]
        keep = gains > GAIN_FLOOR
        seeded = candidates[keep].tolist()
        rows = dict(zip(seeded, problem.rows(seeded)))
        # Heap of (-γ, l, j): the pending j-th probe of x-tuple l.
        heap: List[Tuple[float, int, int]] = [
            (-score, l, 1) for score, l in zip(scores[keep].tolist(), seeded)
        ]
        heapq.heapify(heap)

        while heap and remaining > 0:
            neg_score, l, j = heapq.heappop(heap)
            sc, g, cost = rows[l]
            if cost > remaining:
                # Later items of τ_l cost the same; drop the ladder.
                continue
            remaining -= cost
            counts[l] = j
            if j < problem.budget // cost:  # J_l, the most probes of τ_l
                gain = marginal_gain(sc, g, j + 1)
                if gain > GAIN_FLOOR:
                    heapq.heappush(heap, (-gain / cost, l, j + 1))

        return CleaningPlan(
            operations={problem.xtuple_id(l): j for l, j in counts.items()}
        )
