"""RandU and RandP: the randomized baselines (Sections V-D.2, V-D.3).

Both draw x-tuples with replacement until no candidate fits the
remaining budget; they differ only in the draw distribution:

* **RandU** -- uniform over the candidates ("fairness principle");
* **RandP** -- proportional to the x-tuple's top-k probability mass
  ``Σ_{t_i∈τ_l} p_i / k``: entities more likely to appear in the
  answer are probed more often.

The paper leaves two details open, which we resolve explicitly:

* *candidate pool*: by default both draw from the useful set ``Z``
  (x-tuples that can actually change the quality); pass
  ``candidates="all"`` to draw from every x-tuple, which makes RandU
  dramatically weaker on large sparse workloads.
* *unaffordable draws*: rather than stopping at the first draw that
  does not fit, the pool is filtered to affordable x-tuples each round,
  so the budget is genuinely exhausted.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cleaning.model import CleaningPlan, CleaningProblem

_POOLS = ("nonzero", "all")


def _initial_pool(problem: CleaningProblem, candidates: str) -> List[int]:
    if candidates == "nonzero":
        return problem.candidate_indices()
    if candidates == "all":
        return np.flatnonzero(problem.costs <= problem.budget).tolist()
    raise ValueError(f"candidates must be one of {_POOLS}, got {candidates!r}")


def _run_random_selection(
    problem: CleaningProblem,
    pool: List[int],
    weights: Optional[Sequence[float]],
    rng: random.Random,
) -> CleaningPlan:
    """Draw with replacement until nothing affordable remains."""
    remaining = problem.budget
    counts: Dict[int, int] = {}
    pool = list(pool)
    cost_of = dict(zip(pool, problem.costs[pool].tolist()))
    pool_weights = list(weights) if weights is not None else None
    while pool:
        # Keep only x-tuples the remaining budget can still pay for.
        keep = [i for i, l in enumerate(pool) if cost_of[l] <= remaining]
        if len(keep) != len(pool):
            pool = [pool[i] for i in keep]
            if pool_weights is not None:
                pool_weights = [pool_weights[i] for i in keep]
            if not pool:
                break
        if pool_weights is not None:
            chosen = rng.choices(pool, weights=pool_weights, k=1)[0]
        else:
            chosen = pool[rng.randrange(len(pool))]
        counts[chosen] = counts.get(chosen, 0) + 1
        remaining -= cost_of[chosen]
    return CleaningPlan(
        operations={problem.xtuple_id(l): c for l, c in counts.items()}
    )


class RandUCleaner:
    """Uniform random probing (Section V-D.2)."""

    name = "RandU"

    def __init__(
        self, seed: Optional[int] = 0, candidates: str = "nonzero"
    ) -> None:
        if candidates not in _POOLS:
            raise ValueError(f"candidates must be one of {_POOLS}")
        self.seed = seed
        self.candidates = candidates

    def plan(self, problem: CleaningProblem) -> CleaningPlan:
        """Draw x-tuples uniformly until the budget is exhausted."""
        rng = random.Random(self.seed)
        pool = _initial_pool(problem, self.candidates)
        return _run_random_selection(problem, pool, None, rng)


class RandPCleaner:
    """Top-k-probability-weighted random probing (Section V-D.3)."""

    name = "RandP"

    def __init__(
        self, seed: Optional[int] = 0, candidates: str = "nonzero"
    ) -> None:
        if candidates not in _POOLS:
            raise ValueError(f"candidates must be one of {_POOLS}")
        self.seed = seed
        self.candidates = candidates

    def plan(self, problem: CleaningProblem) -> CleaningPlan:
        """Draw x-tuples weighted by top-k probability mass."""
        rng = random.Random(self.seed)
        pool = _initial_pool(problem, self.candidates)
        weights = problem.topk_mass_by_xtuple[pool].tolist()
        # Weight-zero x-tuples can never be drawn by rng.choices with
        # all-zero totals; drop them up front (and fall back to uniform
        # if the whole pool carries no top-k mass).
        keep = [i for i, w in enumerate(weights) if w > 0.0]
        if keep:
            pool = [pool[i] for i in keep]
            weights = [weights[i] for i in keep]
            return _run_random_selection(problem, pool, weights, rng)
        return _run_random_selection(problem, pool, None, rng)
