"""Brute-force oracles via exhaustive possible-world enumeration.

Everything here is exponential in the number of x-tuples and exists for
two purposes: (1) :func:`pw_result_distribution` is the enumeration
half of the paper's naive ``PW`` pipeline (Fig. 1(a)), which
:mod:`repro.core.pw` scores and the benchmarks of Figure 4(d) time
against PWR and TP; (2) it is the ground truth that every efficient
algorithm in this library is tested against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.db.database import RankedDatabase
from repro.db.possible_worlds import iter_worlds
from repro.queries.deterministic import PWResult, require_valid_k, topk_of_world


def pw_result_distribution(
    ranked: RankedDatabase, k: int
) -> Dict[PWResult, float]:
    """The exact distribution of pw-results (Definition 1).

    Evaluates a deterministic top-k query in every possible world and
    aggregates equal results.  Result probabilities sum to one.
    """
    require_valid_k(k)
    distribution: Dict[PWResult, float] = {}
    for world in iter_worlds(ranked.db):
        if world.probability <= 0.0:
            continue
        result = topk_of_world(ranked, world, k)
        distribution[result] = distribution.get(result, 0.0) + world.probability
    return distribution


def rank_probabilities_by_enumeration(
    ranked: RankedDatabase, k: int
) -> Dict[str, List[float]]:
    """``ρ_i(h)`` for every tuple, straight from Definition 2.

    Returns a mapping ``tid -> [ρ(1), ..., ρ(k)]``.  Tuples never in a
    pw-result map to all-zero vectors.
    """
    require_valid_k(k)
    rho: Dict[str, List[float]] = {t.tid: [0.0] * k for t in ranked.order}
    for result, probability in pw_result_distribution(ranked, k).items():
        for h, tid in enumerate(result, start=1):
            rho[tid][h - 1] += probability
    return rho


def topk_probabilities_by_enumeration(
    ranked: RankedDatabase, k: int
) -> Dict[str, float]:
    """``p_i`` for every tuple, straight from Definition 3."""
    rho = rank_probabilities_by_enumeration(ranked, k)
    return {tid: math.fsum(vector) for tid, vector in rho.items()}


def most_probable_results(
    distribution: Dict[PWResult, float], count: int = 1
) -> List[Tuple[PWResult, float]]:
    """The ``count`` most probable pw-results, ties broken lexicographically."""
    items = sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))
    return items[:count]
