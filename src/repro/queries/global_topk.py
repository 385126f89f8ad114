"""Global-topk: the k tuples with the highest top-k probabilities
(Zhang & Chomicki, ICDE Workshops 2008).

Tuples are ordered by top-k probability, descending; equal
probabilities are broken by the ranking order (the higher-ranked tuple
wins), which keeps the answer deterministic and matches the original
semantics' tie-breaking convention.
"""

from __future__ import annotations

import numpy as np

from repro.db.database import RankedDatabase
from repro.queries.answers import GlobalTopkAnswer
from repro.queries.psr import RankProbabilities, compute_rank_probabilities


def answer_from_rank_probabilities(
    rank_probs: RankProbabilities,
) -> GlobalTopkAnswer:
    """Aggregate a Global-topk answer out of precomputed rank
    probabilities; each member's tuple id is read by its row
    (:meth:`~repro.db.database.RankedDatabase.tids_at`)."""
    k = rank_probs.k
    topk = rank_probs.topk_prefix
    positions = np.nonzero(topk > 0.0)[0]
    # Sort by probability descending, then by rank position ascending
    # (lexsort's last key dominates; positions are already ascending,
    # and the sort is stable over them).
    rows = positions[np.lexsort((positions, -topk[positions]))[:k]]
    members = tuple(zip(rank_probs.ranked.tids_at(rows), topk[rows].tolist()))
    return GlobalTopkAnswer(k=k, members=members)


def evaluate(ranked: RankedDatabase, k: int) -> GlobalTopkAnswer:
    """Answer a Global-topk query from scratch (runs PSR internally)."""
    return answer_from_rank_probabilities(compute_rank_probabilities(ranked, k))
