"""U-kRanks: per-rank most probable tuples (Soliman et al., ICDE 2007).

For each rank ``h`` in ``1..k``, the answer is the tuple whose rank-h
probability ``ρ_i(h)`` is the largest.  Ties are broken in favour of the
higher-ranked tuple, keeping the answer deterministic.
"""

from __future__ import annotations

from repro.db.database import RankedDatabase
from repro.queries.answers import RankWinner, UkRanksAnswer
from repro.queries.psr import RankProbabilities, compute_rank_probabilities

#: Rank probabilities at or below this are treated as zero when picking
#: winners.  The dynamic program's factor removals can leave O(1e-17)
#: noise on ranks that are provably unoccupied (e.g. rank m+1 on a
#: complete database with m x-tuples); a "winner" at such a rank would
#: be meaningless.
ZERO_TOLERANCE = 1e-12


def answer_from_rank_probabilities(
    rank_probs: RankProbabilities,
) -> UkRanksAnswer:
    """Aggregate a U-kRanks answer out of precomputed rank probabilities.

    This is the sharing entry point of Section IV-C: the same
    :class:`RankProbabilities` can also feed PT-k, Global-topk and the
    TP quality computation.  One ``argmax`` per rank over the columnar
    ρ matrix; ``argmax`` returns the first maximum, which matches the
    higher-ranked-tuple tie-break.  Each winner's tuple id is read by
    its row (:meth:`~repro.db.database.RankedDatabase.tids_at`).
    """
    k = rank_probs.k
    winners = []
    if rank_probs.cutoff:
        rho = rank_probs.rho_prefix
        best_rows = rho.argmax(axis=0)
        best_values = rho[best_rows, range(k)].tolist()
        tids = rank_probs.ranked.tids_at(best_rows)
        for h, (tid, p) in enumerate(zip(tids, best_values), start=1):
            if p > ZERO_TOLERANCE:
                winners.append(RankWinner(rank=h, tid=tid, probability=p))
    return UkRanksAnswer(k=k, winners=tuple(winners))


def evaluate(ranked: RankedDatabase, k: int) -> UkRanksAnswer:
    """Answer a U-kRanks query from scratch (runs PSR internally)."""
    return answer_from_rank_probabilities(compute_rank_probabilities(ranked, k))
