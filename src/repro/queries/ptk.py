"""PT-k: probabilistic threshold top-k (Hua et al., SIGMOD 2008).

Returns every tuple whose top-k probability is at least a user
threshold ``T``.  On Table I with ``k = 2`` and ``T = 0.4`` the answer
is ``{t1, t2, t5}`` -- the paper's running example.
"""

from __future__ import annotations

import numpy as np

from repro.db.database import RankedDatabase
from repro.queries.answers import PTkAnswer
from repro.queries.deterministic import require_unit_interval
from repro.queries.psr import (
    TAIL_EPSILON,
    RankProbabilities,
    compute_rank_probabilities,
)


def require_valid_threshold(threshold: float) -> None:
    """Validate a PT-k threshold (must lie in ``[0, 1]``)."""
    require_unit_interval("threshold", threshold)


def answer_from_rank_probabilities(
    rank_probs: RankProbabilities, threshold: float
) -> PTkAnswer:
    """Aggregate a PT-k answer out of precomputed rank probabilities.

    One vectorized threshold pass over the columnar top-k probability
    vector, exactly as Section IV-C describes (members stay in rank
    order); each member's tuple id is read by its row
    (:meth:`~repro.db.database.RankedDatabase.tids_at`).

    Raises ``ValueError`` when the pass's certified tail stop ran at a
    ``tail_epsilon`` above ``threshold``: a row it left unscanned could
    then belong to the answer.  :func:`evaluate` and
    :meth:`repro.queries.engine.QuerySession.ptk` run a pass at
    ``tail_epsilon = threshold`` for such thresholds.
    """
    require_valid_threshold(threshold)
    if rank_probs.tail_epsilon > threshold:
        raise ValueError(
            f"a PSR pass with tail_epsilon={rank_probs.tail_epsilon:g} "
            f"cannot answer PT-k at threshold {threshold:g}; run it with "
            f"tail_epsilon <= threshold"
        )
    topk = rank_probs.topk_prefix
    if threshold > 0.0:
        positions = np.nonzero(topk >= threshold)[0]
    else:
        positions = np.nonzero(topk > 0.0)[0]
    members = tuple(
        zip(rank_probs.ranked.tids_at(positions), topk[positions].tolist())
    )
    return PTkAnswer(k=rank_probs.k, threshold=threshold, members=members)


def evaluate(ranked: RankedDatabase, k: int, threshold: float) -> PTkAnswer:
    """Answer a PT-k query from scratch (runs PSR internally)."""
    require_valid_threshold(threshold)
    return answer_from_rank_probabilities(
        compute_rank_probabilities(
            ranked, k, tail_epsilon=min(threshold, TAIL_EPSILON)
        ),
        threshold,
    )
