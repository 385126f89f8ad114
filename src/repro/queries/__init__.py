"""Probabilistic top-k queries (paper Sections III-B and IV-C).

* :mod:`repro.queries.psr` -- rank/top-k probabilities in one scan;
* :mod:`repro.queries.ukranks`, :mod:`repro.queries.ptk`,
  :mod:`repro.queries.global_topk` -- the three semantics the paper
  targets; :mod:`repro.queries.utopk` as an extension;
* :mod:`repro.queries.engine` -- one-pass shared evaluation of all
  answers plus the quality score;
* :mod:`repro.queries.brute_force` -- exponential oracles for testing
  and the PW baseline.
"""

from repro.queries.answers import (
    GlobalTopkAnswer,
    PTkAnswer,
    RankWinner,
    UkRanksAnswer,
    UTopkAnswer,
)
from repro.queries.engine import (
    EvaluationReport,
    QuerySession,
    evaluate,
    evaluate_without_sharing,
)
from repro.queries.psr import (
    RankProbabilities,
    apply_rank_delta,
    compute_rank_probabilities,
)
from repro.queries.range_query import (
    RangeAnswer,
    RangeQualityResult,
    answer_range_query,
    build_range_cleaning_problem,
    compute_quality_range,
)

__all__ = [
    "RankProbabilities",
    "apply_rank_delta",
    "compute_rank_probabilities",
    "EvaluationReport",
    "QuerySession",
    "evaluate",
    "evaluate_without_sharing",
    "UkRanksAnswer",
    "PTkAnswer",
    "GlobalTopkAnswer",
    "UTopkAnswer",
    "RankWinner",
    "RangeAnswer",
    "RangeQualityResult",
    "answer_range_query",
    "compute_quality_range",
    "build_range_cleaning_problem",
]
