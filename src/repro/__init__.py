"""repro: reproduction of "Cleaning Uncertain Data for Top-k Queries"
(Mo, Cheng, Li, Cheung, Yang -- ICDE 2013).

The library has six layers:

* :mod:`repro.db` -- the x-tuple probabilistic database model, ranking,
  possible-world semantics, serialization;
* :mod:`repro.queries` -- probabilistic top-k semantics (U-kRanks,
  PT-k, Global-topk, plus U-Topk) on top of the PSR rank-probability
  dynamic program, with one-pass shared evaluation;
* :mod:`repro.core` -- PWS-quality computation: the naive PW baseline,
  the pw-result-enumerating PWR (Algorithm 1), the O(kn) TP algorithm
  (Theorem 1), and a Monte-Carlo estimator;
* :mod:`repro.cleaning` -- budgeted cleaning (Section V): the optimal
  DP planner, the Greedy / RandP / RandU heuristics, plan execution,
  and the inverse/adaptive extensions;
* :mod:`repro.api` -- the serving façade: declarative request specs
  over a thread-safe :class:`SessionPool` of content-hash-identified
  snapshots, with batch execution sharing one PSR pass and cleaning
  outcomes registered as new snapshots;
* :mod:`repro.store` -- crash-safe durability under the façade:
  checksummed atomic snapshot segments, a write-ahead journal of
  cleaning outcomes replayed on startup, and quarantine of anything
  that fails verification.

Quickstart
----------
>>> from repro import TopKService, QuerySpec, CleaningSpec, datasets
>>> service = TopKService()
>>> sid = service.register(datasets.udb1()).snapshot_id
>>> report = service.query(sid, QuerySpec(k=2, threshold=0.4))
>>> [tid for tid, _ in report.payload["ptk"]["members"]]
['t1', 't2', 't5']
>>> round(report.payload["quality"], 2)
-2.55
"""

from repro import api, cleaning, core, datasets, db, queries
from repro.api import (
    BatchSpec,
    CleaningSpec,
    QualitySpec,
    QuerySpec,
    ServiceResult,
    SessionPool,
    TopKService,
    snapshot_id_of,
    spec_from_dict,
)
from repro.cleaning import (
    CleaningPlan,
    CleaningProblem,
    DPCleaner,
    GreedyCleaner,
    RandPCleaner,
    RandUCleaner,
    build_cleaning_problem,
    clean_adaptively,
    execute_plan,
    expected_improvement,
    min_cost_plan,
)
from repro.core import (
    compute_quality,
    compute_quality_detailed,
    compute_quality_pw,
    compute_quality_pwr,
    compute_quality_tp,
)
from repro.db import (
    ProbabilisticDatabase,
    ProbabilisticTuple,
    RankedDatabase,
    RankingFunction,
    XTuple,
    by_value,
    make_xtuple,
)
from repro.exceptions import (
    CorruptSnapshotError,
    InfeasibleTargetError,
    InvalidCleaningProblemError,
    InvalidDataError,
    InvalidDatabaseError,
    InvalidQueryError,
    InvalidSpecError,
    JournalReplayError,
    ReproError,
    StoreError,
    StoreWriteError,
    UnknownSnapshotError,
    UnknownXTupleError,
)
from repro.queries import (
    EvaluationReport,
    QuerySession,
    compute_rank_probabilities,
)
from repro.store import RecoveryReport, SnapshotStore

__version__ = "1.3.0"

__all__ = [
    "__version__",
    # submodules
    "db",
    "queries",
    "core",
    "cleaning",
    "datasets",
    "api",
    # service façade (canonical entry points)
    "TopKService",
    "SessionPool",
    "ServiceResult",
    "QuerySpec",
    "QualitySpec",
    "CleaningSpec",
    "BatchSpec",
    "spec_from_dict",
    "snapshot_id_of",
    # durability
    "SnapshotStore",
    "RecoveryReport",
    # database model
    "ProbabilisticDatabase",
    "RankedDatabase",
    "ProbabilisticTuple",
    "XTuple",
    "make_xtuple",
    "RankingFunction",
    "by_value",
    # queries
    "EvaluationReport",
    "QuerySession",
    "compute_rank_probabilities",
    # quality
    "compute_quality",
    "compute_quality_detailed",
    "compute_quality_tp",
    "compute_quality_pwr",
    "compute_quality_pw",
    # cleaning
    "CleaningProblem",
    "CleaningPlan",
    "build_cleaning_problem",
    "DPCleaner",
    "GreedyCleaner",
    "RandPCleaner",
    "RandUCleaner",
    "expected_improvement",
    "execute_plan",
    "min_cost_plan",
    "clean_adaptively",
    # exceptions
    "ReproError",
    "InvalidDatabaseError",
    "InvalidDataError",
    "InvalidQueryError",
    "InvalidCleaningProblemError",
    "InvalidSpecError",
    "UnknownXTupleError",
    "UnknownSnapshotError",
    "InfeasibleTargetError",
    "StoreError",
    "StoreWriteError",
    "CorruptSnapshotError",
    "JournalReplayError",
]
