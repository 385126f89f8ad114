"""Shared query + quality evaluation (paper Section IV-C, Figure 1(b)).

All three query semantics and the TP quality algorithm consume the same
rank-probability information, so the expensive PSR pass should run once
per (database, ranking, k) and be reused everywhere.  This module
provides that in two shapes:

* :class:`QuerySession` -- a stateful handle over one ranked view that
  **memoizes** PSR output per ``k`` (and derived answers / quality /
  cleaning inputs).  Repeated evaluations at the same ``k`` cost only
  answer extraction, never another O(kn) scan.  The iterative cleaning
  loops thread sessions through so candidate evaluations stop
  rebuilding rank probabilities from scratch.
* :func:`evaluate` -- the one-shot functional form: runs PSR exactly
  once and derives everything from it; the paper measures the saving
  in Figure 5 (total time down to ~52% of the non-sharing pipeline at
  ``k = 100``, with the quality overhead shrinking from 33% at
  ``k = 15`` to 6% at ``k = 100``).

:func:`evaluate_without_sharing` is the deliberately naive baseline
that re-runs PSR for the quality step, used by the Figure 5
benchmarks.

Sharing semantics of :class:`QuerySession`
------------------------------------------
A session is bound to one immutable database snapshot and one ranking.
Cached state is only valid under the repository-wide convention that
databases are never mutated in place (cleaning produces *new*
databases via ``with_xtuples_changed``).  To follow a database through
cleaning, call :meth:`QuerySession.derive` with the cleaned snapshot:
it returns a fresh session sharing the ranking/kernel configuration
-- or the *same* session (cache intact) when the snapshot is
identical, which is what makes failed-probe rounds of adaptive
cleaning O(answer-extraction).  When the snapshot was derived through
``RankedDatabase.with_xtuples_changed``, pass the resulting
:class:`~repro.db.database.RankDelta` as ``derive(..., delta=...)``:
the new session shares the patched ranked view (no re-sort), keeps
every memoized PSR pass that ended above the first changed row, and
runs one fresh block-kernel pass for any other ``k`` the first time a
read needs it -- the path the cleaning executor takes once per round
that changed the database.  Sessions are not thread-safe; share them
within one evaluation pipeline, not across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.backend import check_backend
from repro.core.counters import SESSION_COUNTERS
from repro.core.tp import (
    SUPPORT_TOLERANCE,
    TPQualityResult,
    compute_quality_tp,
    patch_quality_tp,
    short_result_probability,
)
from repro.exceptions import InvalidQueryError
from repro.db.database import ProbabilisticDatabase, RankDelta, RankedDatabase
from repro.db.ranking import RankingFunction
from repro.queries.deterministic import require_valid_k

if TYPE_CHECKING:  # deferred: repro.cleaning imports repro.queries
    from repro.cleaning.model import CleaningProblem
from repro.queries import global_topk, ptk, ukranks
from repro.queries.answers import GlobalTopkAnswer, PTkAnswer, UkRanksAnswer
from repro.queries.psr import (
    TAIL_EPSILON,
    RankProbabilities,
    apply_rank_delta,
    compute_rank_probabilities,
)


@dataclass(frozen=True)
class EvaluationReport:
    """Everything one PSR pass buys: answers, quality, cleaning inputs."""

    k: int
    rank_probabilities: RankProbabilities
    ukranks: UkRanksAnswer
    ptk: PTkAnswer
    global_topk: GlobalTopkAnswer
    quality: TPQualityResult

    @property
    def quality_score(self) -> float:
        return self.quality.quality

    def g_by_xtuple(self) -> List[float]:
        """Per-x-tuple quality contributions ``g(l, D)`` (Theorem 2)."""
        return self.quality.g_by_xtuple()


class QuerySession:
    """A cached evaluation session over one ranked database view.

    Owns the ranked view and memoizes :class:`RankProbabilities` per
    ``k``; all three query semantics, the TP quality and the cleaning
    inputs are served from that cache.  See the module docstring for
    the sharing semantics (immutability assumption, :meth:`derive`).

    Parameters
    ----------
    db:
        The database, or an already-ranked view of it.
    ranking:
        Ranking function for raw databases; defaults to by-value.
        Ignored (must be None) when ``db`` is already ranked.
    backend:
        ``"python"`` runs this session's cold PSR passes and TP quality
        on the scalar oracle, for cross-validation; ``"numpy"`` (the
        default) is the production kernel.  Sessions derived from this
        one inherit it.
    """

    def __init__(
        self,
        db: Union[ProbabilisticDatabase, RankedDatabase],
        ranking: Optional[RankingFunction] = None,
        backend: str = "numpy",
    ) -> None:
        if isinstance(db, RankedDatabase):
            if ranking is not None and ranking is not db.ranking:
                raise ValueError(
                    "cannot override the ranking of an already-ranked database"
                )
            self.ranked = db
        else:
            self.ranked = db.ranked(ranking)
        self.backend = check_backend(backend)
        self._rank_probabilities: Dict[int, RankProbabilities] = {}
        self._quality: Dict[int, TPQualityResult] = {}
        self._ukranks: Dict[int, UkRanksAnswer] = {}
        self._global_topk: Dict[int, GlobalTopkAnswer] = {}
        self._ptk: Dict[Tuple[int, float], PTkAnswer] = {}
        #: (hits, misses) of the PSR cache -- the expensive resource.
        #: Counters are cumulative along a ``derive`` chain: a session
        #: derived from this one starts from these totals, so the final
        #: session of a cleaning run reports the whole run's cost.
        self.psr_hits = 0
        self.psr_misses = 0
        #: Cached PSR passes carried across a delta derivation (one
        #: count per cached ``k`` whose scan ended above the change).
        self.psr_patches = 0
        #: ``derive`` calls that started a cold session / derived one
        #: through a delta.
        self.cold_derives = 0
        self.delta_derives = 0
        #: Smaller-``k`` cache entries seeded from a larger pass by
        #: :meth:`prefill` (the batch-sharing primitive).
        self.psr_prefills = 0

    @property
    def db(self) -> ProbabilisticDatabase:
        return self.ranked.db

    def _adopt_counters(self, parent: "QuerySession") -> None:
        # Driven by the registry so a counter added there (and in
        # __init__) can never be silently dropped across a derive.
        for name in SESSION_COUNTERS:
            setattr(self, name, getattr(parent, name))

    def derive(
        self,
        db: Union[ProbabilisticDatabase, RankedDatabase],
        delta: Optional[RankDelta] = None,
    ) -> "QuerySession":
        """A session over ``db`` with this session's configuration.

        Returns ``self`` (cache and all) when ``db`` is this session's
        own snapshot -- the no-op transition of a cleaning round where
        every probe failed.

        With a :class:`~repro.db.database.RankDelta` (produced by
        ``RankedDatabase.with_xtuples_changed`` against this session's
        ranked view -- one per cleaning round), the derived session is
        built on the delta's patched view, and every memoized pass whose
        scan ended at or above the first changed row moves over with
        its quality (:func:`~repro.queries.psr.apply_rank_delta`,
        :func:`~repro.core.tp.patch_quality_tp`); each counts one
        ``psr_patches``.  Every other pass, and every answer, is
        recomputed on first read.  Counters (``psr_hits`` /
        ``psr_misses`` / ``psr_patches`` / ``cold_derives`` /
        ``delta_derives``) carry over cumulatively so the end of a
        cleaning run reports how many full passes the whole run cost.
        """
        if db is self.ranked.db or db is self.ranked:
            return self
        if delta is None:
            ranking = (
                None if isinstance(db, RankedDatabase) else self.ranked.ranking
            )
            derived = QuerySession(db, ranking=ranking, backend=self.backend)
            derived._adopt_counters(self)
            derived.cold_derives += 1
            return derived
        if delta.old_ranked is not self.ranked:
            raise ValueError(
                "delta was not derived from this session's ranked view"
            )
        if db is not delta.new_ranked and db is not delta.new_ranked.db:
            raise ValueError("delta does not lead to the requested database")
        derived = QuerySession(delta.new_ranked, backend=self.backend)
        derived._adopt_counters(self)
        derived.delta_derives += 1
        for k, rank_probs in self._rank_probabilities.items():
            carried = apply_rank_delta(rank_probs, delta)
            if carried is None:
                continue
            derived._rank_probabilities[k] = carried
            derived.psr_patches += 1
            cached_quality = self._quality.get(k)
            if cached_quality is not None:
                derived._quality[k] = patch_quality_tp(cached_quality, carried)
        return derived

    def prefill(self, ks: Iterable[int]) -> int:
        """Serve several ``k`` values from **one** PSR pass at ``max(ks)``.

        Runs (or reuses) the pass at the largest requested ``k`` and
        seeds the cache for every smaller ``k`` with a column-restricted
        view of it (:meth:`RankProbabilities.restricted_to` -- rank
        probabilities do not depend on ``k``, so the prefix is exact).
        Afterwards ``rank_probabilities(k)`` is a cache hit for every
        requested ``k``; this is the sharing primitive behind
        :meth:`repro.api.service.TopKService.batch`.

        Returns the number of cache entries seeded (``psr_prefills``
        accumulates the same count across the session's lifetime).
        Every ``k`` is validated before any pass runs: an invalid one
        raises :class:`~repro.exceptions.InvalidQueryError` and leaves
        the cache untouched.
        """
        requested = list(ks)
        for k in requested:
            require_valid_k(k)
        distinct = sorted(set(requested))
        if not distinct:
            return 0
        k_max = distinct[-1]
        rank_probs = self.rank_probabilities(k_max)
        seeded = 0
        for k in distinct[:-1]:
            if k not in self._rank_probabilities:
                self._rank_probabilities[k] = rank_probs.restricted_to(k)
                seeded += 1
        self.psr_prefills += seeded
        return seeded

    # ------------------------------------------------------------------
    # Cached primitives
    # ------------------------------------------------------------------
    def rank_probabilities(self, k: int) -> RankProbabilities:
        """The memoized PSR pass for this view at ``k``."""
        cached = self._rank_probabilities.get(k)
        if cached is not None:
            self.psr_hits += 1
            return cached
        self.psr_misses += 1
        computed = compute_rank_probabilities(
            self.ranked, k, backend=self.backend
        )
        self._rank_probabilities[k] = computed
        return computed

    def quality(self, k: int, check_support: bool = False) -> TPQualityResult:
        """The memoized TP quality at ``k`` (shares the PSR pass).

        ``check_support`` verifies Theorem 1's full-length-result
        assumption even when the quality itself is served from cache
        (delta derivations pre-seed the cache, so the check must not
        depend on a cache miss).
        """
        cached = self._quality.get(k)
        if cached is not None:
            if check_support:
                shortfall = short_result_probability(self.ranked, k)
                if shortfall > SUPPORT_TOLERANCE:
                    raise InvalidQueryError(
                        f"possible worlds yield fewer than k={k} real tuples "
                        f"with probability {shortfall:.3g}; Theorem 1 (TP) "
                        f"does not apply -- use PWR or PW instead"
                    )
            return cached
        result = compute_quality_tp(
            self.ranked,
            k,
            rank_probabilities=self.rank_probabilities(k),
            check_support=check_support,
            backend=self.backend,
        )
        self._quality[k] = result
        return result

    # ------------------------------------------------------------------
    # Query semantics (all served from the PSR cache)
    # ------------------------------------------------------------------
    def ukranks(self, k: int) -> UkRanksAnswer:
        """U-kRanks answer at ``k``."""
        cached = self._ukranks.get(k)
        if cached is None:
            cached = ukranks.answer_from_rank_probabilities(
                self.rank_probabilities(k)
            )
            self._ukranks[k] = cached
        return cached

    def ptk(self, k: int, threshold: float = 0.1) -> PTkAnswer:
        """PT-k answer at ``k`` with threshold ``T``.

        A ``T`` below :data:`~repro.queries.psr.TAIL_EPSILON` (0
        included) could admit a row the memoized pass's tail stop left
        unscanned, so it is answered from a pass whose stop uses
        ``ε = T``.  That pass counts as a miss and only its answer is
        memoized.
        """
        key = (k, threshold)
        cached = self._ptk.get(key)
        if cached is None:
            ptk.require_valid_threshold(threshold)
            if threshold < TAIL_EPSILON:
                self.psr_misses += 1
                rank_probs = compute_rank_probabilities(
                    self.ranked, k, backend=self.backend,
                    tail_epsilon=threshold,
                )
            else:
                rank_probs = self.rank_probabilities(k)
            cached = ptk.answer_from_rank_probabilities(rank_probs, threshold)
            self._ptk[key] = cached
        return cached

    def global_topk(self, k: int) -> GlobalTopkAnswer:
        """Global-topk answer at ``k``."""
        cached = self._global_topk.get(k)
        if cached is None:
            cached = global_topk.answer_from_rank_probabilities(
                self.rank_probabilities(k)
            )
            self._global_topk[k] = cached
        return cached

    def g_by_xtuple(self, k: int) -> List[float]:
        """Per-x-tuple quality contributions ``g(l, D)`` at ``k``."""
        return self.quality(k).g_by_xtuple()

    def evaluate(self, k: int, threshold: float = 0.1) -> EvaluationReport:
        """All three semantics plus quality, from one (cached) PSR pass."""
        return EvaluationReport(
            k=k,
            rank_probabilities=self.rank_probabilities(k),
            ukranks=self.ukranks(k),
            ptk=self.ptk(k, threshold),
            global_topk=self.global_topk(k),
            quality=self.quality(k),
        )

    def cleaning_problem(
        self,
        k: int,
        costs: Union[Dict[str, int], Iterable[int]],
        sc_probabilities: Union[Dict[str, float], Iterable[float]],
        budget: int,
    ) -> "CleaningProblem":
        """A :class:`~repro.cleaning.model.CleaningProblem` built on
        this session's cached quality at ``k``."""
        from repro.cleaning.model import build_cleaning_problem

        return build_cleaning_problem(
            self.quality(k), costs, sc_probabilities, budget
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ks = sorted(self._rank_probabilities)
        return (
            f"<QuerySession over {self.ranked.db!r}: cached k={ks}, "
            f"psr hits/misses {self.psr_hits}/{self.psr_misses}>"
        )


def evaluate(
    db: Union[ProbabilisticDatabase, RankedDatabase],
    k: int,
    threshold: float = 0.1,
    ranking: Optional[RankingFunction] = None,
) -> EvaluationReport:
    """Evaluate all three top-k semantics *and* the quality, sharing PSR.

    Parameters
    ----------
    db:
        The database (or an already-ranked view of it).
    k:
        Top-k parameter.
    threshold:
        PT-k threshold ``T`` (the paper's default is 0.1).
    ranking:
        Ranking function for raw databases; defaults to by-value.
    """
    return QuerySession(db, ranking=ranking).evaluate(k, threshold)


def evaluate_without_sharing(
    db: Union[ProbabilisticDatabase, RankedDatabase],
    k: int,
    threshold: float = 0.1,
    ranking: Optional[RankingFunction] = None,
) -> EvaluationReport:
    """The non-sharing baseline of Figure 5(a).

    Answers the queries from one PSR pass, then *recomputes* PSR inside
    the quality step, exactly like a user who runs a query library and a
    quality library back to back.
    """
    ptk.require_valid_threshold(threshold)
    ranked = db if isinstance(db, RankedDatabase) else db.ranked(ranking)
    rank_probs = compute_rank_probabilities(
        ranked, k, tail_epsilon=min(threshold, TAIL_EPSILON)
    )
    return EvaluationReport(
        k=k,
        rank_probabilities=rank_probs,
        ukranks=ukranks.answer_from_rank_probabilities(rank_probs),
        ptk=ptk.answer_from_rank_probabilities(rank_probs, threshold),
        global_topk=global_topk.answer_from_rank_probabilities(rank_probs),
        quality=compute_quality_tp(ranked, k),  # fresh PSR
    )
