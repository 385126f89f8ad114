""":class:`TopKService`: the declarative request/response façade.

One object owns the whole paper workflow behind four verbs::

    service = TopKService()
    sid = service.register(db).snapshot_id
    service.query(sid, QuerySpec(k=15))              # answer semantics
    service.quality(sid, QualitySpec(k=15))          # score ambiguity
    out = service.clean(sid, CleaningSpec(k=15, budget=20))
    new_sid = out.payload["new_snapshot_id"]         # cleaned snapshot
    service.batch(sid, BatchSpec(items=(...)))       # shared-pass fan-out

Requests are frozen specs (:mod:`repro.api.specs`), responses uniform
:class:`~repro.api.results.ServiceResult` envelopes, and state lives in
a :class:`~repro.api.pool.SessionPool` -- immutable snapshots under
content-hash ids with per-snapshot session leases, so the service is
safe to call from many threads.  Cleaning never mutates a snapshot:
executed outcomes are derived through the PR 2 incremental delta path
and registered as *new* snapshots whose warm (PSR-patched) session is
seeded into the pool.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from pathlib import Path

from repro.api.pool import SessionPool, snapshot_id_of
from repro.api.results import ServiceResult
from repro.api.specs import (
    BatchSpec,
    CleaningSpec,
    QualitySpec,
    QuerySpec,
)
from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.base import Cleaner
from repro.cleaning.dp import DPCleaner
from repro.cleaning.executor import execute_plan
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.improvement import expected_improvement
from repro.cleaning.model import (
    CleaningPlan,
    CleaningProblem,
    build_cleaning_problem,
)
from repro.cleaning.random_cleaners import RandPCleaner, RandUCleaner
from repro.core.counters import SESSION_COUNTERS, STORE_COUNTERS
from repro.core.quality import compute_quality_detailed
from repro.core.resilience import Deadline, check_deadline, scoped
from repro.datasets.synthetic import generate_costs, generate_sc_probabilities
from repro.db.database import ProbabilisticDatabase, RankedDatabase
from repro.db.ranking import RankingFunction
from repro.exceptions import InvalidSpecError, JournalReplayError
from repro.queries.engine import QuerySession
from repro.store import RetentionPolicy, SnapshotStore

_PLANNERS: Dict[str, type] = {
    "dp": DPCleaner,
    "greedy": GreedyCleaner,
    "randp": RandPCleaner,
    "randu": RandUCleaner,
}

#: Session counters surfaced (as per-request deltas) in result
#: envelopes -- the one registry in :mod:`repro.core.counters`.
_SESSION_COUNTERS = SESSION_COUNTERS


def _counters_of(session: QuerySession) -> Dict[str, int]:
    return {name: getattr(session, name) for name in _SESSION_COUNTERS}


def _counter_delta(
    before: Mapping[str, int], session: QuerySession
) -> Dict[str, int]:
    return {
        name: getattr(session, name) - before[name]
        for name in _SESSION_COUNTERS
    }


class TopKService:
    """Thread-safe façade over snapshots, queries, quality and cleaning.

    Parameters
    ----------
    pool:
        The :class:`~repro.api.pool.SessionPool` to serve from; a
        private one is created when omitted.
    ranking:
        Ranking function for raw registered databases (by-value when
        omitted); forwarded to the private pool only.
    max_sessions:
        LRU bound of the private pool only.
    max_in_flight / admission_timeout_ms:
        Admission-gate settings forwarded to the private pool only
        (see :class:`~repro.api.pool.SessionPool`).
    store / store_dir / durability:
        Durable persistence.  ``store`` attaches an existing
        :class:`~repro.store.SnapshotStore`; ``store_dir`` opens (or
        creates) one at that directory with the given ``durability``
        (``"fsync"`` default, ``"none"`` for tests).  Either way the
        store's recovered snapshots seed the pool, every registration
        persists before publishing, executed cleanings are
        write-ahead journaled, and pending journal records are
        **replayed** here in the constructor -- re-executed
        deterministically on the production kernels (no setting or
        environment variable picks another) and verified against the
        journaled content hash (divergence raises
        :class:`~repro.exceptions.JournalReplayError`).  Forwarded to
        the private pool only; a caller-supplied ``pool`` brings its
        own store (or none).
    keep_last_n / pinned:
        Durable retention knobs (require a store): together they form
        the :class:`~repro.store.RetentionPolicy` the private pool
        sweeps with after each durable registration -- segments beyond
        the newest ``keep_last_n`` are reclaimed through the store's
        two-phase GC, except ``pinned`` ids and anything leased or
        warm.  Omitted, every segment is kept forever.
    """

    def __init__(
        self,
        pool: Optional[SessionPool] = None,
        ranking: Optional[RankingFunction] = None,
        max_sessions: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        admission_timeout_ms: Optional[float] = None,
        store: Optional[SnapshotStore] = None,
        store_dir: Optional[Union[str, Path]] = None,
        durability: Optional[str] = None,
        keep_last_n: Optional[int] = None,
        pinned: Sequence[str] = (),
    ) -> None:
        if pool is not None and (
            ranking is not None
            or max_sessions is not None
            or max_in_flight is not None
            or admission_timeout_ms is not None
            or store is not None
            or store_dir is not None
            or durability is not None
            or keep_last_n is not None
            or tuple(pinned)
        ):
            raise ValueError(
                "pass ranking/max_sessions/max_in_flight/"
                "admission_timeout_ms/store/store_dir/durability/"
                "keep_last_n/pinned only when the service creates its "
                "own pool"
            )
        if store is not None and store_dir is not None:
            raise ValueError("pass either store or store_dir, not both")
        if durability is not None and store_dir is None:
            raise ValueError("durability only applies with store_dir")
        if (keep_last_n is not None or tuple(pinned)) and (
            store is None and store_dir is None
        ):
            raise ValueError(
                "keep_last_n / pinned require a store or store_dir"
            )
        if pool is None:
            if store_dir is not None:
                store = SnapshotStore(
                    store_dir, durability=durability or "fsync"
                )
            retention = (
                RetentionPolicy(
                    keep_last_n=keep_last_n, pinned=tuple(pinned)
                )
                if keep_last_n is not None or tuple(pinned)
                else None
            )
            kwargs: Dict[str, Any] = {}
            if max_sessions is not None:
                kwargs["max_sessions"] = max_sessions
            if max_in_flight is not None:
                kwargs["max_in_flight"] = max_in_flight
            if admission_timeout_ms is not None:
                kwargs["admission_timeout_ms"] = admission_timeout_ms
            pool = SessionPool(
                ranking=ranking,
                store=store,
                retention=retention,
                **kwargs,
            )
        self.pool = pool
        self.store = pool.store
        self._replaying = False
        if self.store is not None:
            self._replay_journal()

    @contextmanager
    def _admitted(self, spec: Any) -> Iterator[None]:
        """Scope a request's deadline around its work.

        An already-expired ``deadline_ms`` sheds the request here --
        with :class:`~repro.exceptions.DeadlineExceededError`, before
        the session lease, the admission gate, or any PSR work is
        touched.  The scope is thread-local, so concurrently served
        requests never see each other's deadlines.
        """
        deadline = (
            Deadline.after_ms(spec.deadline_ms)
            if spec.deadline_ms is not None
            else None
        )
        with scoped(deadline):
            check_deadline("at request admission")
            yield

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _store_counters(self) -> Optional[Dict[str, int]]:
        """Absolute store counters, or ``None`` without a store."""
        if self.store is None:
            return None
        return self.store.counters()

    def _with_store_delta(
        self,
        counters: Optional[Dict[str, int]],
        before: Optional[Dict[str, int]],
    ) -> Optional[Dict[str, int]]:
        """Merge per-request store counter deltas into an envelope.

        With a store attached, every envelope's ``counters`` carries
        the :data:`~repro.core.counters.STORE_COUNTERS` deltas next to
        the session counters -- segment writes and quarantines are
        visible per request, not just in aggregate.
        """
        if before is None:
            return counters
        after = self.store.counters()
        merged = dict(counters or {})
        for name in STORE_COUNTERS:
            merged[name] = after[name] - before[name]
        return merged

    def _replay_journal(self) -> None:
        """Re-execute journaled cleanings whose segments are missing.

        Runs once, at construction.  A pending record means a crash
        struck after the journal append but before the outcome
        segment's commit; cleaning is deterministic given the spec's
        seed, so re-executing it against the (durable) base snapshot
        regenerates bit-identical content.  The regenerated snapshot
        id *and* content hash must match the journaled ones --
        anything else means the durable history is inconsistent, and
        opening fails with
        :class:`~repro.exceptions.JournalReplayError` rather than
        serving state that contradicts the journal.
        """
        assert self.store is not None
        for record in self.store.pending_cleanings():
            base = record.get("base")
            outcome_id = record.get("outcome")
            if base not in self.pool:
                raise JournalReplayError(
                    f"journaled cleaning of base snapshot {base!r} cannot "
                    f"be replayed: its segment is missing or quarantined"
                )
            spec_payload = dict(record.get("spec") or {})
            # Replay must complete, not re-honor the original request's
            # long-gone latency budget.  Older journals also carry a
            # ``retry_policy`` (null), a field specs no longer have;
            # strip it or the spec would not decode.  Snapshot ids hash
            # content, not specs, so no journaled id changes.
            spec_payload.pop("deadline_ms", None)
            spec_payload.pop("retry_policy", None)
            try:
                spec = CleaningSpec.from_dict(spec_payload)
            except InvalidSpecError as exc:
                raise JournalReplayError(
                    f"journaled cleaning spec of base {base!r} does not "
                    f"decode: {exc}"
                ) from exc
            self._replaying = True
            try:
                result = self.clean(base, spec)
            finally:
                self._replaying = False
            regenerated = result.payload.get("new_snapshot_id")
            if regenerated != outcome_id or self.pool.database(
                outcome_id
            ).content_hash() != record.get("outcome_hash"):
                raise JournalReplayError(
                    f"replaying the journaled cleaning of {base!r} "
                    f"produced snapshot {regenerated!r}, but the journal "
                    f"recorded {outcome_id!r} (hash "
                    f"{record.get('outcome_hash')!r}); the durable history "
                    f"is inconsistent"
                )
            self.store.note_replayed()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def register(
        self, db: Union[ProbabilisticDatabase, RankedDatabase]
    ) -> ServiceResult:
        """Register a database snapshot; idempotent by content hash.

        With a store attached the snapshot is durably persisted before
        it is published (see :meth:`repro.api.pool.SessionPool.\
register`), and the envelope's ``counters`` reports the store's
        per-request deltas.
        """
        start = time.perf_counter()
        store_before = self._store_counters()
        snapshot_id = self.pool.register(db)
        ranked = self.pool.ranked(snapshot_id)
        return ServiceResult(
            kind="register",
            snapshot_id=snapshot_id,
            payload={
                "num_xtuples": ranked.num_xtuples,
                "num_tuples": ranked.num_tuples,
                "name": ranked.db.name,
            },
            timing_ms=(time.perf_counter() - start) * 1000.0,
            counters=self._with_store_delta(None, store_before),
        )

    def database(self, snapshot_id: str) -> ProbabilisticDatabase:
        """The immutable database registered under ``snapshot_id``."""
        return self.pool.database(snapshot_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, snapshot_id: str, spec: QuerySpec) -> ServiceResult:
        """Answer the requested top-k semantics on one snapshot."""
        start = time.perf_counter()
        store_before = self._store_counters()
        with self._admitted(spec), self.pool.lease(snapshot_id) as session:
            check_deadline("after queueing for a session lease")
            before = _counters_of(session)
            payload = self._query_payload(session, spec)
            counters = self._with_store_delta(
                _counter_delta(before, session), store_before
            )
        return ServiceResult(
            kind="query",
            snapshot_id=snapshot_id,
            payload=payload,
            spec=spec.to_dict(),
            timing_ms=(time.perf_counter() - start) * 1000.0,
            counters=counters,
        )

    def quality(self, snapshot_id: str, spec: QualitySpec) -> ServiceResult:
        """Score the top-k query's PWS-quality on one snapshot."""
        start = time.perf_counter()
        store_before = self._store_counters()
        with self._admitted(spec), self.pool.lease(snapshot_id) as session:
            check_deadline("after queueing for a session lease")
            before = _counters_of(session)
            payload = self._quality_payload(session, spec)
            counters = self._with_store_delta(
                _counter_delta(before, session), store_before
            )
        return ServiceResult(
            kind="quality",
            snapshot_id=snapshot_id,
            payload=payload,
            spec=spec.to_dict(),
            timing_ms=(time.perf_counter() - start) * 1000.0,
            counters=counters,
        )

    def batch(self, snapshot_id: str, spec: BatchSpec) -> ServiceResult:
        """Evaluate many query/quality specs sharing one max-k PSR pass.

        The snapshot's session is prefilled at ``spec.max_k``
        (:meth:`~repro.queries.engine.QuerySession.prefill`), after
        which every item -- whatever its ``k`` -- is served from cache:
        the whole batch costs at most **one** full PSR pass.  The
        result payload carries one envelope dict per item, in order.
        """
        start = time.perf_counter()
        store_before = self._store_counters()
        with self._admitted(spec), self.pool.lease(snapshot_id) as session:
            check_deadline("after queueing for a session lease")
            before = _counters_of(session)
            # Only items that ride the PSR cache size the shared pass:
            # an enumeration/sampling QualitySpec never reads it, so its
            # (possibly huge) k must not inflate the O(k_max·n) scan.
            session.prefill(
                item.k
                for item in spec.items
                if isinstance(item, QuerySpec) or item.method == "tp"
            )
            items = []
            for item in spec.items:
                item_start = time.perf_counter()
                item_before = _counters_of(session)
                if isinstance(item, QuerySpec):
                    kind = "query"
                    payload = self._query_payload(session, item)
                else:
                    kind = "quality"
                    payload = self._quality_payload(session, item)
                items.append(
                    ServiceResult(
                        kind=kind,
                        snapshot_id=snapshot_id,
                        payload=payload,
                        spec=item.to_dict(),
                        timing_ms=(time.perf_counter() - item_start)
                        * 1000.0,
                        counters=_counter_delta(item_before, session),
                    ).to_dict()
                )
            counters = self._with_store_delta(
                _counter_delta(before, session), store_before
            )
        return ServiceResult(
            kind="batch",
            snapshot_id=snapshot_id,
            payload={"max_k": spec.max_k, "items": items},
            spec=spec.to_dict(),
            timing_ms=(time.perf_counter() - start) * 1000.0,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------
    def clean(self, snapshot_id: str, spec: CleaningSpec) -> ServiceResult:
        """Plan -- and with ``spec.execute``, simulate -- cleaning.

        Never mutates the input snapshot.  Executed outcomes are
        derived one change set per round through the incremental delta
        path and
        registered as a **new** snapshot (its warm, PSR-patched session
        seeded into the pool); the payload names it under
        ``"new_snapshot_id"``.  Plan-only requests leave the registry
        untouched and report the plan and its expected improvement.

        With a store attached (and ``spec.durable`` not ``False``),
        the outcome is **write-ahead journaled** before it is
        registered: the journal records the base snapshot, the full
        spec and the outcome's content hash, and only then is the
        outcome segment persisted and published.  A crash anywhere in
        between is recovered at the next open by re-executing the
        journaled spec -- the execution is deterministic given
        ``spec.seed`` -- so callers observe either the pre-clean or
        the post-clean state, never a half-applied one.
        """
        start = time.perf_counter()
        store_before = self._store_counters()
        with self._admitted(spec), self.pool.lease(snapshot_id) as session:
            check_deadline("after queueing for a session lease")
            before = _counters_of(session)
            db = session.db
            costs, sc = self._cleaning_inputs(session.ranked, spec)
            quality = session.quality(spec.k)
            problem = build_cleaning_problem(quality, costs, sc, spec.budget)
            planner: Cleaner = _PLANNERS[spec.planner]()
            payload: Dict[str, Any] = {
                "k": spec.k,
                "budget": spec.budget,
                "planner": planner.name,
                "quality_before": quality.quality,
            }
            final_session = session
            if spec.execute and spec.adaptive:
                # The adaptive loop re-plans every round itself; a
                # separate upfront plan would double the (possibly
                # pseudo-polynomial DP) planning cost and describe a
                # plan the run never executes.  The payload's "plan" is
                # the first executed round's probe assignment;
                # "expected_improvement" is omitted.
                extra, final_session = self._execute_payload(
                    db, problem, planner, None, session, spec
                )
                payload.update(extra)
            else:
                plan = planner.plan(problem)
                payload["plan"] = {
                    "operations": dict(sorted(plan.operations.items())),
                    "total_operations": plan.total_operations,
                    "total_cost": plan.total_cost(problem),
                }
                payload["expected_improvement"] = expected_improvement(
                    problem, plan
                )
                if spec.execute:
                    extra, final_session = self._execute_payload(
                        db, problem, planner, plan, session, spec
                    )
                    payload.update(extra)
            # Derive chains carry counters cumulatively, so the chain's
            # last session reports the whole request's evaluation cost.
            counters = _counter_delta(before, final_session)
            if spec.execute and final_session is not session:
                outcome_ranked = final_session.ranked
                if (
                    self.store is not None
                    and spec.durable is not False
                    and not self._replaying
                ):
                    # WAL ordering: the journal record must be durable
                    # before the outcome segment (or the in-memory
                    # entry) exists, so a crash after this line is
                    # recoverable by deterministic re-execution.
                    self.store.journal_clean(
                        snapshot_id,
                        spec.to_dict(),
                        snapshot_id_of(outcome_ranked.db),
                        outcome_ranked.db.content_hash(),
                    )
                # Publish the outcome snapshot (and its warm patched
                # session) only after the counters were read: once the
                # session is in the pool another thread may lease it
                # and advance those counters concurrently.
                payload["new_snapshot_id"] = self.pool.register(
                    outcome_ranked,
                    session=final_session,
                    durable=spec.durable,
                )
            elif spec.execute:
                # All probes failed: the outcome is content-equal to
                # the input snapshot, so it registers to the same id.
                payload["new_snapshot_id"] = snapshot_id
            counters = self._with_store_delta(counters, store_before)
        return ServiceResult(
            kind="clean",
            snapshot_id=snapshot_id,
            payload=payload,
            spec=spec.to_dict(),
            timing_ms=(time.perf_counter() - start) * 1000.0,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _query_payload(
        self, session: QuerySession, spec: QuerySpec
    ) -> Dict[str, Any]:
        """Answer payload for one query spec (session already leased)."""
        payload: Dict[str, Any] = {"k": spec.k}
        if spec.semantics in ("ukranks", "all"):
            ukranks = session.ukranks(spec.k)
            payload["ukranks"] = {
                "winners": [
                    {"rank": w.rank, "tid": w.tid, "probability": w.probability}
                    for w in ukranks.winners
                ]
            }
        if spec.semantics in ("ptk", "all"):
            ptk = session.ptk(spec.k, spec.threshold)
            payload["ptk"] = {
                "threshold": spec.threshold,
                "members": [[tid, p] for tid, p in ptk.members],
            }
        if spec.semantics in ("global-topk", "all"):
            global_topk = session.global_topk(spec.k)
            payload["global_topk"] = {
                "members": [[tid, p] for tid, p in global_topk.members]
            }
        if spec.semantics == "all":
            payload["quality"] = session.quality(spec.k).quality
        return payload

    def _quality_payload(
        self, session: QuerySession, spec: QualitySpec
    ) -> Dict[str, Any]:
        """Quality payload; only ``"tp"`` rides the shared session."""
        payload: Dict[str, Any] = {"k": spec.k, "method": spec.method}
        if spec.method == "tp":
            payload["quality"] = session.quality(spec.k).quality
            return payload
        kwargs: Dict[str, Any] = {}
        if spec.method == "montecarlo":
            kwargs["num_samples"] = spec.samples
        result = compute_quality_detailed(
            session.ranked, spec.k, method=spec.method, **kwargs
        )
        payload["quality"] = result.quality
        num_results = getattr(result, "num_results", None)
        if num_results is not None:
            payload["num_results"] = num_results
        return payload

    def _cleaning_inputs(
        self, ranked: RankedDatabase, spec: CleaningSpec
    ) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Resolve the spec's costs / sc-probabilities against a snapshot.

        Explicit mappings pass through unchanged -- coverage against
        the snapshot's x-tuples is validated by
        :func:`~repro.cleaning.model.build_cleaning_problem`, which
        raises :class:`~repro.exceptions.UnknownXTupleError` naming the
        offending identifier.  Omitted mappings are generated from the
        spec's seeds (the paper's experimental setup).
        """
        db = ranked.db
        costs = (
            dict(spec.costs)
            if spec.costs is not None
            else generate_costs(db, seed=spec.cost_seed)
        )
        sc = (
            dict(spec.sc_probabilities)
            if spec.sc_probabilities is not None
            else generate_sc_probabilities(db, seed=spec.sc_seed)
        )
        return costs, sc

    def _execute_payload(
        self,
        db: ProbabilisticDatabase,
        problem: CleaningProblem,
        planner: Cleaner,
        plan: Optional[CleaningPlan],
        session: QuerySession,
        spec: CleaningSpec,
    ) -> Tuple[Dict[str, Any], QuerySession]:
        """Simulate execution; the caller registers the outcome.

        ``plan`` is ``None`` for adaptive requests (the loop plans each
        round itself; the payload then reports the first round's probe
        assignment as the plan).  Returns the execution payload fields
        and the end-of-chain session (whose cumulative counters cover
        the whole request).  Registration of the outcome snapshot is
        deliberately left to :meth:`clean`, which must read the
        session's counters *before* publishing it to the pool.
        """
        rng = random.Random(spec.seed)
        if spec.adaptive:
            result = clean_adaptively(
                db, problem, planner, rng=rng, session=session
            )
            out_session = result.session
            assert out_session is not None
            records = [
                r for round_ in result.rounds for r in round_.outcome.records
            ]
            cost_assigned = sum(
                round_.outcome.cost_assigned for round_ in result.rounds
            )
            first = result.rounds[0].outcome if result.rounds else None
            extra: Dict[str, Any] = {
                "rounds": len(result.rounds),
                "cost_spent": result.budget_spent,
                "quality_after": result.final_quality,
                "plan": {
                    "operations": (
                        {r.xid: r.assigned for r in sorted(first.records, key=lambda r: r.xid)}
                        if first is not None
                        else {}
                    ),
                    "total_operations": (
                        sum(r.assigned for r in first.records) if first else 0
                    ),
                    "total_cost": first.cost_assigned if first else 0,
                },
            }
        else:
            assert plan is not None
            outcome = execute_plan(db, problem, plan, rng=rng, session=session)
            out_session = outcome.session
            assert out_session is not None
            records = list(outcome.records)
            cost_assigned = outcome.cost_assigned
            extra = {
                "rounds": 1,
                "cost_spent": outcome.cost_spent,
                "quality_after": out_session.quality(spec.k).quality,
            }
        extra.update(
            {
                "cost_assigned": cost_assigned,
                "probes": [
                    {
                        "xid": r.xid,
                        "assigned": r.assigned,
                        "performed": r.performed,
                        "succeeded": r.succeeded,
                        "revealed_tid": r.revealed_tid,
                        "revealed_null": r.revealed_null,
                    }
                    for r in records
                ],
                "num_succeeded": sum(1 for r in records if r.succeeded),
            }
        )
        return extra, out_session
