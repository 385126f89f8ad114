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
an executed outcome is derived from its base one change set per round
(:meth:`~repro.db.database.RankedDatabase.with_xtuples_changed`) and
registered as a *new* snapshot whose warm session (derived through
the change set) is seeded into the pool.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.api.pool import SessionPool, snapshot_id_of
from repro.api.results import ServiceResult
from repro.api.specs import BatchSpec, CleaningSpec, QualitySpec, QuerySpec
from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.base import Cleaner
from repro.cleaning.dp import DPCleaner
from repro.cleaning.executor import execute_plan
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.improvement import expected_improvement
from repro.cleaning.model import CleaningPlan, build_cleaning_problem
from repro.cleaning.random_cleaners import RandPCleaner, RandUCleaner
from repro.core.counters import SESSION_COUNTERS
from repro.core.quality import compute_quality_detailed
from repro.core.resilience import Deadline, check_deadline, scoped
from repro.datasets.synthetic import draw_costs, draw_sc_probabilities
from repro.db.database import ChangeSet, ProbabilisticDatabase, RankedDatabase
from repro.db.ranking import RankingFunction
from repro.exceptions import (
    CorruptSnapshotError,
    InvalidDatabaseError,
    InvalidSpecError,
    JournalReplayError,
)
from repro.queries.engine import QuerySession
from repro.store import SnapshotStore, clean_record

_PLANNERS: Dict[str, type] = {
    "dp": DPCleaner,
    "greedy": GreedyCleaner,
    "randp": RandPCleaner,
    "randu": RandUCleaner,
}


def _counters_of(session: QuerySession) -> Dict[str, int]:
    return {name: getattr(session, name) for name in SESSION_COUNTERS}


def _delta(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, int]:
    """Per-request deltas of cumulative counters, in registry order."""
    return {name: after[name] - value for name, value in before.items()}


class TopKService:
    """Thread-safe façade over snapshots, queries, quality and cleaning.

    Parameters
    ----------
    pool:
        The :class:`~repro.api.pool.SessionPool` to serve from.  The
        session cache, admission gate, store and retention policy are
        the pool's settings: build the pool (and its
        :class:`~repro.store.SnapshotStore`) to change them.
    ranking / store_dir:
        Settings of the default pool, built when ``pool`` is omitted:
        the ranking of raw registered databases (by-value when
        omitted) and, with ``store_dir``, a durable
        :class:`~repro.store.SnapshotStore` at that directory, with its
        default settings.  Passing either together with ``pool`` raises
        ``ValueError``.

    With a store, its recovered snapshots seed the pool, every
    registration persists before publishing, executed cleanings are
    write-ahead journaled, and pending journal records are replayed
    here in the constructor (:meth:`_replay_journal`).
    """

    def __init__(
        self,
        pool: Optional[SessionPool] = None,
        ranking: Optional[RankingFunction] = None,
        store_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if pool is None:
            pool = SessionPool(
                ranking=ranking,
                store=SnapshotStore(store_dir) if store_dir is not None else None,
            )
        elif ranking is not None or store_dir is not None:
            raise ValueError(
                "pass ranking/store_dir only when the service creates its "
                "own pool; configure an explicit pool directly"
            )
        self.pool = pool
        self.store = pool.store
        if self.store is not None:
            self._replay_journal()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _replay_journal(self) -> None:
        """Rebuild journaled cleanings whose segments are missing.

        Runs once, at construction, in journal order.  A pending record
        means a crash struck after the journal append but before the
        outcome segment's commit.  The outcome comes from one of two
        sources, by the record's schema:

        * **schema 2** records carry the outcome as its base plus a
          change set: replay applies it to the base's registered view
          (:meth:`~repro.db.database.RankedDatabase.with_change_set`).
          It leases nothing, plans nothing, runs no PSR or TP kernel
          and never decodes the spec, so a kernel change cannot make a
          store refuse to open;
        * **schema 1** records (stores written before change sets were
          journaled) re-execute the spec on the base snapshot's leased
          session -- cleaning is deterministic given the spec's seed.

        Either way, the outcome's snapshot id *and* content hash are
        checked against the record before anything is written:

        * a match registers the outcome with ``base=`` and its change
          set -- the record's, or the one the re-execution carried --
          so the store may persist it as a delta segment; no journal
          record is appended, since the replayed record already covers
          it;
        * a mismatch, a malformed change set, or a base that is
          missing or fails its first-use rebuild (which quarantines
          it) raises :class:`~repro.exceptions.JournalReplayError` and
          writes nothing -- opening fails rather than serving state
          that contradicts the journal.

        Each outcome is registered before the next record replays, so
        a record whose base is an earlier record's outcome replays
        too.  Replay runs outside any request, so a journaled
        ``deadline_ms`` bounds nothing.
        """
        assert self.store is not None
        for record in self.store.pending_cleanings():
            base = record.get("base")
            if base not in self.pool:
                raise JournalReplayError(
                    f"journaled cleaning of base snapshot {base!r} cannot "
                    f"be replayed: its segment is missing or quarantined"
                )
            try:
                base_view = self.pool.ranked(base)
            except CorruptSnapshotError as exc:
                raise JournalReplayError(
                    f"journaled cleaning of base snapshot {base!r} cannot "
                    f"be replayed: its segment failed its rebuild ({exc})"
                ) from exc
            if record.get("schema") == 1:
                self._reexecute(base, record)
            else:
                changes = record.get("changes")
                try:
                    outcome = base_view.with_change_set(changes)
                except InvalidDatabaseError as exc:
                    raise JournalReplayError(
                        f"journaled change set of base {base!r} does not "
                        f"apply: {exc}"
                    ) from exc
                _check_replayed(base, record, outcome.db)
                self.pool.register(outcome, base=base, changes=changes)
            self.store.note_replayed()

    def _reexecute(self, base: str, record: Mapping[str, Any]) -> None:
        """Replay one schema-1 record by re-executing its spec."""
        spec_payload = dict(record.get("spec") or {})
        # Older journals carry a ``retry_policy`` (null), a field specs
        # no longer have; strip it or the spec would not decode.
        # Snapshot ids hash content, not specs, so no journaled id
        # changes.
        spec_payload.pop("retry_policy", None)
        try:
            spec = CleaningSpec.from_dict(spec_payload)
        except InvalidSpecError as exc:
            raise JournalReplayError(
                f"journaled cleaning spec of base {base!r} does not "
                f"decode: {exc}"
            ) from exc
        with self.pool.lease(base) as session:
            _, outcome, changes = self._plan_and_execute(session, spec)
            _check_replayed(base, record, outcome.db)
            self.pool.register(
                outcome.ranked,
                session=outcome,
                durable=spec.durable,
                base=base,
                changes=changes,
            )

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
        per-request deltas, and nothing else.
        """
        start = time.perf_counter()
        store = self.store
        store_before = store.counters() if store is not None else {}
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
            counters=(
                _delta(store_before, store.counters())
                if store is not None
                else None
            ),
        )

    def database(self, snapshot_id: str) -> ProbabilisticDatabase:
        """The immutable database registered under ``snapshot_id``."""
        return self.pool.database(snapshot_id)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def query(self, snapshot_id: str, spec: QuerySpec) -> ServiceResult:
        """Answer the requested top-k semantics on one snapshot."""
        return self._serve(
            "query",
            snapshot_id,
            spec,
            lambda session: (self._query_payload(session, spec), session),
        )

    def quality(self, snapshot_id: str, spec: QualitySpec) -> ServiceResult:
        """Score the top-k query's PWS-quality on one snapshot."""
        return self._serve(
            "quality",
            snapshot_id,
            spec,
            lambda session: (self._quality_payload(session, spec), session),
        )

    def batch(self, snapshot_id: str, spec: BatchSpec) -> ServiceResult:
        """Evaluate many query/quality specs sharing one max-k PSR pass.

        The snapshot's session is prefilled at ``spec.max_k``
        (:meth:`~repro.queries.engine.QuerySession.prefill`), after
        which every item -- whatever its ``k`` -- is served from cache:
        the whole batch costs at most **one** full PSR pass.  The
        result payload carries one envelope dict per item, in order.
        """
        return self._serve(
            "batch",
            snapshot_id,
            spec,
            lambda session: (
                self._batch_payload(snapshot_id, session, spec),
                session,
            ),
        )

    def clean(self, snapshot_id: str, spec: CleaningSpec) -> ServiceResult:
        """Plan -- and with ``spec.execute``, simulate -- cleaning.

        Never mutates the input snapshot.  An executed outcome is
        registered as a **new** snapshot (its warm, delta-derived
        session seeded into the pool); the payload names it under
        ``"new_snapshot_id"``, which is the input snapshot's own id
        when every probe failed.  Plan-only requests leave the registry
        untouched and report the plan and its expected improvement.

        With a store attached (and ``spec.durable`` not ``False``),
        the outcome is **write-ahead journaled** before it is
        registered: the journal records the base snapshot, the
        outcome's change set against it, its content hash and the spec
        (as provenance), and only then is the outcome segment
        persisted and published.  A crash anywhere in between is
        recovered at the next open by applying the journaled change
        set to the base, so callers observe either the pre-clean or
        the post-clean state, never a half-applied one.
        """
        applied: List[ChangeSet] = []

        def work(session: QuerySession) -> Tuple[Dict[str, Any], QuerySession]:
            payload, outcome, changes = self._plan_and_execute(session, spec)
            applied.append(changes)
            return payload, outcome

        return self._serve(
            "clean",
            snapshot_id,
            spec,
            work,
            publish=lambda outcome: self._publish(
                snapshot_id, spec, outcome, applied[0]
            ),
        )

    def _serve(
        self,
        kind: str,
        snapshot_id: str,
        spec: Union[QuerySpec, QualitySpec, BatchSpec, CleaningSpec],
        work: Callable[[QuerySession], Tuple[Dict[str, Any], QuerySession]],
        publish: Optional[Callable[[QuerySession], None]] = None,
    ) -> ServiceResult:
        """The one request path of every verb but ``register``.

        In order:

        1. The request's ``deadline_ms`` is scoped (thread-local, so
           concurrently served requests never see each other's), and
           an already-expired one sheds the request with
           :class:`~repro.exceptions.DeadlineExceededError` before the
           lease, the admission gate or any PSR work is touched.
        2. The snapshot's session is leased, and the deadline is
           re-checked after the queueing (an adaptive clean checks it
           again before every round,
           :func:`~repro.cleaning.adaptive.clean_adaptively`).
        3. ``work`` runs on the leased session and returns the payload
           and the session it ended on: the leased one, unless an
           executed clean derived another.  The envelope reports that
           session's counter deltas; derived sessions carry counters
           cumulatively, so they cover the whole request.
        4. ``publish`` receives an end-of-chain session that differs
           from the leased one.  It runs only after the counters were
           read: once the session is in the pool another thread may
           lease it and advance them.
        5. With a store, the store-counter deltas join the envelope;
           they include the publish step's writes.
        """
        start = time.perf_counter()
        store = self.store
        store_before = store.counters() if store is not None else {}
        deadline = (
            Deadline.after_ms(spec.deadline_ms)
            if spec.deadline_ms is not None
            else None
        )
        with scoped(deadline):
            check_deadline("at request admission")
            with self.pool.lease(snapshot_id) as session:
                check_deadline("after queueing for a session lease")
                before = _counters_of(session)
                payload, outcome = work(session)
                counters = _delta(before, _counters_of(outcome))
                if publish is not None and outcome is not session:
                    publish(outcome)
                if store is not None:
                    counters.update(_delta(store_before, store.counters()))
        return ServiceResult(
            kind=kind,
            snapshot_id=snapshot_id,
            payload=payload,
            spec=spec.to_dict(),
            timing_ms=(time.perf_counter() - start) * 1000.0,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Payloads (the session is already leased)
    # ------------------------------------------------------------------
    def _query_payload(
        self, session: QuerySession, spec: QuerySpec
    ) -> Dict[str, Any]:
        """Answer payload for one query spec."""
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

    def _batch_payload(
        self, snapshot_id: str, session: QuerySession, spec: BatchSpec
    ) -> Dict[str, Any]:
        """One prefilled pass, then one envelope dict per item."""
        # Only items that ride the PSR cache size the shared pass: an
        # enumeration/sampling QualitySpec never reads it, so its
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
                    timing_ms=(time.perf_counter() - item_start) * 1000.0,
                    counters=_delta(item_before, _counters_of(session)),
                ).to_dict()
            )
        return {"max_k": spec.max_k, "items": items}

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------
    def _cleaning_inputs(
        self, ranked: RankedDatabase, spec: CleaningSpec
    ) -> Tuple[
        Union[Mapping[str, int], np.ndarray],
        Union[Mapping[str, float], np.ndarray],
    ]:
        """Resolve the spec's costs / sc-probabilities against a snapshot.

        Omitted ones are drawn from the spec's seeds as arrays in the
        snapshot's x-tuple order (the paper's experimental setup: costs
        uniform in ``[1, 10]``, sc-probabilities uniform in ``[0,
        1]``), bit for bit the values ``random.Random(seed)`` draws
        (:func:`~repro.datasets.synthetic.draw_costs`,
        :func:`~repro.datasets.synthetic.draw_sc_probabilities`) and
        with no per-x-tuple Python loop.  Explicit mappings pass
        through: :func:`~repro.cleaning.model.build_cleaning_problem`
        checks them against the snapshot's x-tuples, raising
        :class:`~repro.exceptions.UnknownXTupleError` naming the
        offending identifier, and gathers them into x-tuple order.
        """
        m = ranked.num_xtuples
        costs: Union[Mapping[str, int], np.ndarray] = (
            spec.costs
            if spec.costs is not None
            else draw_costs(m, seed=spec.cost_seed)
        )
        sc: Union[Mapping[str, float], np.ndarray] = (
            spec.sc_probabilities
            if spec.sc_probabilities is not None
            else draw_sc_probabilities(m, seed=spec.sc_seed)
        )
        return costs, sc

    def _plan_and_execute(
        self, session: QuerySession, spec: CleaningSpec
    ) -> Tuple[Dict[str, Any], QuerySession, ChangeSet]:
        """Plan -- and with ``spec.execute``, simulate -- one cleaning.

        Side-effect free: nothing is journaled, persisted or
        registered, so :meth:`clean` publishes the outcome afterwards
        (:meth:`_publish`) and journal replay verifies it first; an
        adaptive run past the request's deadline raises between
        rounds with nothing to undo.  Returns the payload, the
        end-of-chain session, which is ``session`` itself unless a
        probe changed the database, and the change set the execution
        carried from the probes (empty for a plan-only request).
        """
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
        plan: Optional[CleaningPlan] = None
        if not (spec.execute and spec.adaptive):
            # The adaptive loop re-plans every round itself; a separate
            # upfront plan would double the (possibly pseudo-polynomial
            # DP) planning cost and describe a plan the run never
            # executes.  An adaptive payload's "plan" is the first
            # executed round's probe assignment, and it omits
            # "expected_improvement".
            plan = planner.plan(problem)
            payload["plan"] = {
                "operations": dict(sorted(plan.operations.items())),
                "total_operations": plan.total_operations,
                "total_cost": plan.total_cost(problem),
            }
            payload["expected_improvement"] = expected_improvement(
                problem, plan
            )
        if not spec.execute:
            return payload, session, {}
        rng = random.Random(spec.seed)
        if plan is None:
            result = clean_adaptively(
                db, problem, planner, rng=rng, session=session
            )
            outcome = result.session
            assert outcome is not None
            changes = result.changes
            records = [
                r for round_ in result.rounds for r in round_.outcome.records
            ]
            first = result.rounds[0].outcome if result.rounds else None
            first_records = first.records if first is not None else ()
            payload.update(
                {
                    "rounds": len(result.rounds),
                    "cost_spent": result.budget_spent,
                    "quality_after": result.final_quality,
                    "plan": {
                        "operations": {
                            r.xid: r.assigned
                            for r in sorted(first_records, key=lambda r: r.xid)
                        },
                        "total_operations": sum(
                            r.assigned for r in first_records
                        ),
                        "total_cost": (
                            first.cost_assigned if first is not None else 0
                        ),
                    },
                    "cost_assigned": sum(
                        round_.outcome.cost_assigned
                        for round_ in result.rounds
                    ),
                }
            )
        else:
            executed = execute_plan(db, problem, plan, rng=rng, session=session)
            outcome = executed.session
            assert outcome is not None
            changes = executed.changes
            records = list(executed.records)
            payload.update(
                {
                    "rounds": 1,
                    "cost_spent": executed.cost_spent,
                    "quality_after": outcome.quality(spec.k).quality,
                    "cost_assigned": executed.cost_assigned,
                }
            )
        payload["probes"] = [
            {
                "xid": r.xid,
                "assigned": r.assigned,
                "performed": r.performed,
                "succeeded": r.succeeded,
                "revealed_tid": r.revealed_tid,
                "revealed_null": r.revealed_null,
            }
            for r in records
        ]
        payload["num_succeeded"] = sum(1 for r in records if r.succeeded)
        payload["new_snapshot_id"] = snapshot_id_of(outcome.db)
        return payload, outcome, changes

    def _publish(
        self,
        snapshot_id: str,
        spec: CleaningSpec,
        outcome: QuerySession,
        changes: ChangeSet,
    ) -> None:
        """Journal an executed outcome, then register it warm.

        ``changes`` is the change set the execution carried: the
        outcome is the ``snapshot_id`` snapshot plus ``changes``
        (:attr:`~repro.cleaning.executor.CleaningOutcome.changes`), so
        nothing here walks the database to recompute it.

        WAL ordering: with a store (and ``spec.durable`` not
        ``False``) the journal record -- the outcome as its base plus
        ``changes`` -- is durable before the outcome segment or the
        in-memory entry exists, so a crash after the append is
        recoverable by applying the change set again.  The store
        journals only on a base it holds durably and live (the check
        :meth:`~repro.store.SnapshotStore.journal_clean` makes): the
        outcome of a memory-only snapshot gets no record and persists
        as a full segment, so a crash before that commit loses only a
        clean nobody was told about.  The outcome registers with its base
        and ``changes``, which lets the store persist it as a delta
        segment.  The record, the segment and the retention sweep are
        one store transaction, under one hold of the store's writer
        lock (:meth:`~repro.store.SnapshotStore.persist`, through
        :meth:`~repro.api.pool.SessionPool.register`).
        """
        ranked = outcome.ranked
        record = None
        if self.store is not None and spec.durable is not False:
            record = clean_record(
                snapshot_id,
                spec.to_dict(),
                snapshot_id_of(ranked.db),
                ranked.db.content_hash(),
                changes,
            )
        self.pool.register(
            ranked,
            session=outcome,
            durable=spec.durable,
            base=snapshot_id,
            changes=changes,
            record=record,
        )


def _check_replayed(
    base: str, record: Mapping[str, Any], outcome: ProbabilisticDatabase
) -> None:
    """Refuse a replayed outcome whose id or hash the record contradicts."""
    regenerated = snapshot_id_of(outcome)
    if (
        regenerated != record.get("outcome")
        or outcome.content_hash() != record.get("outcome_hash")
    ):
        raise JournalReplayError(
            f"replaying the journaled cleaning of {base!r} produced "
            f"snapshot {regenerated!r}, but the journal recorded "
            f"{record.get('outcome')!r} (hash {record.get('outcome_hash')!r}); "
            f"the durable history is inconsistent"
        )
