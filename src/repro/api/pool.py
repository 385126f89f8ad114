"""Thread-safe snapshot registry and :class:`QuerySession` pool.

:class:`~repro.queries.engine.QuerySession` is deliberately not
thread-safe -- it memoizes PSR state behind plain dict lookups.  The
pool makes sessions safe to serve concurrently by construction:

* **Snapshots** are immutable ranked databases registered under their
  content hash (:meth:`repro.db.database.ProbabilisticDatabase.\
content_hash`), so registration is idempotent and a snapshot id names
  one logical database forever.
* **Sessions** are memoized per snapshot in an LRU map bounded by
  ``max_sessions``; the *n*-th distinct hot snapshot evicts the least
  recently leased one (its caches are rebuilt on next lease -- never
  wrong, only cold).  Every pooled session runs the production NumPy
  kernels; the scalar oracle is not selectable here.
* **Leases** hand out a session under that snapshot's private lock
  (:meth:`SessionPool.lease` is a context manager), so at most one
  thread touches a given session at a time while different snapshots
  proceed in parallel.  Registry bookkeeping itself is guarded by one
  short-held pool lock; no lock is ever held across kernel work of a
  *different* snapshot.
* **Admission** is gated: at most ``max_in_flight`` leases are live at
  once, a lease request waits at most ``admission_timeout_ms`` for a
  slot (less, if the request's scoped deadline is tighter), and a
  saturated pool **sheds** with
  :class:`~repro.exceptions.ServiceOverloadedError` instead of
  queueing unboundedly -- overload degrades into fast failures, not
  into every request timing out.

The pool is the concurrency substrate of
:class:`~repro.api.service.TopKService`; nothing in it knows about
specs or results.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Set, Union

from repro.core.lockcheck import (
    RANK_ADMISSION,
    RANK_POOL_REGISTRY,
    RANK_SNAPSHOT,
    OrderedLock,
    OrderedSemaphore,
)
from repro.core.resilience import current_deadline
from repro.db.database import ProbabilisticDatabase, RankedDatabase
from repro.db.ranking import RankingFunction, rankings_equivalent
from repro.exceptions import (
    CorruptSnapshotError,
    ServiceOverloadedError,
    UnknownSnapshotError,
)
from repro.queries.engine import QuerySession
from repro.store import RetentionPolicy, SnapshotStore

#: Default bound on concurrently cached sessions.
DEFAULT_MAX_SESSIONS = 8

#: Default bound on concurrently served leases (the admission gate).
DEFAULT_MAX_IN_FLIGHT = 32

#: Default bounded wait for an admission slot, in milliseconds.
DEFAULT_ADMISSION_TIMEOUT_MS = 1000.0

#: Snapshot-id prefix (purely cosmetic; the suffix is the content hash).
SNAPSHOT_PREFIX = "snap-"

#: Hex digits of the content hash kept in the public snapshot id.
SNAPSHOT_ID_HEX = 16


def snapshot_id_of(db: ProbabilisticDatabase) -> str:
    """The content-derived snapshot id a database registers under."""
    return SNAPSHOT_PREFIX + db.content_hash()[:SNAPSHOT_ID_HEX]


class SessionPool:
    """Concurrent registry of snapshots and their cached query sessions.

    Parameters
    ----------
    max_sessions:
        Upper bound on memoized sessions (LRU-evicted beyond it).  The
        snapshot registry itself is unbounded -- snapshots are the
        data; sessions are the (re-creatable) caches.
    ranking:
        Ranking function applied when a raw database is registered;
        defaults to by-value.
    max_in_flight:
        Admission gate: most leases live at once.  The ``max_in_flight
        + 1``-th concurrent lease waits for a slot and is shed with
        :class:`~repro.exceptions.ServiceOverloadedError` if none
        frees up within the admission timeout.
    admission_timeout_ms:
        Longest a lease waits for an admission slot.  A scoped request
        deadline tighter than this bounds the wait further.
    store:
        Optional :class:`~repro.store.SnapshotStore` backing the
        registry.  When set, the store's recovered snapshots are
        adopted at construction and every registration persists its
        segment durably **before** publishing the in-memory entry, so
        memory and disk can never disagree: a snapshot the pool serves
        is on disk, and a failed write publishes nothing.
    retention:
        Optional :class:`~repro.store.RetentionPolicy` bounding the
        *durable* segment set.  When set (and a store is attached),
        every durable registration triggers :meth:`sweep_store`:
        segments beyond ``keep_last_n`` are tombstoned and reclaimed
        by the store's two-phase GC, except pinned ids and anything
        currently leased or warm in the session cache.  ``None`` (the
        default) keeps every segment forever -- the pre-retention
        behaviour, unchanged.
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        ranking: Optional[RankingFunction] = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        admission_timeout_ms: float = DEFAULT_ADMISSION_TIMEOUT_MS,
        store: Optional[SnapshotStore] = None,
        retention: Optional[RetentionPolicy] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if not admission_timeout_ms >= 0:
            raise ValueError(
                f"admission_timeout_ms must be non-negative, "
                f"got {admission_timeout_ms}"
            )
        self.max_sessions = max_sessions
        self.ranking = ranking
        self.max_in_flight = max_in_flight
        self.admission_timeout_ms = float(admission_timeout_ms)
        # The pool's locks declare their place in the serving stack's
        # lock hierarchy (admission < snapshot < registry); under
        # REPRO_DEBUG_LOCKS=1 any acquisition violating that order
        # raises LockOrderError at the inversion site.
        self._admission = OrderedSemaphore(
            "session-pool.admission", RANK_ADMISSION, max_in_flight
        )
        self._lock = OrderedLock("session-pool.registry", RANK_POOL_REGISTRY)
        self._snapshots: Dict[str, RankedDatabase] = {}
        self._snapshot_locks: Dict[str, OrderedLock] = {}
        self._sessions: "OrderedDict[str, QuerySession]" = OrderedDict()
        #: Live lease counts per snapshot id (guarded by the pool
        #: lock); these ids are always protected from segment GC.
        self._leased: Dict[str, int] = {}
        self.store = store
        self.retention = retention
        if store is not None:
            self._adopt_store(store)
        #: Lease-level cache telemetry (guarded by the pool lock).
        self.session_hits = 0
        self.session_misses = 0
        self.evictions = 0
        #: Admission telemetry: currently admitted leases and requests
        #: shed at the gate (guarded by the pool lock).
        self.in_flight = 0
        self.shed_requests = 0

    # ------------------------------------------------------------------
    # Snapshot registry
    # ------------------------------------------------------------------
    def _adopt_store(self, store: SnapshotStore) -> None:
        """Seed the registry with the store's recovered snapshots.

        One extra integrity check the store itself cannot perform: the
        pool's snapshot-id derivation must reproduce each stored id
        from the recovered content.  A mismatch means the segment was
        written under a different (or broken) id convention; serving
        it under either id would lie to one side, so the segment is
        quarantined and skipped instead.
        """
        for snapshot_id, ranked in store.snapshots().items():
            if snapshot_id_of(ranked.db) != snapshot_id:
                try:
                    store.quarantine_segment(
                        snapshot_id,
                        "stored id does not derive from the content hash",
                    )
                except CorruptSnapshotError:
                    continue
            self._snapshots[snapshot_id] = ranked
            self._snapshot_locks[snapshot_id] = OrderedLock(
                f"snapshot.{snapshot_id}", RANK_SNAPSHOT
            )

    def register(
        self,
        db: Union[ProbabilisticDatabase, RankedDatabase],
        session: Optional[QuerySession] = None,
        durable: Optional[bool] = None,
        base: Optional[str] = None,
    ) -> str:
        """Register an immutable snapshot; returns its content-hash id.

        Idempotent: registering equal content returns the same id and
        keeps the existing ranked view (and any warm session).  An
        already-ranked view is adopted as-is; a raw database is ranked
        under the pool's ranking.  Snapshot ids hash *content* only, so
        re-registering equal content under a ranking that is not
        demonstrably equivalent to the stored view's (see
        :func:`repro.db.ranking.rankings_equivalent`) raises
        ``ValueError`` -- silently answering under the first-registered
        ranking would return wrong query results.  ``session``
        optionally seeds the session cache with an already-warm session
        over the snapshot -- the cleaning path uses this so the
        delta-derived session, whose quality the clean already read,
        serves the outcome snapshot's future requests.

        With a backing store, registration is **persist-first**: the
        ranking check runs before the write, so a rejected registration
        persists nothing, and the segment is durably committed before
        the in-memory entry is published, so a write failure
        (:class:`~repro.exceptions.StoreWriteError`) or a crash
        mid-write leaves the registry exactly as it was -- memory
        never advertises a snapshot disk does not hold.  ``durable``
        ``False`` opts one registration out of persistence (the
        snapshot stays memory-only); ``None``/``True`` persist
        whenever a store is attached.  ``base`` names the snapshot a
        cleaning outcome derives from and is only forwarded to
        :meth:`~repro.store.SnapshotStore.persist`, which alone picks
        the segment kind.
        """
        ranked = db if isinstance(db, RankedDatabase) else None
        raw = ranked.db if ranked is not None else db
        assert isinstance(raw, ProbabilisticDatabase)
        snapshot_id = snapshot_id_of(raw)
        incoming = ranked.ranking if ranked is not None else self.ranking
        if self.store is not None and durable is not False:
            # A registration the pool would reject persists nothing:
            # check before the write, and again at publication below
            # for a concurrent registration that won the race.
            with self._lock:
                self._check_ranking(snapshot_id, incoming)
            if ranked is None:
                ranked = raw.ranked(self.ranking)
            # Outside the registry lock: the store lock (RANK_STORE)
            # ranks below the registry lock, and a slow disk must not
            # block unrelated leases.  The store serializes itself.
            self.store.persist(snapshot_id, ranked, base=base)
            if self.retention is not None:
                self.sweep_store()
        with self._lock:
            self._check_ranking(snapshot_id, incoming)
            if snapshot_id not in self._snapshots:
                if ranked is None:
                    ranked = raw.ranked(self.ranking)
                self._snapshots[snapshot_id] = ranked
                self._snapshot_locks[snapshot_id] = OrderedLock(
                    f"snapshot.{snapshot_id}", RANK_SNAPSHOT
                )
            if session is not None and snapshot_id not in self._sessions:
                self._store_session(snapshot_id, session)
        return snapshot_id

    def _check_ranking(
        self, snapshot_id: str, incoming: Optional[RankingFunction]
    ) -> None:
        """Refuse equal content under another ranking (pool lock held)."""
        stored = self._snapshots.get(snapshot_id)
        if stored is not None and not rankings_equivalent(
            stored.ranking, incoming
        ):
            raise ValueError(
                f"snapshot {snapshot_id!r} is already registered under "
                f"ranking {stored.ranking!r}; re-registering equal "
                f"content under {incoming!r} would silently answer "
                f"queries with the wrong ordering"
            )

    def ranked(self, snapshot_id: str) -> RankedDatabase:
        """The registered ranked view for a snapshot id."""
        with self._lock:
            try:
                return self._snapshots[snapshot_id]
            except KeyError:
                raise UnknownSnapshotError(
                    f"unknown snapshot id {snapshot_id!r}"
                ) from None

    def database(self, snapshot_id: str) -> ProbabilisticDatabase:
        """The registered database for a snapshot id."""
        return self.ranked(snapshot_id).db

    def __contains__(self, snapshot_id: str) -> bool:
        with self._lock:
            return snapshot_id in self._snapshots

    @property
    def num_snapshots(self) -> int:
        """Number of registered snapshots."""
        with self._lock:
            return len(self._snapshots)

    @property
    def num_cached_sessions(self) -> int:
        """Number of memoized sessions (always ``<= max_sessions``)."""
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Session leasing
    # ------------------------------------------------------------------
    def _store_session(self, snapshot_id: str, session: QuerySession) -> None:
        """Insert/refresh an LRU entry; caller holds the pool lock."""
        self._sessions[snapshot_id] = session
        self._sessions.move_to_end(snapshot_id)
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            self.evictions += 1

    def _admit(self) -> None:
        """Take an admission slot or shed within the bounded wait."""
        timeout_s = self.admission_timeout_ms / 1000.0
        deadline = current_deadline()
        if deadline is not None:
            timeout_s = min(timeout_s, max(deadline.remaining_s(), 0.0))
        if not self._admission.acquire(timeout=timeout_s):
            with self._lock:
                self.shed_requests += 1
            raise ServiceOverloadedError(
                f"{self.max_in_flight} requests already in flight and none "
                f"finished within {self.admission_timeout_ms:.0f}ms; "
                f"shedding instead of queueing"
            )
        with self._lock:
            self.in_flight += 1

    @contextmanager
    def lease(self, snapshot_id: str) -> Iterator[QuerySession]:
        """Exclusive access to the snapshot's memoized session.

        Acquires the snapshot's private lock for the duration of the
        ``with`` block, creating (or re-creating, after eviction) the
        session on a cache miss.  Concurrent leases of *different*
        snapshots run in parallel; leases of the same snapshot
        serialize, which is exactly the guarantee
        :class:`~repro.queries.engine.QuerySession` needs.

        Leases pass the admission gate first: when ``max_in_flight``
        are already live and none retires within the bounded admission
        wait, the lease is shed with
        :class:`~repro.exceptions.ServiceOverloadedError` rather than
        joining an unbounded queue.
        """
        with self._lock:
            try:
                ranked = self._snapshots[snapshot_id]
                snapshot_lock = self._snapshot_locks[snapshot_id]
            except KeyError:
                raise UnknownSnapshotError(
                    f"unknown snapshot id {snapshot_id!r}"
                ) from None
        self._admit()
        try:
            with self._lock:
                self._leased[snapshot_id] = (
                    self._leased.get(snapshot_id, 0) + 1
                )
            with snapshot_lock:
                yield self._leased_session(snapshot_id, ranked)
        finally:
            with self._lock:
                self.in_flight -= 1
                remaining = self._leased.get(snapshot_id, 1) - 1
                if remaining <= 0:
                    self._leased.pop(snapshot_id, None)
                else:
                    self._leased[snapshot_id] = remaining
            self._admission.release()

    def _leased_session(
        self, snapshot_id: str, ranked: RankedDatabase
    ) -> QuerySession:
        """The memoized session; caller holds the snapshot lock."""
        with self._lock:
            session = self._sessions.get(snapshot_id)
            if session is not None:
                self._sessions.move_to_end(snapshot_id)
                self.session_hits += 1
            else:
                self.session_misses += 1
        if session is None:
            # Built outside the pool lock: construction ranks
            # nothing (the view exists) but must not block other
            # snapshots' bookkeeping.
            session = QuerySession(ranked)
            with self._lock:
                self._store_session(snapshot_id, session)
        return session

    # ------------------------------------------------------------------
    # Store retention
    # ------------------------------------------------------------------
    def sweep_store(self) -> Optional[Dict[str, object]]:
        """Apply the retention policy to the backing store.

        Tombstones segments beyond ``retention.keep_last_n`` (the
        store's two-phase GC), protecting pinned ids plus every
        snapshot currently leased or warm in the session LRU, then
        checkpoints the journal so reclaimed files are actually
        unlinked.  Registered-but-cold snapshots stay servable from
        memory for this process's lifetime; only their *durable* copy
        is retired.  Returns the GC report, or ``None`` when no store
        or no retention policy is attached.

        The in-use set is passed as a *callback* the store evaluates
        under its exclusive lock, at the moment GC picks its victims
        -- not snapshotted up front.  A lease acquired while the sweep
        is already underway is therefore still protected; its durable
        segment cannot be tombstoned mid-lease.  (Rank order permits
        this: the store's locks rank below the registry lock, so the
        callback's registry acquisition is a legal nesting.)

        Called automatically after each durable registration when a
        retention policy is set; safe to call explicitly (the CLI's
        ``repro store gc`` goes through the store directly).
        """
        if self.store is None or self.retention is None:
            return None

        def in_use() -> Set[str]:
            with self._lock:
                return set(self._leased) | set(self._sessions)

        report = self.store.gc(self.retention, in_use=in_use)
        if report.get("tombstoned"):
            self.store.checkpoint()
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SessionPool: {self.num_snapshots} snapshots, "
            f"{self.num_cached_sessions}/{self.max_sessions} sessions>"
        )
