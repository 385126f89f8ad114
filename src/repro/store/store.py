"""The crash-safe on-disk snapshot store.

:class:`SnapshotStore` owns one directory::

    <root>/
        segments/<snapshot-id>.seg   one segment per snapshot: full, or
                                     a delta on another segment
        journal.wal                  write-ahead log of cleaning outcomes
        store.lock                   cross-process advisory lock file
        quarantine/                  segments that failed verification

and guarantees, under any crash at any point of its write protocols,
that the next open recovers either the complete pre-write state or the
complete post-write state -- never a torn hybrid, and never silently
wrong data.

**Segments** come in two kinds.  A *full* segment holds a snapshot's
structure, as typed columns (schema 4; schemas 1 and 2 hold it as
JSON and stay readable), and its ranked columns.  A *delta* segment
holds only a cleaning outcome's base id and its change set (``{xid:
revealed tid, or null for a revealed null}``, as the clean carried
it), a few hundred bytes
where its full segment would be megabytes: the store writes one when
the outcome's base is live, verified and fewer than
:data:`MAX_DELTA_DEPTH` links above a full segment, and the carried
set passes its O(change) checks (see :meth:`SnapshotStore.persist`).
Both are written atomically, as the journal is rewritten: encode
fully in memory, write to a ``.tmp-*`` sibling, fsync, rename over the
final name, fsync the directory (:meth:`SnapshotStore._replace_file`).
A crash before the rename leaves only a temp file (swept on open ->
pre-state); after it, a fully durable file (post-state).

**An open checks bytes; a snapshot is rebuilt on first use.**  The
open reads every segment file and checks its framing, CRCs, whole-file
digest and header id (:mod:`repro.store.format`), and indexes what
passes.  The rebuild -- and with it every semantic check -- runs when
something first uses the snapshot: a lease, a replay's base,
``persist``'s base check, :meth:`SnapshotStore.snapshots` or
:meth:`SnapshotStore.verify`.  A full segment's rebuild checks its
columns' ids, sizes, probabilities and masses, then the content hash,
then a cold re-rank bitwise against the stored ranked columns; a delta
is rebuilt from its base's view spliced with the change set and must
hash to its header's content hash.  So corruption is *detected*, and
detected corruption is *quarantined* -- moved aside (on an exclusive
handle; a read-only one only refuses it) with a typed
:class:`~repro.exceptions.CorruptSnapshotError`, never served: at
open for a byte-level fault, at first use for a semantic one.  A delta
whose base is missing, tombstoned, quarantined or on a cycle is
quarantined with it, its reason naming the base: a corrupt full
segment takes the deltas above it along, at most
:data:`MAX_DELTA_DEPTH` links of a chain.  An open costs what its
first requests touch, not every live snapshot; a pass that rebuilds
several schema-4 segments builds each *distinct* x-tuple once (see
:meth:`SnapshotStore._rebuild_full`).

**The journal** records each executed cleaning *before* the outcome
segment is written.  A schema-2 record holds the outcome as its base
snapshot plus its change set, with the outcome's id and content hash
and the spec as provenance.  On open, a journaled outcome whose segment
is missing is *pending*: the serving layer
(:meth:`repro.api.service.TopKService._replay_journal`) applies the
change set to the base -- no planner, no kernel -- verifies the
snapshot id and content hash against the journaled ones, and only then
persists the outcome, appending no record of its own; a diverging
replay writes nothing.  Schema-1 records (no change set; the committed
fixture stores hold them) replay by re-executing the spec, which is
deterministic given its seed.  A torn tail (crash mid-append) is
truncated back out; the journal is the WAL, so losing an un-fsynced
tail record merely reverts to pre-state.

**Multi-process safety.**  Every operation that reads or writes the
directory holds the cross-process advisory lock
(:class:`repro.store.locks.StoreLock`): exclusive for recovery and
every mutation, shared for ``mode="readonly"`` opens.  Two processes
hammering one root therefore interleave *whole operations*; a process
that cannot get the lock within its bounded wait sheds with the typed
:class:`~repro.exceptions.StoreLockedError` instead of corrupting the
directory or queueing forever.  Because the lock is taken per
operation (not per handle lifetime), ``persist``, ``checkpoint`` and
``gc`` re-read the journal (and, for the latter two, the segment
directory) from disk under the lock rather than trusting this handle's
in-memory mirror -- another process may have written between our
operations; segment content-addressing makes ``persist`` naturally
idempotent across processes, and a tombstone a peer wrote is retired,
not raced.

**Checkpoint / compaction** (:meth:`SnapshotStore.checkpoint`) bounds
the journal: records whose outcome segment is durably committed and
verified (for a delta, down its base chain) are dropped, the survivors
are rewritten through the same atomic temp+fsync+rename routine as
segments, and a crash at any step leaves the complete old journal or
the complete new one.
:meth:`SnapshotStore.maybe_checkpoint` triggers it automatically past
``max_journal_records`` (or ``REPRO_JOURNAL_MAX_RECORDS``).

**Segment GC** (:meth:`SnapshotStore.gc`) applies a
:class:`RetentionPolicy` with a *two-phase delete*: phase one appends
a durable ``tombstone`` journal record (the segment is logically dead;
recovery stops loading it), phase two unlinks the file only after the
next successful checkpoint has made the tombstone durable.  A crash
between the phases leaves either the pre-GC state or a durable
tombstone whose file is swept by the next checkpoint -- never a
half-deleted store.  Retention never collects a base that a kept delta
is rebuilt from.  Re-persisting a tombstoned id *resurrects* it:
``persist`` retires the tombstone with an atomic journal rewrite (and
discards the dead file, which recovery skipped unverified) *before*
committing the new segment, so an acknowledged persist can never be
unlinked by a later checkpoint or skipped by recovery.

**Durability.**  ``"fsync"`` (the default) syncs every journal append
and every segment commit, so a journal record is durable before its
outcome segment commits; ``"none"`` skips fsyncs.  There is no group
commit: a durable clean journals its outcome and then persists it,
and the persist needs the record durable first, so a coalescing
window would have nothing to coalesce.

Fault injection: every named step of the write / read protocols calls
:func:`repro.testing.faults.draw_disk_fault`, so the crash-atomicity
property above is *tested at every step*, not asserted.  With no plan
armed the hook is a single ``None`` check.  Injected
:class:`~repro.exceptions.SimulatedCrashError` deliberately skips all
cleanup (``except`` clauses here catch ``OSError`` only) -- a real
power cut runs no handlers either.  The lock context managers *do*
release the flock on the way out: that mirrors the kernel, which drops
a dead process's flock automatically.

Step names (patterns for :class:`~repro.testing.faults.FaultEvent`):
``segment:begin``, ``segment:payload``, ``segment:written``,
``segment:synced``, ``segment:renamed``, ``segment:committed``,
``journal:begin``, ``journal:payload``, ``journal:written``,
``journal:synced``, ``segment:read``, ``lock:acquire``,
``checkpoint:begin``, ``checkpoint:payload``, ``checkpoint:written``,
``checkpoint:synced``, ``checkpoint:renamed``,
``checkpoint:committed``, ``gc:tombstone``, ``gc:unlink``,
``resurrect:unlink``, ``resurrect:begin``, ``resurrect:payload``,
``resurrect:written``, ``resurrect:synced``, ``resurrect:renamed``,
``resurrect:committed``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.counters import STORE_COUNTERS
from repro.core.lockcheck import RANK_STORE, OrderedLock
from repro.db.database import CANONICAL_COLUMNS, ChangeSet, RankedDatabase
from repro.db.io import (
    STRUCTURE_COLUMNS,
    database_columns,
    database_from_columns,
    database_from_dict,
)
from repro.db.ranking import ranking_descriptor, ranking_from_descriptor
from repro.db.tuples import XTuple
from repro.exceptions import (
    CorruptSnapshotError,
    InvalidDatabaseError,
    SimulatedCrashError,
    StoreError,
    StoreReadOnlyError,
    StoreWriteError,
    UnknownSnapshotError,
)
from repro.store.format import (
    SCHEMA_VERSION,
    DeltaLink,
    Segment,
    check_json,
    decode_journal,
    decode_segment,
    encode_journal,
    encode_journal_record,
    encode_segment,
    header_link,
    read_header,
)
from repro.store.locks import StoreLock
from repro.testing.faults import (
    draw_disk_fault,
    execute_disk_fault,
    flip_one_bit,
    torn_payload,
)

#: File-name suffix of snapshot segments.
SEGMENT_SUFFIX = ".seg"

#: Prefix of in-flight temp files (swept on open; the leak fixture
#: asserts none survive a test).
TMP_PREFIX = ".tmp-"

#: The write-ahead journal's file name inside the store root.
JOURNAL_NAME = "journal.wal"

#: Journal record schema version.  Schema-2 clean records carry the
#: outcome's change set and replay physically; schema-1 records (no
#: change set) replay by re-executing their spec.
JOURNAL_SCHEMA = 2

#: Longest chain of delta segments above a full one: an outcome whose
#: base is this deep is written full, so every ninth link of a
#: cleaning chain is a full segment.  It bounds two costs of a chain:
#: a rebuild reaches a delta through at most this many splices from its
#: full segment, and a corrupt full segment quarantines at most this
#: many links of one chain with it.
MAX_DELTA_DEPTH = 8

#: Environment knob for the automatic checkpoint threshold (records).
JOURNAL_MAX_RECORDS_ENV = "REPRO_JOURNAL_MAX_RECORDS"

_SEGMENTS_DIR = "segments"
_QUARANTINE_DIR = "quarantine"

#: Store roots opened by this process; the test suite's leak fixture
#: sweeps these for stranded temp files after every test.
_TRACKED_ROOTS: Set[Path] = set()


def tracked_store_roots() -> List[Path]:
    """Store roots opened in this process that still exist on disk."""
    return sorted(root for root in _TRACKED_ROOTS if root.is_dir())


def stranded_temp_files() -> List[Path]:
    """Leftover ``.tmp-*`` files across every tracked store root.

    A non-empty result outside a crash test means some write path
    leaked its temp file instead of renaming or removing it.
    """
    stranded: List[Path] = []
    for root in tracked_store_roots():
        for directory in (root, root / _SEGMENTS_DIR):
            if directory.is_dir():
                stranded.extend(sorted(directory.glob(TMP_PREFIX + "*")))
    return stranded


def default_max_journal_records() -> Optional[int]:
    """The environment's auto-checkpoint threshold, or ``None``.

    ``REPRO_JOURNAL_MAX_RECORDS`` must be a positive integer; anything
    else (including absence) disables automatic checkpointing -- an
    explicit :meth:`SnapshotStore.checkpoint` always works.
    """
    raw = os.environ.get(JOURNAL_MAX_RECORDS_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _disk_step(step: str) -> Optional[Dict[str, Any]]:
    """Fire any armed fault at ``step``; returns data-kind directives.

    Raising kinds (``crash`` / ``enospc``) raise out of
    :func:`~repro.testing.faults.execute_disk_fault`; ``kill`` never
    returns and ``contend`` runs its second process to completion
    before returning.  Data-transforming directives (``torn`` /
    ``bitflip`` / ``shortread``) come back for the caller to apply to
    its bytes.
    """
    directive = draw_disk_fault(step)
    if directive is not None:
        execute_disk_fault(directive)
    return directive


def _apply_corruption(
    directive: Mapping[str, Any], data: bytes
) -> Tuple[bytes, bool]:
    """``(possibly corrupted bytes, crash after the write?)``."""
    kind = directive.get("kind")
    if kind == "torn":
        return torn_payload(data), True
    if kind == "bitflip":
        return flip_one_bit(data), False
    return data, False


@dataclass(frozen=True)
class RetentionPolicy:
    """How many segments :meth:`SnapshotStore.gc` should keep.

    ``keep_last_n`` keeps the N most recently written live segments
    (by file modification time; ``None`` keeps everything -- GC is a
    no-op).  ``pinned`` segments are never collected regardless of
    age.  Base and outcome segments of journal records that have not
    yet been checkpointed away, anything the caller reports as in
    use, and every base a kept delta segment is rebuilt from
    (transitively, down to its full segment) are always protected on
    top of this policy -- so a store keeps up to
    :data:`MAX_DELTA_DEPTH` more segments than ``keep_last_n`` per
    cleaning chain.
    """

    keep_last_n: Optional[int] = None
    pinned: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.keep_last_n is not None and self.keep_last_n < 0:
            raise ValueError(
                f"keep_last_n must be >= 0 or None, got {self.keep_last_n!r}"
            )
        if isinstance(self.pinned, str):
            raise TypeError(
                f"pinned must be a collection of snapshot ids, not the "
                f"string {self.pinned!r}"
            )
        object.__setattr__(self, "pinned", tuple(self.pinned))


@dataclass(frozen=True)
class RecoveryReport:
    """What one :class:`SnapshotStore` open found and repaired.

    Attributes
    ----------
    loaded:
        Snapshot ids whose segment bytes verified and were indexed;
        each is rebuilt, and semantically checked, on first use
        (:meth:`SnapshotStore.load`).
    quarantined:
        ``(file name, reason)`` per segment the open refused: a
        byte-level fault, or a delta whose base chain is broken.
        Exclusive opens move the file to ``quarantine/``; read-only
        opens only *detect* (the entry is reported, the file stays).
        A semantic fault surfaces at first use instead.
    swept_temp_files:
        In-flight temp files from a previous crash that were removed
        (always zero for read-only opens, which never repair).
    journal_records:
        Clean journal records parsed (pending or not).
    journal_truncated_bytes / journal_truncate_reason:
        Size and cause of the torn journal tail that was truncated
        away (zero / empty when the journal was clean; read-only opens
        report the torn tail without truncating the file).
    tombstoned_segments:
        Segment files skipped because a journal tombstone marks them
        logically deleted (two-phase GC awaiting its unlink).
    """

    loaded: Tuple[str, ...]
    quarantined: Tuple[Tuple[str, str], ...]
    swept_temp_files: int
    journal_records: int
    journal_truncated_bytes: int
    journal_truncate_reason: str
    tombstoned_segments: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON encoding (the CLI status envelope shape)."""
        return {
            "loaded": list(self.loaded),
            "quarantined": [list(entry) for entry in self.quarantined],
            "swept_temp_files": self.swept_temp_files,
            "journal_records": self.journal_records,
            "journal_truncated_bytes": self.journal_truncated_bytes,
            "journal_truncate_reason": self.journal_truncate_reason,
            "tombstoned_segments": self.tombstoned_segments,
        }


class SnapshotStore:
    """Durable, content-hash-addressed storage of ranked snapshots.

    Opening the store *is* recovery: the constructor takes the
    cross-process lock, sweeps temp files, truncates any torn journal
    tail, checks every segment's bytes (quarantining failures), and
    indexes the live snapshots (:meth:`snapshot_ids`), leaving the
    findings in :attr:`recovery`.  Each snapshot is rebuilt, with
    every semantic check, on first use (:meth:`load`).  Journal
    records whose outcome segment is missing surface through
    :meth:`pending_cleanings` for the serving layer to replay.

    Parameters
    ----------
    root:
        The store directory (created if absent, by an exclusive open;
        a read-only open of a directory without ``segments/`` raises
        :class:`~repro.exceptions.StoreError` and creates nothing).
    durability:
        ``"fsync"`` (default) syncs file and directory at every
        commit point -- the crash-safe mode.  ``"none"`` skips fsyncs:
        atomic renames still give all-or-nothing *files*, but a power
        cut may revert to pre-state; meant for tests and throwaway
        runs.
    mode:
        ``"exclusive"`` (default) is the writer mode.  ``"readonly"``
        takes the shared lock, never repairs or mutates (status
        tooling next to a live writer); mutations raise
        :class:`~repro.exceptions.StoreReadOnlyError`.  It writes
        nothing to an existing store: no directory, and ``store.lock``
        only when the file is absent.
    lock_timeout_ms:
        Bounded wait for the cross-process lock (default:
        ``REPRO_STORE_LOCK_TIMEOUT_MS`` or 10s).  Scoped request
        deadlines tighten it further.
    max_journal_records:
        Auto-checkpoint threshold for :meth:`maybe_checkpoint`, at
        least 1 (default: ``REPRO_JOURNAL_MAX_RECORDS``, else
        disabled).

    Operational counters (``psr_store_writes`` segments committed,
    ``psr_store_replays`` journal records replayed,
    ``psr_store_quarantined`` files quarantined,
    ``psr_store_compactions`` journal checkpoints,
    ``psr_store_gc_unlinks`` segment files reclaimed,
    ``psr_store_lock_waits`` contended lock acquisitions) live on the
    store -- one per directory, shared by all sessions served over it
    -- and are declared in :data:`repro.core.counters.STORE_COUNTERS`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        durability: str = "fsync",
        mode: str = "exclusive",
        lock_timeout_ms: Optional[float] = None,
        max_journal_records: Optional[int] = None,
    ) -> None:
        if durability not in ("fsync", "none"):
            raise ValueError(
                f"durability must be 'fsync' or 'none', got {durability!r}"
            )
        if mode not in ("exclusive", "readonly"):
            raise ValueError(
                f"mode must be 'exclusive' or 'readonly', got {mode!r}"
            )
        if max_journal_records is not None and max_journal_records < 1:
            raise ValueError(
                f"max_journal_records must be at least 1, "
                f"got {max_journal_records!r}"
            )
        self.root = Path(root)
        self.durability = durability
        self.mode = mode
        self.max_journal_records = (
            default_max_journal_records()
            if max_journal_records is None
            else max_journal_records
        )
        self._segments_dir = self.root / _SEGMENTS_DIR
        self._quarantine_dir = self.root / _QUARANTINE_DIR
        self._journal_path = self.root / JOURNAL_NAME
        self._lock = OrderedLock(f"store.{self.root.name}", RANK_STORE)
        self.psr_store_writes = 0
        self.psr_store_replays = 0
        self.psr_store_quarantined = 0
        self.psr_store_compactions = 0
        self.psr_store_gc_unlinks = 0
        self.psr_store_lock_waits = 0
        #: Every live snapshot this handle indexed at open, wrote or
        #: adopted: its decoded segment until first use rebuilds it,
        #: then its ranked view.
        self._index: Dict[str, Union[Segment, RankedDatabase]] = {}
        #: Snapshots whose rebuild failed, or whose base's did, with
        #: the reason: quarantined (exclusive) or only refused
        #: (read-only), never served.
        self._refused: Dict[str, str] = {}
        #: Segment kind by id, for every segment this handle indexed,
        #: wrote, adopted or verified: a delta's link, ``None`` if full.
        self._link_of: Dict[str, Optional[DeltaLink]] = {}
        #: Segments whose on-disk bytes this handle has verified: at
        #: open, at a checkpoint, or as a delta's base (see persist).
        self._verified: Set[str] = set()
        self._journal: List[Dict[str, Any]] = []
        if mode == "readonly":
            require_store(self.root)
        else:
            self._segments_dir.mkdir(parents=True, exist_ok=True)
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        self._file_lock = StoreLock(self.root, timeout_ms=lock_timeout_ms)
        _TRACKED_ROOTS.add(self.root)
        with self._lock:
            if mode == "readonly":
                with self._shared():
                    self.recovery = self._recover()
            else:
                with self._exclusive():
                    self.recovery = self._recover()

    # ------------------------------------------------------------------
    # Cross-process locking
    # ------------------------------------------------------------------
    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """Hold the cross-process writer lock for one operation.

        Caller holds the thread lock (rank order: RANK_STORE before
        RANK_STORE_FILE).  Fires the ``lock:acquire`` fault step first
        so contention chaos can run a second process exactly here.
        """
        _disk_step("lock:acquire")
        with self._file_lock.exclusive():
            self.psr_store_lock_waits = self._file_lock.waits
            yield

    @contextmanager
    def _shared(self) -> Iterator[None]:
        """Hold the cross-process reader lock for one operation."""
        _disk_step("lock:acquire")
        with self._file_lock.shared():
            self.psr_store_lock_waits = self._file_lock.waits
            yield

    def _require_writer(self, operation: str) -> None:
        if self.mode == "readonly":
            raise StoreReadOnlyError(
                f"store {str(self.root)!r} is open read-only; "
                f"{operation} needs mode='exclusive'"
            )

    def lock_holder(self) -> Optional[Dict[str, Any]]:
        """The recorded cross-process lock holder (see ``StoreLock``)."""
        return self._file_lock.holder()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot_ids(self) -> List[str]:
        """Every live snapshot this handle holds, rebuilt or not."""
        with self._lock:
            return sorted(self._index)

    def load(self, snapshot_id: str) -> RankedDatabase:
        """The snapshot's ranked view, rebuilt and checked on first use.

        The first load of a snapshot rebuilds it (and the base chain
        of a delta) and runs every semantic check
        (:meth:`_rebuild_full`, :meth:`_rebuild_delta`); later loads
        return the same view.  A failure quarantines the segment and
        every delta above it -- on a read-only handle it only refuses
        them, moving nothing -- and raises
        :class:`~repro.exceptions.CorruptSnapshotError`, as does any
        later load of them.  An id this handle never held raises
        :class:`~repro.exceptions.UnknownSnapshotError`.
        """
        with self._lock:
            return self._materialize(snapshot_id, {})

    def snapshots(self) -> Dict[str, RankedDatabase]:
        """Every live snapshot's ranked view by id (a copy; safe to
        mutate), rebuilding those not yet used in one pass that builds
        each distinct x-tuple of its schema-4 segments once.  A snapshot
        whose rebuild fails is quarantined (or refused, read-only) and
        left out."""
        with self._lock:
            return self._materialize_all()

    def _materialize_all(self) -> Dict[str, RankedDatabase]:
        """Every live snapshot's view, rebuilt in one pass that shares
        one x-tuple table; failures are refused and left out.  Caller
        holds the thread lock but not the file lock."""
        interned: Dict[bytes, XTuple] = {}
        views: Dict[str, RankedDatabase] = {}
        for snapshot_id in sorted(self._index):
            try:
                views[snapshot_id] = self._materialize(snapshot_id, interned)
            except CorruptSnapshotError:
                continue
        return views

    def verify(self) -> Dict[str, Any]:
        """Rebuild every live snapshot and report what failed: the deep
        scrub that an open, which checks bytes only, leaves to first use.

        One pass, as :meth:`snapshots` makes it; a failure is handled
        as at any first use (quarantined, or only refused read-only).
        Returns ``verified``, the ids that rebuilt, and ``failed``, a
        ``[file name, reason]`` pair per segment this handle refused:
        at open (:attr:`recovery`) or at a rebuild.
        """
        with self._lock:
            verified = sorted(self._materialize_all())
            failed = [list(entry) for entry in self.recovery.quarantined] + [
                [snapshot_id + SEGMENT_SUFFIX, reason]
                for snapshot_id, reason in sorted(self._refused.items())
            ]
        return {"verified": verified, "failed": failed}

    def has_segment(self, snapshot_id: str) -> bool:
        """Whether a live segment for this snapshot is on disk, its
        bytes verified (its rebuild may still be pending)."""
        with self._lock:
            return snapshot_id in self._index

    def journal_records(self) -> List[Dict[str, Any]]:
        """Every clean journal record, in append order (copies)."""
        with self._lock:
            return [dict(r) for r in self._journal]

    def pending_cleanings(self) -> List[Dict[str, Any]]:
        """Journaled cleanings whose outcome segment is missing.

        These are the writes a crash interrupted after the journal
        append but before the segment commit; the serving layer
        replays them at open.  Tombstoned
        outcomes are excluded -- a logically deleted segment owes
        nobody a replay.
        """
        with self._lock:
            return [dict(r) for r in self._pending_records()]

    def _pending_records(self) -> List[Dict[str, Any]]:
        """Clean records whose outcome is neither indexed nor tombstoned.

        Caller holds the thread lock.
        """
        tombstoned = _tombstone_ids(self._journal)
        return [
            r
            for r in self._journal
            if r.get("kind", "clean") == "clean"
            and r.get("outcome") not in self._index
            and r.get("outcome") not in tombstoned
        ]

    def counters(self) -> Dict[str, int]:
        """The store's operational counters, in registry order."""
        return {name: getattr(self, name) for name in STORE_COUNTERS}

    def status(self) -> Dict[str, Any]:
        """One JSON-serializable health summary of the store.

        Everything an operator needs after an incident: what is
        durable, what the journal still owes (records *and* bytes),
        segment count and bytes, how many live segments are full and
        how many are deltas (rebuilt or not), tombstones awaiting their
        unlink, the recorded cross-process lock holder, what recovery moved to
        ``quarantine/``, and the counters -- the payload behind
        ``repro store status``.
        """
        with self._lock:
            snapshot_ids = sorted(self._index)
            deltas = sum(
                1 for sid in snapshot_ids if self._link_of.get(sid) is not None
            )
            journal = len(self._journal)
            tombstones = len(_tombstone_ids(self._journal))
            pending = [r.get("outcome") for r in self._pending_records()]
        try:
            journal_bytes = self._journal_path.stat().st_size
        except OSError:
            journal_bytes = 0
        segment_files = 0
        segment_bytes = 0
        for path in self._segments_dir.glob("*" + SEGMENT_SUFFIX):
            try:
                segment_bytes += path.stat().st_size
            except OSError:
                continue
            segment_files += 1
        try:
            quarantined = sorted(
                p.name for p in self._quarantine_dir.iterdir() if p.is_file()
            )
        except FileNotFoundError:
            quarantined = []  # a read-only open creates no directory
        return {
            "root": str(self.root),
            "durability": self.durability,
            "mode": self.mode,
            "snapshots": snapshot_ids,
            "journal_records": journal,
            "journal_bytes": journal_bytes,
            "segment_files": segment_files,
            "segment_bytes": segment_bytes,
            "full_segments": len(snapshot_ids) - deltas,
            "delta_segments": deltas,
            "tombstones": tombstones,
            "pending_cleanings": pending,
            "quarantined_files": quarantined,
            "lock_holder": self.lock_holder(),
            "counters": self.counters(),
            "recovery": self.recovery.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SnapshotStore {str(self.root)!r} [{self.mode}]: "
            f"{len(self._index)} segments, "
            f"{len(self._journal)} journal records>"
        )

    # ------------------------------------------------------------------
    # Recovery (runs in the constructor, under the file lock)
    # ------------------------------------------------------------------
    def _recover(self) -> RecoveryReport:
        repair = self.mode == "exclusive"
        swept = 0
        if repair:
            for directory in (self.root, self._segments_dir):
                for tmp in sorted(directory.glob(TMP_PREFIX + "*")):
                    tmp.unlink()
                    swept += 1

        truncated_bytes = 0
        truncate_reason = ""
        if self._journal_path.exists():
            data = self._journal_path.read_bytes()
            records, clean_length, truncate_reason = decode_journal(data)
            if clean_length < len(data):
                truncated_bytes = len(data) - clean_length
                if repair:
                    with open(self._journal_path, "r+b") as f:
                        f.truncate(clean_length)
                        self._fsync_file(f)
                    self._fsync_dir(self.root)
            self._journal = records

        tombstoned = _tombstone_ids(self._journal)
        quarantined: List[Tuple[str, str]] = []
        skipped_tombstoned = 0
        # Quarantined id -> the segment its chain broke at (itself, or
        # the quarantined segment a delta's base chain leads down to).
        broken: Dict[str, str] = {}

        def refuse(path: Path, reason: str, root: Optional[str] = None) -> None:
            snapshot_id = path.name[: -len(SEGMENT_SUFFIX)]
            broken[snapshot_id] = root or snapshot_id
            quarantined.append((path.name, reason))
            if repair:
                self._quarantine_file(path)

        segments: Dict[str, Tuple[Path, Segment]] = {}
        for path in sorted(self._segments_dir.glob("*" + SEGMENT_SUFFIX)):
            snapshot_id = path.name[: -len(SEGMENT_SUFFIX)]
            if snapshot_id in tombstoned:
                skipped_tombstoned += 1
                continue
            try:
                segments[snapshot_id] = (path, self._read_segment(path))
            except (CorruptSnapshotError, OSError) as exc:
                refuse(path, str(exc))
        # A delta is indexed once its base is: full segments first,
        # then each delta whose base made it in.
        deltas: Dict[str, DeltaLink] = {}
        for snapshot_id, (_, segment) in segments.items():
            link = segment.link
            if link is not None:
                deltas[snapshot_id] = link
        indexed = {sid for sid in segments if sid not in deltas}
        while deltas:
            ready = sorted(
                sid for sid, link in deltas.items() if link.base not in deltas
            )
            if not ready:
                # Every remaining delta waits on another: a cycle, which
                # no writer produces; none of them can be rebuilt.
                for sid in sorted(deltas):
                    refuse(
                        segments[sid][0], "segment corrupt: its base chain is cyclic"
                    )
                break
            for sid in ready:
                base = deltas.pop(sid).base
                root = broken.get(base)
                if root is not None:
                    refuse(
                        segments[sid][0],
                        f"segment corrupt: its base {base!r} was quarantined"
                        + ("" if root == base else f" with {root!r}"),
                        root,
                    )
                elif base not in indexed:
                    refuse(
                        segments[sid][0],
                        f"segment corrupt: its base {base!r} is missing or "
                        f"tombstoned",
                    )
                else:
                    indexed.add(sid)
        for snapshot_id in sorted(indexed):
            segment = segments[snapshot_id][1]
            self._index[snapshot_id] = segment
            self._link_of[snapshot_id] = segment.link
            self._verified.add(snapshot_id)
        return RecoveryReport(
            loaded=tuple(sorted(indexed)),
            quarantined=tuple(quarantined),
            swept_temp_files=swept,
            journal_records=len(self._journal),
            journal_truncated_bytes=truncated_bytes,
            journal_truncate_reason=truncate_reason,
            tombstoned_segments=skipped_tombstoned,
        )

    def _read_segment(self, path: Path) -> Segment:
        """Read and decode one segment file at open -- or raise.

        The codec checks the framing, the CRCs, the whole-file digest
        and the header (:func:`~repro.store.format.decode_segment`);
        the header must name the file's own snapshot id.
        """
        directive = _disk_step("segment:read")
        data = path.read_bytes()
        if directive is not None:
            kind = directive.get("kind")
            if kind == "shortread":
                data = data[: len(data) // 2]
            elif kind == "bitflip":
                data = flip_one_bit(data)
        segment = decode_segment(data)
        snapshot_id = segment.header.get("snapshot_id")
        if not isinstance(snapshot_id, str) or not snapshot_id:
            raise CorruptSnapshotError(
                f"segment corrupt: bad snapshot id {snapshot_id!r}"
            )
        if snapshot_id != path.name[: -len(SEGMENT_SUFFIX)]:
            raise CorruptSnapshotError(
                f"segment corrupt: header names snapshot "
                f"{snapshot_id!r} but the file is {path.name!r}"
            )
        return segment

    def _materialize(
        self, snapshot_id: str, interned: Dict[bytes, XTuple]
    ) -> RankedDatabase:
        """The snapshot's ranked view, rebuilding it -- and, for a
        delta, the base chain below it -- on first use; see
        :meth:`load`.  ``interned`` is the pass's x-tuple table (see
        :meth:`_rebuild_full`).  Caller holds the thread lock but not
        the file lock, which a quarantine takes.
        """
        entry = self._index.get(snapshot_id)
        if isinstance(entry, RankedDatabase):
            return entry
        if entry is None:
            if snapshot_id in self._refused:
                raise self._refusal(snapshot_id)
            raise UnknownSnapshotError(
                f"store {str(self.root)!r} holds no live segment for "
                f"snapshot {snapshot_id!r}"
            )
        # Down the chain to a rebuilt view or a full segment.  The open
        # indexes no delta without its base, and a refusal takes the
        # deltas above along, so a base leaves the index only when GC
        # collects it, which keeps every base a live delta needs.
        chain: List[Tuple[str, Segment]] = []
        view: Optional[RankedDatabase] = None
        sid = snapshot_id
        while True:
            entry = self._index.get(sid)
            if entry is None:
                self._refuse(
                    chain[-1][0],
                    f"segment corrupt: its base {sid!r} is missing or tombstoned",
                )
                raise self._refusal(snapshot_id)
            if isinstance(entry, RankedDatabase):
                view = entry
                break
            chain.append((sid, entry))
            link = entry.link
            if link is None:
                break
            sid = link.base
        for sid, segment in reversed(chain):
            link = segment.link
            try:
                if link is None:
                    view = self._rebuild_full(segment, interned)
                else:
                    assert view is not None
                    view = self._rebuild_delta(segment, link, view)
            except CorruptSnapshotError as exc:
                self._refuse(sid, str(exc))
                raise self._refusal(snapshot_id) from None
            self._index[sid] = view
        assert view is not None
        return view

    def _refusal(self, snapshot_id: str) -> CorruptSnapshotError:
        """The error a refused snapshot raises, with its reason."""
        return CorruptSnapshotError(
            f"snapshot {snapshot_id!r} is not served: "
            f"{self._refused[snapshot_id]}"
        )

    def _refuse(self, snapshot_id: str, reason: str) -> None:
        """Take a snapshot whose segment failed a check, and every
        delta above it, out of service: an exclusive handle moves
        their files to ``quarantine/``, a read-only one leaves them.
        Caller holds the thread lock but not the file lock."""
        refused = [(snapshot_id, reason)]
        doomed = {snapshot_id}
        grown = True
        while grown:
            grown = False
            for sid in sorted(self._index):
                link = self._link_of.get(sid)
                if sid in doomed or link is None or link.base not in doomed:
                    continue
                doomed.add(sid)
                grown = True
                refused.append(
                    (
                        sid,
                        f"segment corrupt: its base {link.base!r} was "
                        f"quarantined"
                        + (
                            ""
                            if link.base == snapshot_id
                            else f" with {snapshot_id!r}"
                        ),
                    )
                )
        for sid, why in refused:
            self._forget(sid)
            self._refused[sid] = why
        if self.mode == "exclusive":
            with self._exclusive():
                for sid, _ in refused:
                    path = self._segment_path(sid)
                    if path.exists():
                        self._quarantine_file(path)

    def _rebuild_full(
        self, segment: Segment, interned: Dict[bytes, XTuple]
    ) -> RankedDatabase:
        """Verify and rebuild one full segment's ranked view -- or raise.

        Verification is belt *and* suspenders: beyond the codec's
        checks, this rebuilds the database from the structure, checking
        every id, size and probability
        (:func:`~repro.db.io.database_from_columns`; a schema-1 or -2
        structure goes through ingest's checks), recomputes its content
        hash against the header's, re-ranks it cold, and compares every
        canonical column bitwise against the stored bytes.  A segment
        that passes cannot silently disagree with the view a fresh
        construction would produce.

        ``interned`` maps every x-tuple this pass has already checked
        and built from a schema-4 segment, by its content-hash record,
        to the :class:`~repro.db.tuples.XTuple`.  A cleaning chain's
        full segments repeat most of their x-tuples, so a pass that
        rebuilds several builds each distinct x-tuple once, and its
        snapshots share the object as in-process derivations do: equal
        records decode to equal values and pass the same per-x-tuple
        checks.  An x-tuple enters the table only once it has passed
        them.  Every check that spans a database -- duplicate ids,
        content hash, re-rank, columns -- still runs on each segment.
        A schema-1 or -2 structure is parsed whole and validated as
        ingest does; it shares nothing.
        """
        header, structure_json, columns = segment
        try:
            if header["schema"] == SCHEMA_VERSION:
                name = header.get("name")
                if not isinstance(name, str):
                    raise InvalidDatabaseError(f"bad database name {name!r}")
                db = database_from_columns(
                    name, segment.typed_columns(STRUCTURE_COLUMNS), interned
                )
            else:
                db = database_from_dict(json.loads(structure_json))
        except (InvalidDatabaseError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"segment corrupt: structure does not decode ({exc})"
            ) from None
        if db.content_hash() != header.get("content_hash"):
            raise CorruptSnapshotError(
                "segment corrupt: content hash of the decoded database "
                "does not match the header"
            )
        try:
            ranking = ranking_from_descriptor(header.get("ranking"))
        except ValueError as exc:
            raise CorruptSnapshotError(
                f"segment corrupt: {exc}"
            ) from None
        try:
            ranked = RankedDatabase(db, ranking)
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            # A value the ranking cannot score ("abc" by value, a number
            # by key, a missing key): the stored view cannot be rebuilt.
            raise CorruptSnapshotError(
                f"segment corrupt: the ranking cannot score the structure "
                f"({type(exc).__name__}: {exc})"
            ) from None
        for column in CANONICAL_COLUMNS:
            blob = columns.get(column)
            if blob is None:
                raise CorruptSnapshotError(
                    f"segment corrupt: column {column!r} is missing"
                )
            if np.ascontiguousarray(getattr(ranked, column)).tobytes() != blob:
                raise CorruptSnapshotError(
                    f"segment corrupt: column {column!r} does not match "
                    f"the re-ranked view"
                )
        return ranked

    def _rebuild_delta(
        self, segment: Segment, link: DeltaLink, base: RankedDatabase
    ) -> RankedDatabase:
        """Rebuild one delta segment from its base's view -- or raise.

        The change set is applied to ``base`` through
        :meth:`~repro.db.database.RankedDatabase.with_change_set`, and
        the result must hash to the header's content hash.  A delta
        holds no columns to compare: its view is the splice, which is
        bitwise the cold rank of the changed database.
        """
        try:
            ranked = base.with_change_set(link.changes)
        except InvalidDatabaseError as exc:
            raise CorruptSnapshotError(
                f"segment corrupt: its change set does not apply to base "
                f"{link.base!r} ({exc})"
            ) from None
        if ranked.db.content_hash() != segment.header.get("content_hash"):
            raise CorruptSnapshotError(
                f"segment corrupt: content hash of base {link.base!r} with "
                f"the change set does not match the header"
            )
        return ranked

    def _quarantine_file(self, path: Path) -> str:
        """Move a failing file into ``quarantine/``; returns its name."""
        destination = self._quarantine_dir / path.name
        counter = 0
        while destination.exists():
            counter += 1
            destination = self._quarantine_dir / f"{path.name}.{counter}"
        os.replace(path, destination)
        self._fsync_dir(self._quarantine_dir)
        self._fsync_dir(path.parent)
        self.psr_store_quarantined += 1
        return destination.name

    def quarantine_segment(self, snapshot_id: str, reason: str) -> None:
        """Take a snapshot whose segment proved untrustworthy out of
        service.

        Used by adopters (the session pool) that detect an
        inconsistency the store's own verification cannot see, e.g. a
        snapshot id derivation mismatch.  The snapshot, and every delta
        above it, disappear from this handle; an exclusive handle moves
        their segments to ``quarantine/``, a read-only one leaves the
        files in place.  ``reason`` travels in the raised error.

        Raises :class:`~repro.exceptions.CorruptSnapshotError` -- the
        caller decides whether to swallow it (skip the snapshot) or
        propagate.
        """
        with self._lock:
            self._refuse(snapshot_id, f"segment corrupt: {reason}")
            raise self._refusal(snapshot_id)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def persist(
        self,
        snapshot_id: str,
        ranked: RankedDatabase,
        base: Optional[str] = None,
        changes: Optional[Mapping[str, Optional[str]]] = None,
    ) -> bool:
        """Durably write one snapshot segment; idempotent by id.

        Returns ``False`` (writing nothing) when the segment already
        exists -- including when *another process* committed it
        between our operations: segments are content-addressed, so a
        same-id file holds the same snapshot, and this handle simply
        adopts it.  A *tombstoned* id is the exception: its journal
        tombstone (from :meth:`gc`, possibly another process's) is
        first retired by an atomic journal rewrite, and any file it
        left behind is discarded rather than adopted -- recovery
        skipped it unverified and the next checkpoint was about to
        unlink it.  Only then does the segment commit, so a ``True``
        return is an acknowledged durable write that no later
        checkpoint can sweep and no recovery will skip.

        ``base`` names the snapshot ``ranked`` was derived from (a
        cleaning outcome's base) and ``changes`` the change set that
        derived it, ``{xid: revealed tid, or None for a removal}``, as
        the clean carried it
        (:attr:`~repro.cleaning.executor.CleaningOutcome.changes`).
        They are provenance, not a switch: the store writes a small
        *delta segment* -- the base id and ``changes`` -- only when,
        under the exclusive lock, all of these hold:

        * the base's file exists and no tombstone names it;
        * this handle has verified the base's bytes and its own base
          chain -- it read them at open, checked them at a
          checkpoint, or reads them back now, once per segment
          (:meth:`_verify_once`), so a base bit-flipped on its way to
          disk is caught before anything depends on it;
        * the delta would sit at most :data:`MAX_DELTA_DEPTH` links
          above a full segment;
        * ``ranked`` has the base's name and ranking;
        * ``changes`` passes three checks that cost O(change), not a
          walk of either database: every x-tuple it names is in the
          held base (rebuilt first, if this handle has not used it
          yet; a base that fails its rebuild makes the outcome full),
          every tuple id is one of that x-tuple's alternatives, and
          the base's x-tuple count less the removals is ``ranked``'s.

        Otherwise -- ``base`` or ``changes`` omitted included -- it
        writes a full segment.  The content hash in a delta's header
        is ``ranked``'s, and the delta's first use rebuilds it from its
        base and checks that hash, so a change set that does not lead
        to ``ranked`` is caught there (and quarantined) rather than
        served.  Both kinds are encoded in memory and committed
        through :meth:`_replace_file`, with its ``segment:*`` fault
        steps: any ``OSError`` on the write path -- disk full,
        permissions -- cleans up the temp file and re-raises as
        :class:`~repro.exceptions.StoreWriteError`; injected
        :class:`~repro.exceptions.SimulatedCrashError` propagates with
        no cleanup at all, leaving the on-disk state a crash would.
        The in-memory index is updated only after the commit point, so
        a failed persist is invisible both on disk and in memory.
        """
        self._require_writer("persist")
        descriptor = ranking_descriptor(ranked.ranking)
        if descriptor is None:
            raise StoreWriteError(
                f"ranking {ranked.ranking!r} has no serializable "
                f"descriptor; durable snapshots require a factory "
                f"ranking (by_value / by_key / by_sum_of_keys)"
            )
        with self._lock:
            self._require_writer("persist")
            if snapshot_id in self._index:
                return False
            if base is not None and base in self._index:
                # The base check below reads the base's view: rebuild
                # it first (outside the file lock, which a quarantine
                # takes).  A base that fails makes the outcome full.
                try:
                    self._materialize(base, {})
                except CorruptSnapshotError:
                    pass
            with self._exclusive():
                final = self._segment_path(snapshot_id)
                # Re-read the journal from disk: a tombstone for this
                # id (ours or another process's) decides whether an
                # existing file is adoptable or dead.
                records = self._read_journal_from_disk()
                self._journal = records
                tombstoned = _tombstone_ids(records)
                if snapshot_id in tombstoned:
                    self._retire_tombstone(snapshot_id, records, final)
                    tombstoned.discard(snapshot_id)
                elif final.exists():
                    self._index[snapshot_id] = ranked
                    self._link_of[snapshot_id] = _link_on_disk(final)
                    self._refused.pop(snapshot_id, None)
                    return False
                _disk_step("segment:begin")
                link = self._delta_link(
                    ranked, descriptor, base, changes, tombstoned
                )
                if link is not None:
                    payload = encode_segment(
                        snapshot_id=snapshot_id,
                        content_hash=ranked.db.content_hash(),
                        columns={},
                        delta=link,
                    )
                else:
                    columns = database_columns(ranked.db)
                    for name in CANONICAL_COLUMNS:
                        array = getattr(ranked, name)
                        columns[name] = (
                            array.dtype.str,
                            np.ascontiguousarray(array).tobytes(),
                        )
                    payload = encode_segment(
                        snapshot_id=snapshot_id,
                        content_hash=ranked.db.content_hash(),
                        name=ranked.db.name,
                        ranking=descriptor,
                        columns=columns,
                    )
                self._replace_file(
                    final, payload, "segment", f"segment {snapshot_id!r}"
                )
                # New bytes: verified only once read back.
                self._verified.discard(snapshot_id)
                self._index[snapshot_id] = ranked
                self._link_of[snapshot_id] = link
                self._refused.pop(snapshot_id, None)
                self.psr_store_writes += 1
                return True

    def _delta_link(
        self,
        ranked: RankedDatabase,
        descriptor: Mapping[str, Any],
        base: Optional[str],
        changes: Optional[Mapping[str, Optional[str]]],
        tombstoned: Set[str],
    ) -> Optional[DeltaLink]:
        """The link of a delta segment for ``ranked`` on ``base`` with
        ``changes``, or ``None`` when it must be written full (see
        :meth:`persist`).  Caller holds both locks."""
        held = self._index.get(base) if base is not None else None
        if (
            base is None
            or not isinstance(held, RankedDatabase)
            or held.db.name != ranked.db.name
            or ranking_descriptor(held.ranking) != descriptor
            or not self._verify_once(base, tombstoned)
        ):
            return None
        base_link = self._link_of.get(base)
        depth = 1 + (base_link.depth if base_link is not None else 0)
        if (
            depth > MAX_DELTA_DEPTH
            or changes is None
            or not _applies_to(changes, held, ranked)
        ):
            return None
        return DeltaLink(base, depth, dict(changes))

    def _verify_once(
        self, snapshot_id: str, tombstoned: Set[str], chain: Tuple[str, ...] = ()
    ) -> bool:
        """Whether the segment is live and this handle has verified its
        bytes and its base chain, reading them at most once.

        Live means its file exists and no tombstone names it.  A
        segment verified before (at open, at a checkpoint, or by an
        earlier call) is not read again.  Caller holds both locks.
        """
        if snapshot_id in tombstoned or snapshot_id in chain:
            return False
        if snapshot_id in self._verified:
            return self._segment_path(snapshot_id).exists()
        return self._segment_verified(snapshot_id, tombstoned, chain)

    def _forget(self, snapshot_id: str) -> None:
        """Drop a segment from this handle's index and bookkeeping."""
        self._index.pop(snapshot_id, None)
        self._link_of.pop(snapshot_id, None)
        self._verified.discard(snapshot_id)

    def journal_clean(
        self,
        base_snapshot_id: str,
        spec_payload: Mapping[str, Any],
        outcome_snapshot_id: str,
        outcome_hash: str,
        changes: Optional[ChangeSet] = None,
    ) -> Optional[Dict[str, Any]]:
        """Append one cleaning outcome to the write-ahead journal.

        Called *before* the outcome segment is persisted, by an
        executed clean only -- journal replay never calls it, since
        the record it replays already covers the outcome.  The
        schema-2 record holds the outcome as its base plus its change
        set (``changes``, as the clean carried it; omitted means
        nothing changed), with ``spec_payload``,
        ``outcome_snapshot_id`` and ``outcome_hash`` kept as
        provenance.  Once this returns the record, a crash at any
        later point is recoverable: replay applies the change set to
        the base snapshot -- no planner, no kernel -- checks the
        result's id and content hash against the record, and persists
        the outcome only if both match.  A crash *during* the append
        leaves a torn tail the next open truncates away -- the
        cleaning then simply never happened durably (pre-state), which
        is correct because the caller had not yet acknowledged it.

        Replay needs the base, so the record is appended only on a
        durable, live base: under the exclusive lock, against the
        journal re-read from disk, this handle must hold the base and
        have verified it live -- its file exists, no tombstone (ours or
        another process's) names it, and its bytes and base chain read
        back clean (:meth:`_verify_once`, the check :meth:`persist`
        makes of a delta's base, so the read is not repeated there).
        Otherwise -- a memory-only base, one GC has just collected, or
        one whose bytes went bad -- nothing is appended and this
        returns ``None``.  The outcome then persists as a full
        segment, and a crash before that commit reverts to the
        pre-state, correct for the same reason: the clean was never
        acknowledged.

        Past the ``max_journal_records`` threshold the journal is
        checkpointed automatically (:meth:`maybe_checkpoint`).
        """
        record = {
            "schema": JOURNAL_SCHEMA,
            "kind": "clean",
            "base": base_snapshot_id,
            "outcome": outcome_snapshot_id,
            "outcome_hash": outcome_hash,
            "spec": dict(spec_payload),
            "changes": dict(changes or {}),
        }
        with self._lock:
            self._require_writer("journal_clean")
            try:
                # Replay will need the base's view: it must rebuild.
                self._materialize(base_snapshot_id, {})
            except (CorruptSnapshotError, UnknownSnapshotError):
                return None
            with self._exclusive():
                records = self._read_journal_from_disk()
                self._journal = records
                if base_snapshot_id not in self._index or not (
                    self._verify_once(base_snapshot_id, _tombstone_ids(records))
                ):
                    return None
                _disk_step("journal:begin")
                self._append_journal_frame(record, fire_steps=True)
                self._journal.append(record)
        self.maybe_checkpoint()
        return dict(record)

    def note_replayed(self) -> None:
        """Count one journal record successfully replayed at open."""
        with self._lock:
            self.psr_store_replays += 1

    # ------------------------------------------------------------------
    # Checkpoint / compaction
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Compact the journal and finish any pending two-phase GC.

        Under the exclusive lock, re-reads the journal *from disk*
        (another process may have appended), drops ``clean`` records
        whose outcome segment is durably committed and verifies -- for
        a delta, its own bytes plus its base chain, every base live and
        verified; a segment this handle already verified is not read
        again (:meth:`_verify_once`) -- or whose outcome a tombstone
        names (it owes no replay, as :meth:`pending_cleanings` says;
        left otherwise, it would turn pending once the tombstone is
        retired), drops ``tombstone``
        records whose file is already gone, and rewrites
        the survivors atomically (temp + fsync + rename + dir fsync)
        -- a crash at any step leaves the complete old journal or the
        complete new one.  After the rewrite commits, tombstoned
        segment files still on disk are unlinked (phase two of
        :meth:`gc`); those tombstones drop out at the *next*
        checkpoint once their file is observed gone.

        Returns a report: ``compacted`` (whether a rewrite happened),
        ``records_before`` / ``records_after`` / ``dropped``,
        ``unlinked`` segment ids, and the journal's byte size.
        """
        with self._lock:
            self._require_writer("checkpoint")
            with self._exclusive():
                return self._checkpoint_locked()

    def maybe_checkpoint(self) -> Optional[Dict[str, Any]]:
        """Checkpoint when the journal exceeds its record threshold.

        A no-op (returning ``None``) when ``max_journal_records`` is
        unset or the journal is still under it.
        """
        threshold = self.max_journal_records
        if threshold is None:
            return None
        with self._lock:
            over = len(self._journal) >= threshold
        if not over:
            return None
        return self.checkpoint()

    def _checkpoint_locked(self) -> Dict[str, Any]:
        records = self._read_journal_from_disk()
        tombstoned = _tombstone_ids(records)
        surviving: List[Dict[str, Any]] = []
        dropped = 0
        for record in records:
            kind = record.get("kind", "clean")
            if kind == "clean":
                outcome = record.get("outcome")
                # A tombstoned outcome owes no replay (see
                # pending_cleanings): only a clean journaled after GC
                # collected its outcome, and crashed before the segment,
                # leaves such a record, and it was never acknowledged.
                if isinstance(outcome, str) and (
                    outcome in tombstoned or self._verify_once(outcome, tombstoned)
                ):
                    dropped += 1
                else:
                    surviving.append(record)
            elif kind == "tombstone":
                segment = record.get("segment")
                if (
                    isinstance(segment, str)
                    and self._segment_path(segment).exists()
                ):
                    surviving.append(record)
                else:
                    dropped += 1
            else:
                # Unknown kinds (a future schema) are preserved, never
                # silently dropped.
                surviving.append(record)
        compacted = dropped > 0
        if compacted:
            _disk_step("checkpoint:begin")
            payload = encode_journal(surviving)
            self._replace_file(self._journal_path, payload, "checkpoint", "the journal")
            self.psr_store_compactions += 1
        self._journal = surviving
        # Phase two of the two-phase delete: every surviving tombstone
        # is durable in the journal that just committed (or already
        # was), so its file is now safe to unlink.
        unlinked: List[str] = []
        for record in surviving:
            if record.get("kind") != "tombstone":
                continue
            segment = record.get("segment")
            if not isinstance(segment, str):
                continue
            path = self._segment_path(segment)
            if not path.exists():
                continue
            _disk_step("gc:unlink")
            try:
                path.unlink()
            except OSError:
                continue
            self.psr_store_gc_unlinks += 1
            unlinked.append(segment)
        if unlinked:
            self._fsync_dir(self._segments_dir)
        try:
            journal_bytes = self._journal_path.stat().st_size
        except OSError:
            journal_bytes = 0
        return {
            "compacted": compacted,
            "records_before": len(records),
            "records_after": len(surviving),
            "dropped": dropped,
            "unlinked": unlinked,
            "journal_bytes": journal_bytes,
        }

    def _replace_file(self, final: Path, payload: bytes, steps: str, what: str) -> None:
        """Atomically replace ``final`` with ``payload``: write a
        ``.tmp-*`` sibling, fsync it, rename it over ``final`` -- the
        commit point -- and fsync the directory.  Segment commits and
        journal rewrites (checkpoints, resurrections) all go through
        here, so a crash at any step leaves the complete old file or the
        complete new one.

        Fires the ``<steps>:payload``, ``:written``, ``:synced``,
        ``:renamed`` and ``:committed`` fault steps; the caller fires
        ``<steps>:begin``.  A ``torn`` or ``bitflip`` directive at
        ``:payload`` corrupts the bytes written, and a torn write then
        "crashes" once the rename is durable: data that never hit the
        platter although the rename did.  An ``OSError`` removes the
        temp file and raises :class:`~repro.exceptions.StoreWriteError`
        naming ``what``.  Caller holds both locks.
        """
        crash_after = False
        directive = _disk_step(steps + ":payload")
        if directive is not None:
            payload, crash_after = _apply_corruption(directive, payload)
        tmp = final.with_name(TMP_PREFIX + final.stem)
        try:
            with open(tmp, "wb") as f:
                f.write(payload)
                _disk_step(steps + ":written")
                self._fsync_file(f)
            _disk_step(steps + ":synced")
            os.replace(tmp, final)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise StoreWriteError(f"could not write {what}: {exc}") from exc
        _disk_step(steps + ":renamed")
        self._fsync_dir(final.parent)
        if crash_after:
            raise SimulatedCrashError(f"injected torn write of {what}")
        _disk_step(steps + ":committed")

    def _retire_tombstone(
        self, snapshot_id: str, records: List[Dict[str, Any]], final: Path
    ) -> None:
        """Durably resurrect a tombstoned id so it can be re-persisted.

        Without this, ``persist`` after :meth:`gc` would silently lose
        an acknowledged write: the surviving tombstone makes recovery
        skip the id, and the next checkpoint -- seeing tombstone plus
        file -- would unlink the freshly written segment.  A file the
        tombstone left behind (phase two has not run yet) is not
        adoptable either: recovery skipped it *unverified*, so it is
        dead bytes and is removed first.

        Crash-safety: removing the file reaches exactly the state
        phase two of GC produces (durable tombstone, file gone), and
        the journal rewrite is atomic, so a crash at any step leaves
        either that state or a tombstone-free journal with no file --
        both pre-states in which this persist was never acknowledged
        and a retry converges.  Only after both steps does the caller
        write the new segment.
        """
        _disk_step("resurrect:unlink")
        if final.exists():
            try:
                final.unlink()
            except OSError as exc:
                raise StoreWriteError(
                    f"could not discard the tombstoned segment file of "
                    f"{snapshot_id!r}: {exc}"
                ) from exc
            self._fsync_dir(self._segments_dir)
        surviving = [
            record
            for record in records
            if not (
                record.get("kind") == "tombstone"
                and record.get("segment") == snapshot_id
            )
        ]
        _disk_step("resurrect:begin")
        self._replace_file(
            self._journal_path, encode_journal(surviving), "resurrect", "the journal"
        )
        self._journal = surviving

    def _segment_verified(
        self, snapshot_id: str, tombstoned: Set[str], chain: Tuple[str, ...] = ()
    ) -> bool:
        """Whether the segment file is committed and decodes cleanly.

        Reads the file.  The digest, CRCs, header, framing and id are
        always checked.  Any segment whose snapshot this handle holds
        rebuilt must name its content hash.  A full schema-4 segment
        that does is not parsed; every other full segment -- one this
        handle does not hold rebuilt (another process wrote it), or a
        schema-1 or -2 one -- gets its JSON parsed
        (:func:`~repro.store.format.check_json`).  A delta's base must
        be live and verified in turn (:meth:`_verify_once`; ``chain``
        holds the deltas above it, so a cyclic chain fails instead of
        recursing).  A segment that verifies is remembered as verified,
        with its kind.  Caller holds both locks.
        """
        try:
            data = self._segment_path(snapshot_id).read_bytes()
        except OSError:
            return False
        try:
            segment = decode_segment(data)
            if segment.header.get("snapshot_id") != snapshot_id:
                return False
            held = self._index.get(snapshot_id)
            if not isinstance(held, RankedDatabase):
                held = None
            link = segment.link
            if held is not None and held.db.content_hash() != segment.header.get(
                "content_hash"
            ):
                return False
            if link is not None:
                if not self._verify_once(link.base, tombstoned, chain + (snapshot_id,)):
                    return False
            elif held is None or segment.header["schema"] != SCHEMA_VERSION:
                check_json(segment)
        except CorruptSnapshotError:
            return False
        self._link_of[snapshot_id] = link
        self._verified.add(snapshot_id)
        return True

    # ------------------------------------------------------------------
    # Segment GC (phase one: tombstones)
    # ------------------------------------------------------------------
    def gc(
        self,
        policy: Optional[RetentionPolicy] = None,
        in_use: Union[Iterable[str], Callable[[], Iterable[str]]] = (),
    ) -> Dict[str, Any]:
        """Tombstone live segments beyond the retention policy.

        Phase one of the two-phase delete: each victim gets a durable
        ``tombstone`` journal record and drops from :meth:`snapshots`;
        the file is unlinked only by the *next* successful
        :meth:`checkpoint` (which also retires the tombstone once the
        file is gone).  Protected and never collected: ``in_use`` ids
        (the caller's leased / cached sessions), the policy's
        ``pinned`` ids, and every base or outcome named by a journal
        record that has not been checkpointed away (replay must stay
        possible).  Candidates are ordered by file modification time;
        the newest ``keep_last_n`` survive.  On top of all of these, every
        base a survivor needs is kept, transitively: a delta segment
        is rebuilt from its base on first use, so collecting the base would
        lose the delta.  Which base a live segment names is read from
        its header on disk, under the lock, so the deltas of another
        process are protected too.  Victims are tombstoned deltas
        before their bases, so a GC that crashes between two tombstone
        appends leaves every live delta's base live.

        ``in_use`` may be a callable instead of an id collection; it
        is then evaluated *under the store's exclusive lock*, at the
        moment victims are chosen.  Callers whose in-use set can grow
        concurrently (the session pool's lease path) pass a callback
        so an id leased after the GC call started is still protected,
        instead of a pre-snapshotted set that races the sweep.

        Returns a report of ``tombstoned``, ``live`` (survivors) and
        ``protected`` ids.  A ``None`` policy (or ``keep_last_n``
        ``None``) is a no-op.
        """
        with self._lock:
            self._require_writer("gc")
            with self._exclusive():
                resolved = in_use() if callable(in_use) else in_use
                if isinstance(resolved, str):
                    raise TypeError(
                        f"in_use must be a collection of snapshot ids, not "
                        f"the string {resolved!r}"
                    )
                return self._gc_locked(policy, frozenset(resolved))

    def _gc_locked(
        self, policy: Optional[RetentionPolicy], in_use: frozenset
    ) -> Dict[str, Any]:
        records = self._read_journal_from_disk()
        self._journal = records
        tombstoned = _tombstone_ids(records)
        protected: Set[str] = set(in_use)
        if policy is not None:
            protected.update(policy.pinned)
        for record in records:
            if record.get("kind", "clean") == "clean":
                for key in ("base", "outcome"):
                    value = record.get(key)
                    if isinstance(value, str):
                        protected.add(value)
        entries: List[Tuple[float, str]] = []
        for path in sorted(self._segments_dir.glob("*" + SEGMENT_SUFFIX)):
            segment_id = path.name[: -len(SEGMENT_SUFFIX)]
            if segment_id in tombstoned:
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, segment_id))
        entries.sort()
        live = [segment_id for _, segment_id in entries]
        keep_n = policy.keep_last_n if policy is not None else None
        if keep_n is None:
            victims: List[str] = []
        else:
            newest = set(live[max(len(live) - keep_n, 0) :])
            keep = (newest | protected) & set(live)
            # Every base a survivor needs, transitively.
            stack = list(keep)
            while stack:
                link = _link_on_disk(self._segment_path(stack.pop()))
                if link is not None and link.base not in keep:
                    keep.add(link.base)
                    protected.add(link.base)
                    stack.append(link.base)
            victims = [
                segment_id for segment_id in live if segment_id not in keep
            ]
            # A delta is tombstoned before its base, so a crash between
            # two appends never leaves a live delta on a tombstoned base.
            links = {v: _link_on_disk(self._segment_path(v)) for v in victims}

            def depth(segment_id: str) -> int:
                n, link = 0, links[segment_id]
                while link is not None and link.base in links and n < len(links):
                    n, link = n + 1, links[link.base]
                return n

            victims.sort(key=depth, reverse=True)
        for segment_id in victims:
            _disk_step("gc:tombstone")
            record = {
                "schema": JOURNAL_SCHEMA,
                "kind": "tombstone",
                "segment": segment_id,
            }
            self._append_journal_frame(record, fire_steps=False)
            self._journal.append(record)
            self._forget(segment_id)
        return {
            "tombstoned": victims,
            "live": [s for s in live if s not in victims],
            "protected": sorted(protected & set(live)),
        }

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _append_journal_frame(
        self, record: Mapping[str, Any], fire_steps: bool
    ) -> None:
        """Append one framed record; caller holds both locks.

        ``fire_steps`` enables the ``journal:*`` fault steps (the
        cleaning-append path); the tombstone path fires its own
        ``gc:tombstone`` step instead.  An ``OSError`` mid-append
        rolls the partial frame back out so the journal stays a clean
        prefix of verified records.
        """
        frame = encode_journal_record(record)
        crash_after = False
        if fire_steps:
            directive = _disk_step("journal:payload")
            if directive is not None:
                frame, crash_after = _apply_corruption(directive, frame)
        try:
            f = open(self._journal_path, "ab")
        except OSError as exc:
            raise StoreWriteError(
                f"could not open journal for append: {exc}"
            ) from exc
        with f:
            start = f.tell()
            try:
                f.write(frame)
                f.flush()
                if fire_steps:
                    _disk_step("journal:written")
                self._fsync_file(f)
            except OSError as exc:
                try:
                    f.truncate(start)
                    self._fsync_file(f)
                except OSError:
                    pass
                raise StoreWriteError(
                    f"could not append journal record: {exc}"
                ) from exc
        if fire_steps:
            _disk_step("journal:synced")
        if crash_after:
            raise SimulatedCrashError(
                "injected torn append to the cleaning journal"
            )

    def _read_journal_from_disk(self) -> List[Dict[str, Any]]:
        """The clean prefix of the on-disk journal, fresh.

        ``persist``, ``journal_clean``, ``checkpoint`` and ``gc`` trust
        this, not the in-memory mirror: between per-operation locks
        another process may have appended records this handle never
        saw.
        """
        try:
            data = self._journal_path.read_bytes()
        except OSError:
            return []
        records, _, _ = decode_journal(data)
        return records

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _segment_path(self, snapshot_id: str) -> Path:
        return self._segments_dir / (snapshot_id + SEGMENT_SUFFIX)

    def _fsync_file(self, f: Any) -> None:
        if self.durability != "none":
            os.fsync(f.fileno())

    def _fsync_dir(self, path: Path) -> None:
        if self.durability == "none":
            return
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def require_store(root: Union[str, Path]) -> None:
    """Raise :class:`~repro.exceptions.StoreError` unless ``root``
    holds a snapshot store (its ``segments/`` directory).

    Creates nothing: a read-only open, and maintenance that must not
    turn a mistyped directory into an empty store, check this first.
    """
    if not (Path(root) / _SEGMENTS_DIR).is_dir():
        raise StoreError(
            f"no snapshot store at {str(root)!r}: it has no "
            f"{_SEGMENTS_DIR}/ directory"
        )


def _applies_to(
    changes: Mapping[str, Optional[str]],
    held: RankedDatabase,
    ranked: RankedDatabase,
) -> bool:
    """Whether ``changes`` can lead from ``held`` to ``ranked``, by
    the checks that cost O(change): every x-tuple it names is in
    ``held``, every tuple id is one of that x-tuple's alternatives,
    and ``held``'s x-tuple count less the removals is ``ranked``'s."""
    db = held.db
    nulls = 0
    for xid, tid in changes.items():
        if not db.has_xtuple(xid):
            return False
        if tid is None:
            nulls += 1
        elif tid not in db.xtuple(xid).tids:
            return False
    return held.num_xtuples - nulls == ranked.num_xtuples


def _link_on_disk(path: Path) -> Optional[DeltaLink]:
    """The base and change set a segment file's header names (``None``
    for a full segment, or a file whose header does not read)."""
    try:
        with open(path, "rb") as f:
            return header_link(read_header(f.read))
    except (OSError, CorruptSnapshotError):
        return None


def _tombstone_ids(records: Iterable[Mapping[str, Any]]) -> Set[str]:
    """Segment ids named by tombstone records (logically deleted)."""
    return {
        record["segment"]
        for record in records
        if record.get("kind") == "tombstone"
        and isinstance(record.get("segment"), str)
    }
