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
structure, as its content-hash records (schema 5; schema 4 holds it as
typed columns and schemas 1 and 2 as JSON, and they stay readable),
and its ranked columns.  A *delta* segment
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
:meth:`SnapshotStore.verify`.  A full segment's rebuild checks the
content hash of its records, then the ids, sizes, probabilities and
masses of the columns it parses them into, then a cold re-rank bitwise
against the stored ranked columns; a delta
is rebuilt from its base's view spliced with the change set and must
hash to its header's content hash.  So corruption is *detected*, and
detected corruption is *quarantined* -- moved aside (on an exclusive
handle; a read-only one only refuses it) with a typed
:class:`~repro.exceptions.CorruptSnapshotError`, never served: at
open for a byte-level fault, at first use for a semantic one.

**Chain order.**  Every delta's header records its *depth*: its base's
depth plus one, a full segment's being zero.  Each walk of a chain
follows that order.  An open indexes segments by depth, so a delta is
indexed only if its base was indexed one link lower; a delta whose
base is missing, tombstoned, quarantined or at another depth is
quarantined, its reason naming the base.  A corrupt full segment thus
takes the deltas above it along, at most :data:`MAX_DELTA_DEPTH` links
of a chain, and a forged cycle ends where the depth stops falling.  A
check of a delta's base chain wants each base one link lower, GC
tombstones the deepest victims first, and a refusal takes the deltas
above a snapshot along in one pass by depth.  An open costs what its
first requests touch, not every live snapshot, and a rebuild costs
what the snapshot holds: a schema-5 segment's records parse into the
database's own columns and stay its content-hash records, and a delta
is a splice of its base's, with no tuple object built and no number
formatted (see :meth:`SnapshotStore._rebuild_full`).

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
deterministic given its seed.  A torn tail (crash mid-append) is cut
back out: by the next exclusive open, or by the next append, which
lands where the clean prefix ends.  The journal is the WAL, so losing
an un-fsynced tail record merely reverts to pre-state.

**Multi-process safety.**  Every operation that reads or writes the
directory holds the cross-process advisory lock
(:class:`repro.store.locks.StoreLock`): exclusive for recovery and
every mutation, shared for ``mode="readonly"`` opens.  Two processes
hammering one root therefore interleave *whole operations*; a process
that cannot get the lock within its bounded wait sheds with the typed
:class:`~repro.exceptions.StoreLockedError` instead of corrupting the
directory or queueing forever.  Because the lock is taken per
transaction (not per handle lifetime), another process may have
written between two of ours, so every transaction first brings this
handle's journal mirror up to date with a *tail read*: the handle
holds open the journal file it last decoded, remembers where the clean
prefix ended, and decodes only the bytes past that offset.  It reads
the whole journal again when another handle rewrote it (a checkpoint
or a resurrection renames a new file into place, which cannot take
the inode number of the file the handle holds open) or when the file
is shorter than the offset.  Its own appends and rewrites
move the offset, and the ids its tombstone and clean records name are
kept beside the mirror, so no step of a durable write walks the
journal.  GC and a checkpoint list the segment directory under the
lock; segment content-addressing makes ``persist`` naturally
idempotent across processes, and a tombstone a peer wrote is retired,
not raced.

**Checkpoint / compaction** (:meth:`SnapshotStore.checkpoint`) bounds
the journal: records whose outcome segment is durably committed and
verified (for a delta, down its base chain) are dropped, the survivors
are rewritten through the same atomic temp+fsync+rename routine as
segments, and a crash at any step leaves the complete old journal or
the complete new one.  A transaction that appends a clean record
compacts the journal itself once it holds ``max_journal_records`` (or
``REPRO_JOURNAL_MAX_RECORDS``) records, after its segment commit, so
the new record can drop in the same rewrite.

**Segment GC** applies a :class:`RetentionPolicy` with a *two-phase
delete*: phase one appends a durable ``tombstone`` journal record per
victim (one fsync for the sweep's frames; the segment is logically
dead, recovery stops loading it), phase two unlinks the file only
after the next successful checkpoint has made the tombstone durable.
A durable write runs both phases in its own transaction
(:meth:`SnapshotStore.persist` with ``retention``); :meth:`SnapshotStore.gc`
runs phase one alone.  A crash
between the phases leaves either the pre-GC state or a durable
tombstone whose file is swept by the next checkpoint -- never a
half-deleted store.  Retention never collects a base that a kept delta
is rebuilt from; GC reads which base a segment names from its header
on disk, once per file identity.  Re-persisting a tombstoned id *resurrects* it:
``persist`` retires the tombstone with an atomic journal rewrite (and
discards the dead file, which recovery skipped unverified) *before*
committing the new segment, so an acknowledged persist can never be
unlinked by a later checkpoint or skipped by recovery.

**Durability.**  Every store syncs every journal append and every
segment commit, so a journal record is durable before its outcome
segment commits.  Every write is one transaction under one hold of the
writer lock, starting from what the disk holds: a durable clean
(:meth:`SnapshotStore.persist` with a ``record``) appends and syncs the
journal record (the WAL point), commits the outcome segment, tombstones
what the retention policy collects, and compacts the journal when GC
tombstoned something or the record threshold is reached.  There is no
group commit across requests: the segment commit needs its record
durable first, so a coalescing window would have nothing to coalesce.

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
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
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
    RECORDS_COLUMN,
    RECORDS_DTYPE,
    STRUCTURE_COLUMNS,
    database_from_columns,
    database_from_dict,
    database_from_records,
)
from repro.db.ranking import ranking_descriptor, ranking_from_descriptor
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
    check_structure,
    decode_journal,
    decode_segment,
    encode_journal,
    encode_journal_record,
    encode_segment,
    header_link,
    read_header,
    records_digest,
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


#: Segment ids a GC must keep: a collection, or a callback evaluated
#: under the store lock when the victims are picked.
InUse = Union[Iterable[str], Callable[[], Iterable[str]]]


def clean_record(
    base: str,
    spec_payload: Mapping[str, Any],
    outcome: str,
    outcome_hash: str,
    changes: Optional[Mapping[str, Optional[str]]] = None,
) -> Dict[str, Any]:
    """The write-ahead journal record of one executed cleaning: the
    outcome as its ``base`` plus ``changes`` (omitted means nothing
    changed), with the spec, the outcome's snapshot id and content
    hash as provenance (see :meth:`SnapshotStore.journal_clean`)."""
    return {
        "schema": JOURNAL_SCHEMA,
        "kind": "clean",
        "base": base,
        "outcome": outcome,
        "outcome_hash": outcome_hash,
        "spec": dict(spec_payload),
        "changes": dict(changes or {}),
    }


class _JournalMark(NamedTuple):
    """Where a handle's journal mirror ends in the file: the journal
    file the handle last read, which it holds open as ``fd`` so that
    no other file can take its inode number while the mark names it,
    that file's (device, inode), and the offset where the clean prefix
    ends."""

    fd: int
    identity: Tuple[int, int]
    end: int


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
    :meth:`pending_cleanings` for the serving layer to replay.  Every
    store syncs file and directory at every commit point; there is no
    setting that skips the fsyncs.

    Parameters
    ----------
    root:
        The store directory (created if absent, by an exclusive open;
        a read-only open of a directory without ``segments/`` raises
        :class:`~repro.exceptions.StoreError` and creates nothing).
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
        Auto-checkpoint threshold, at least 1: a transaction that
        appends a clean record compacts the journal once it holds this
        many records (default: ``REPRO_JOURNAL_MAX_RECORDS``, else
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
        mode: str = "exclusive",
        lock_timeout_ms: Optional[float] = None,
        max_journal_records: Optional[int] = None,
    ) -> None:
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
        #: Segments whose on-disk bytes this handle has verified -- at
        #: open, at a checkpoint, or as a delta's base (see persist) --
        #: with the version of the file it read (_file_version), so a
        #: file written anew under the id is verified anew.
        self._verified: Dict[str, Tuple[int, ...]] = {}
        #: The journal's clean prefix as this handle last read or
        #: wrote it, with the ids its tombstone records name and the
        #: ids its clean records name as base or outcome (GC protects
        #: those), kept up to date with it.
        self._journal: List[Dict[str, Any]] = []
        self._tombstoned: Set[str] = set()
        self._journaled: Set[str] = set()
        #: Where the mirror ends in the journal file, or ``None`` when
        #: the next read must decode the whole file (see _read_journal),
        #: and what closes the file the mark holds open.
        self._journal_mark: Optional[_JournalMark] = None
        self._journal_unpin: Callable[[], Any] = lambda: None
        #: Segment headers GC has read: id -> (file identity, the base
        #: and change set the header names).
        self._headers: Dict[str, Tuple[Tuple[int, ...], Optional[DeltaLink]]] = {}
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
    def _transaction(self) -> Iterator[None]:
        """Hold the writer lock for one transaction, the journal
        mirror brought up to date first (:meth:`_read_journal`).
        Caller holds the thread lock; every mutation runs in one."""
        with self._exclusive():
            self._read_journal()
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
            return self._materialize(snapshot_id)

    def snapshots(self) -> Dict[str, RankedDatabase]:
        """Every live snapshot's ranked view by id (a copy; safe to
        mutate), rebuilding those not yet used.  A snapshot whose
        rebuild fails is quarantined (or refused, read-only) and left
        out."""
        with self._lock:
            return self._materialize_all()

    def _materialize_all(self) -> Dict[str, RankedDatabase]:
        """Every live snapshot's view, rebuilt where not yet used;
        failures are refused and left out.  Caller holds the thread
        lock but not the file lock."""
        views: Dict[str, RankedDatabase] = {}
        for snapshot_id in sorted(self._index):
            try:
                views[snapshot_id] = self._materialize(snapshot_id)
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
        return [
            r
            for r in self._journal
            if r.get("kind", "clean") == "clean"
            and r.get("outcome") not in self._index
            and r.get("outcome") not in self._tombstoned
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
            tombstones = len(self._tombstoned)
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
            size, clean_length, truncate_reason = self._read_whole_journal()
            if clean_length < size:
                truncated_bytes = size - clean_length
                if repair:
                    with open(self._journal_path, "r+b") as f:
                        f.truncate(clean_length)
                        os.fsync(f.fileno())
                    _fsync_dir(self.root)

        tombstoned = self._tombstoned
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

        segments: Dict[str, Tuple[Path, Segment, Tuple[int, ...]]] = {}
        for path in sorted(self._segments_dir.glob("*" + SEGMENT_SUFFIX)):
            snapshot_id = path.name[: -len(SEGMENT_SUFFIX)]
            if snapshot_id in tombstoned:
                skipped_tombstoned += 1
                continue
            try:
                version = _file_version(path.stat())
                segments[snapshot_id] = (path, self._read_segment(path), version)
            except (CorruptSnapshotError, OSError) as exc:
                refuse(path, str(exc))
        # By depth: a delta's base, one link lower, is decided first.
        depth = {sid: _depth(entry[1].link) for sid, entry in segments.items()}
        indexed: Set[str] = set()
        for sid in sorted(segments, key=lambda s: (depth[s], s)):
            path, segment, _ = segments[sid]
            link = segment.link
            if link is None:
                indexed.add(sid)
                continue
            base = link.base
            root = broken.get(base)
            if root is not None:
                refuse(
                    path,
                    f"segment corrupt: its base {base!r} was quarantined"
                    + ("" if root == base else f" with {root!r}"),
                    root,
                )
            elif base not in segments:
                refuse(
                    path, f"segment corrupt: its base {base!r} is missing or tombstoned"
                )
            elif depth[base] != depth[sid] - 1:
                refuse(
                    path,
                    f"segment corrupt: it records depth {depth[sid]} but its "
                    f"base {base!r} is at depth {depth[base]}",
                )
            else:
                indexed.add(sid)
        for snapshot_id in sorted(indexed):
            _, segment, version = segments[snapshot_id]
            self._index[snapshot_id] = segment
            self._link_of[snapshot_id] = segment.link
            self._verified[snapshot_id] = version
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

    def _materialize(self, snapshot_id: str) -> RankedDatabase:
        """The snapshot's ranked view, rebuilding it -- and, for a
        delta, the base chain below it -- on first use; see
        :meth:`load`.  Caller holds the thread lock but not the file
        lock, which a quarantine takes.
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
                    view = self._rebuild_full(segment)
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
        refused = {snapshot_id: reason}
        # By depth, so each delta's base is decided before it.
        for sid in sorted(self._index, key=lambda s: (_depth(self._link_of.get(s)), s)):
            link = self._link_of.get(sid)
            if sid not in refused and link is not None and link.base in refused:
                refused[sid] = (
                    f"segment corrupt: its base {link.base!r} was quarantined"
                    + ("" if link.base == snapshot_id else f" with {snapshot_id!r}")
                )
        for sid, why in refused.items():
            self._forget(sid)
            self._refused[sid] = why
        if self.mode == "exclusive":
            with self._exclusive():
                for sid in refused:
                    path = self._segment_path(sid)
                    if path.exists():
                        self._quarantine_file(path)

    def _rebuild_full(self, segment: Segment) -> RankedDatabase:
        """Verify and rebuild one full segment's ranked view -- or raise.

        Verification is belt *and* suspenders: beyond the codec's
        checks, this proves the database is the content the snapshot
        id names, checks every id, size, probability and mass of it,
        re-ranks it cold, and compares every canonical column bitwise
        against the stored bytes.  A segment that passes cannot
        silently disagree with the view a fresh construction would
        produce.

        A schema-5 segment stores the bytes its content hash is taken
        over, its records: their SHA-256 must be the header's content
        hash, and only then are they parsed into the database's
        columns and checked (:func:`~repro.db.io.database_from_records`).
        The columns are thus derived from the very bytes hashed, and
        the database keeps those bytes as its content-hash records, so
        the rebuild formats no number and takes no second SHA-256.  The
        cold re-rank reads the columns (under the by-value rule, the
        value column is the score column), so the rebuild builds no
        tuple object and, for plain records, runs no Python code per
        x-tuple.  An older segment's structure is checked first and
        hashed after: a schema-4 one's typed columns
        (:func:`~repro.db.io.database_from_columns`, which formats the
        records), a schema-1 or -2 one's JSON, parsed whole and
        validated as ingest does.  Each segment is checked on its own.
        """
        header, structure_json, columns = segment
        schema = header["schema"]
        try:
            if schema in (4, SCHEMA_VERSION):
                name = header.get("name")
                if not isinstance(name, str):
                    raise InvalidDatabaseError(f"bad database name {name!r}")
            if schema == SCHEMA_VERSION:
                db = database_from_records(
                    name, columns[RECORDS_COLUMN], records_digest(segment)
                )
            elif schema == 4:
                db = database_from_columns(
                    name, segment.typed_columns(STRUCTURE_COLUMNS)
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
        _fsync_dir(self._quarantine_dir)
        _fsync_dir(path.parent)
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
        record: Optional[Dict[str, Any]] = None,
        retention: Optional[RetentionPolicy] = None,
        in_use: InUse = (),
    ) -> bool:
        """Durably write one snapshot segment; idempotent by id.  With
        ``record`` and ``retention``, the whole durable write -- journal
        record, segment, retention sweep -- is one transaction.

        What to do is decided under the writer lock, from the segment
        directory and the journal as they are then, not from what this
        handle holds.  Returns ``False`` (writing no segment) when the
        segment's file exists and no tombstone names it -- including
        when *another process* committed it between our operations:
        segments are content-addressed, so a same-id file holds the
        same snapshot, and this handle simply adopts it.  A missing
        file is written, even for an id this handle holds (another
        process's GC may have collected it).  A *tombstoned* id's
        journal tombstone (from GC, possibly another process's) is
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

        **One transaction** (:meth:`_write`, which :meth:`journal_clean`
        runs too).  The base is rebuilt first (a quarantine takes the
        file lock); then, under one hold of the writer lock, with the
        journal mirror brought up to date by a tail read
        (:meth:`_read_journal`):

        1. ``record`` -- a cleaning's write-ahead record
           (:func:`clean_record`), whose base must be ``base`` -- is
           appended and synced if that base is held, live and verified:
           the WAL point.  A durable clean passes one; a register and a
           journal replay do not.
        2. The segment commits, or is adopted, as above.
        3. With ``retention``, GC tombstones what the policy collects,
           as :meth:`gc` does; ``in_use`` is evaluated here, under the
           lock.
        4. When GC tombstoned something, or the appended record brought
           the journal to ``max_journal_records``, the journal is
           compacted and the tombstoned files unlinked, as
           :meth:`checkpoint` does -- once, after the segment commit, so
           the new record can drop in the same rewrite.
        """
        self._require_writer("persist")
        descriptor = ranking_descriptor(ranked.ranking)
        if descriptor is None:
            raise StoreWriteError(
                f"ranking {ranked.ranking!r} has no serializable "
                f"descriptor; durable snapshots require a factory "
                f"ranking (by_value / by_key / by_sum_of_keys)"
            )
        if record is not None and record.get("base") != base:
            raise ValueError(
                f"the journal record names base {record.get('base')!r}, "
                f"not {base!r}"
            )
        _, written = self._write(
            base,
            record,
            lambda: self._commit_locked(snapshot_id, ranked, descriptor, base, changes),
            retention,
            in_use,
        )
        return written

    def _write(
        self,
        base: Optional[str],
        record: Optional[Dict[str, Any]],
        commit: Optional[Callable[[], bool]] = None,
        retention: Optional[RetentionPolicy] = None,
        in_use: InUse = (),
    ) -> Tuple[bool, bool]:
        """One write transaction (see :meth:`persist`): rebuild
        ``base`` if this handle holds it -- before the file lock, which
        a quarantine takes, so a base that fails is found gone and gets
        no record and no delta -- then, under the writer lock, read the
        journal's new tail, append ``record``, run ``commit`` (a
        segment commit), sweep with ``retention`` and compact when
        due.  Returns whether the record was appended and whether
        ``commit`` wrote a segment."""
        with self._lock:
            if base is not None and base in self._index:
                try:
                    self._materialize(base)
                except CorruptSnapshotError:
                    pass
            with self._transaction():
                journaled = record is not None and self._journal_locked(record)
                written = commit is not None and commit()
                swept = retention is not None and bool(
                    self._gc_locked(retention, _resolve_in_use(in_use))["tombstoned"]
                )
                if swept or (journaled and self._journal_full()):
                    self._checkpoint_locked()
        return journaled, written

    def _commit_locked(
        self,
        snapshot_id: str,
        ranked: RankedDatabase,
        descriptor: Mapping[str, Any],
        base: Optional[str],
        changes: Optional[Mapping[str, Optional[str]]],
    ) -> bool:
        """Commit one segment (see :meth:`persist`), deciding from the
        directory: retire a tombstone naming the id and write, adopt a
        file that no tombstone names, or write a missing one -- a delta
        or a full segment.  Returns whether it wrote one.  Caller holds
        both locks, the mirror up to date."""
        final = self._segment_path(snapshot_id)
        # A tombstone for this id (ours or another process's) decides
        # whether an existing file is adoptable or dead.
        if snapshot_id in self._tombstoned:
            self._retire_tombstone(snapshot_id, final)
        elif final.exists():
            self._index[snapshot_id] = ranked
            self._link_of[snapshot_id] = _link_on_disk(final)
            self._refused.pop(snapshot_id, None)
            return False
        _disk_step("segment:begin")
        link = self._delta_link(ranked, descriptor, base, changes)
        if link is not None:
            payload = encode_segment(
                snapshot_id=snapshot_id,
                content_hash=ranked.db.content_hash(),
                columns={},
                delta=link,
            )
        else:
            columns = {
                RECORDS_COLUMN: (RECORDS_DTYPE, b"".join(ranked.db.content_records()))
            }
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
        self._replace_file(final, payload, "segment", f"segment {snapshot_id!r}")
        # New bytes: verified only once read back.
        self._verified.pop(snapshot_id, None)
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
            or not self._verify_once(base)
        ):
            return None
        depth = 1 + _depth(self._link_of.get(base))
        if (
            depth > MAX_DELTA_DEPTH
            or changes is None
            or not _applies_to(changes, held, ranked)
        ):
            return None
        return DeltaLink(base, depth, dict(changes))

    def _verify_once(self, snapshot_id: str, depth: Optional[int] = None) -> bool:
        """Whether the segment is live and this handle has verified its
        bytes and its base chain, reading them at most once -- and,
        with ``depth``, whether it records that depth.

        Live means its file exists and no tombstone names it.  A
        segment verified before (at open, at a checkpoint, or by an
        earlier call) is not read again while its file is the one read
        then (same device, inode, size and modification time).
        Otherwise -- also when another process collected the segment
        and wrote it anew, maybe as the other kind -- the file is read:
        the digest, CRCs, header, framing and id are always checked.
        Any segment whose snapshot this handle holds rebuilt must name
        its content hash.  A full schema-5 or -4 segment that does is
        not read further; every other full segment -- one this handle
        does not hold rebuilt (another process wrote it), or a schema-1
        or -2 one -- gets a light check of its structure
        (:func:`~repro.store.format.check_structure`): a schema-5
        segment's records must hash to its content hash, an older
        segment's JSON must parse.  A delta's base must
        verify in turn, one link lower, so the walk ends however the
        headers name each other.  A segment that verifies is
        remembered as verified, with its kind.  Caller holds both
        locks.
        """
        if snapshot_id in self._tombstoned:
            return False
        path = self._segment_path(snapshot_id)
        try:
            version = _file_version(path.stat())
        except OSError:
            return False
        if self._verified.get(snapshot_id) == version:
            return depth is None or _depth(self._link_of.get(snapshot_id)) == depth
        try:
            segment = decode_segment(path.read_bytes())
            link = segment.link
            if segment.header.get("snapshot_id") != snapshot_id or (
                depth is not None and _depth(link) != depth
            ):
                return False
            held = self._index.get(snapshot_id)
            if not isinstance(held, RankedDatabase):
                held = None
            if held is not None and held.db.content_hash() != segment.header.get(
                "content_hash"
            ):
                return False
            if link is not None:
                if not self._verify_once(link.base, link.depth - 1):
                    return False
            elif held is None or segment.header["schema"] not in (
                4,
                SCHEMA_VERSION,
            ):
                check_structure(segment)
        except (OSError, CorruptSnapshotError):
            return False
        self._link_of[snapshot_id] = link
        self._verified[snapshot_id] = version
        return True

    def _forget(self, snapshot_id: str) -> None:
        """Drop a segment from this handle's index and bookkeeping."""
        self._index.pop(snapshot_id, None)
        self._link_of.pop(snapshot_id, None)
        self._verified.pop(snapshot_id, None)

    def journal_clean(
        self,
        base_snapshot_id: str,
        spec_payload: Mapping[str, Any],
        outcome_snapshot_id: str,
        outcome_hash: str,
        changes: Optional[ChangeSet] = None,
    ) -> Optional[Dict[str, Any]]:
        """Append one cleaning outcome to the write-ahead journal, in a
        transaction of its own: :meth:`persist`'s transaction
        (:meth:`_write`) with no segment and no sweep.

        The service's durable clean does not call this: it passes the
        same record to :meth:`persist`, which appends it in the
        transaction that commits the outcome segment.  This entry point
        appends the record alone, for callers that persist separately
        (tests, tooling).  Journal replay never calls either, since the
        record it replays already covers the outcome.  The schema-2
        record (:func:`clean_record`) holds the outcome as its base
        plus its change set (``changes``, as the clean carried it;
        omitted means nothing changed), with ``spec_payload``,
        ``outcome_snapshot_id`` and ``outcome_hash`` kept as
        provenance.  Once this returns the record, a crash at any
        later point is recoverable: replay applies the change set to
        the base snapshot -- no planner, no kernel -- checks the
        result's id and content hash against the record, and persists
        the outcome only if both match.  A crash *during* the append
        leaves a torn tail that the next exclusive open, or the next
        append, cuts away -- the cleaning then simply never happened
        durably (pre-state), which is correct because the caller had
        not yet acknowledged it.

        Replay needs the base, so the record is appended only on a
        durable, live base: under the exclusive lock, against the
        journal mirror brought up to date, this handle must hold the
        base and have verified it live -- its file exists, no tombstone
        (ours or another process's) names it, and its bytes and base
        chain read back clean (:meth:`_verify_once`, the check
        :meth:`persist` makes of a delta's base, so the read is not
        repeated there).  Otherwise -- a memory-only base, one GC has
        just collected, or one whose bytes went bad -- nothing is
        appended and this returns ``None``.  The outcome then persists
        as a full segment, and a crash before that commit reverts to
        the pre-state, correct for the same reason: the clean was never
        acknowledged.

        When the record brings the journal to the
        ``max_journal_records`` threshold, the journal is checkpointed
        in the same transaction.
        """
        self._require_writer("journal_clean")
        record = clean_record(
            base_snapshot_id, spec_payload, outcome_snapshot_id, outcome_hash, changes
        )
        journaled, _ = self._write(base_snapshot_id, record)
        return dict(record) if journaled else None

    def _journal_locked(self, record: Dict[str, Any]) -> bool:
        """Append a clean record if this handle holds its base live and
        verified (see :meth:`journal_clean`); returns whether it did.
        Caller holds both locks, the mirror up to date."""
        base = record.get("base")
        if (
            not isinstance(base, str)
            or base not in self._index
            or not self._verify_once(base)
        ):
            return False
        _disk_step("journal:begin")
        self._append_journal(record, fire_steps=True)
        return True

    def note_replayed(self) -> None:
        """Count one journal record successfully replayed at open."""
        with self._lock:
            self.psr_store_replays += 1

    # ------------------------------------------------------------------
    # Checkpoint / compaction
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Compact the journal and finish any pending two-phase GC, in a
        transaction of its own (a durable write runs the same step in
        its transaction; see :meth:`persist`).

        Under the exclusive lock, against the journal mirror brought up
        to date (another process may have appended), drops ``clean``
        records whose outcome segment is durably committed and verifies
        -- for a delta, its own bytes plus its base chain, every base
        live and verified; a segment this handle already verified is
        not read again (:meth:`_verify_once`) -- or whose outcome a
        tombstone names (it owes no replay, as
        :meth:`pending_cleanings` says; left otherwise, it would turn
        pending once the tombstone is retired), drops ``tombstone``
        records whose file is already gone, and rewrites
        the survivors atomically (temp + fsync + rename + dir fsync)
        -- a crash at any step leaves the complete old journal or the
        complete new one.  After the rewrite commits, tombstoned
        segment files still on disk are unlinked (phase two of the
        two-phase delete); those tombstones drop out at the *next*
        checkpoint once their file is observed gone.

        Returns a report: ``compacted`` (whether a rewrite happened),
        ``records_before`` / ``records_after`` / ``dropped``,
        ``unlinked`` segment ids, and the journal's byte size.
        """
        with self._lock:
            self._require_writer("checkpoint")
            with self._transaction():
                return self._checkpoint_locked()

    def _journal_full(self) -> bool:
        """Whether the mirror has reached ``max_journal_records``."""
        threshold = self.max_journal_records
        return threshold is not None and len(self._journal) >= threshold

    def _checkpoint_locked(self) -> Dict[str, Any]:
        """Compact the journal and unlink tombstoned files (see
        :meth:`checkpoint`).  Caller holds both locks, the mirror up to
        date."""
        records = self._journal
        tombstoned = self._tombstoned
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
                    outcome in tombstoned or self._verify_once(outcome)
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
            self._rewrite_journal(surviving, "checkpoint")
            self.psr_store_compactions += 1
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
            _fsync_dir(self._segments_dir)
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

    def _replace_file(
        self, final: Path, payload: bytes, steps: str, what: str
    ) -> bytes:
        """Atomically replace ``final`` with ``payload``: write a
        ``.tmp-*`` sibling, fsync it, rename it over ``final`` -- the
        commit point -- and fsync the directory.  Segment commits and
        journal rewrites (checkpoints, resurrections) all go through
        here, so a crash at any step leaves the complete old file or the
        complete new one.  Returns the bytes written.

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
                os.fsync(f.fileno())
            _disk_step(steps + ":synced")
            os.replace(tmp, final)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise StoreWriteError(f"could not write {what}: {exc}") from exc
        _disk_step(steps + ":renamed")
        _fsync_dir(final.parent)
        if crash_after:
            raise SimulatedCrashError(f"injected torn write of {what}")
        _disk_step(steps + ":committed")
        return payload

    def _retire_tombstone(self, snapshot_id: str, final: Path) -> None:
        """Durably resurrect a tombstoned id so it can be re-persisted.

        Without this, ``persist`` after GC would silently lose
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
            _fsync_dir(self._segments_dir)
        surviving = [
            record
            for record in self._journal
            if not (
                record.get("kind") == "tombstone"
                and record.get("segment") == snapshot_id
            )
        ]
        _disk_step("resurrect:begin")
        self._rewrite_journal(surviving, "resurrect")

    # ------------------------------------------------------------------
    # Segment GC (phase one: tombstones)
    # ------------------------------------------------------------------
    def gc(
        self,
        policy: Optional[RetentionPolicy] = None,
        in_use: InUse = (),
    ) -> Dict[str, Any]:
        """Tombstone live segments beyond the retention policy, in a
        transaction of its own (a durable write with a retention policy
        runs the same step, then the checkpoint, in its transaction;
        see :meth:`persist`).

        Phase one of the two-phase delete: each victim gets a
        ``tombstone`` journal record (the sweep's frames share one
        fsync) and drops from :meth:`snapshots`;
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
        process are protected too; the handle reads a header again only
        when the file's identity (device, inode, size, modification
        time) changed since it last read it.  Victims are tombstoned by
        the depth their headers record, deepest first (in age order
        within a depth), so deltas go before their bases and a GC that
        crashes between two tombstone appends leaves every live delta's
        base live.

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
            with self._transaction():
                return self._gc_locked(policy, _resolve_in_use(in_use))

    def _gc_locked(
        self, policy: Optional[RetentionPolicy], in_use: FrozenSet[str]
    ) -> Dict[str, Any]:
        """Tombstone what ``policy`` collects (see :meth:`gc`).  Caller
        holds both locks, the mirror up to date."""
        protected: Set[str] = set(in_use) | self._journaled
        if policy is not None:
            protected.update(policy.pinned)
        # One listing of segments/; each file's stat gives its age and
        # the identity its cached header is checked against.
        files: Dict[str, os.stat_result] = {}
        with os.scandir(self._segments_dir) as listing:
            for entry in listing:
                if entry.name.endswith(SEGMENT_SUFFIX):
                    try:
                        files[entry.name[: -len(SEGMENT_SUFFIX)]] = entry.stat()
                    except OSError:
                        continue
        for gone in self._headers.keys() - files.keys():
            del self._headers[gone]
        live = sorted(
            (sid for sid in files if sid not in self._tombstoned),
            key=lambda sid: (files[sid].st_mtime, sid),
        )
        keep_n = policy.keep_last_n if policy is not None else None
        if keep_n is None:
            victims: List[str] = []
        else:
            newest = set(live[max(len(live) - keep_n, 0) :])
            keep = (newest | protected) & set(live)
            # Every base a survivor needs, transitively.
            stack = list(keep)
            while stack:
                link = self._header_link(stack.pop(), files)
                if link is not None and link.base not in keep:
                    keep.add(link.base)
                    protected.add(link.base)
                    stack.append(link.base)
            # Deepest first, so a delta is tombstoned before its base: a
            # crash between two appends never leaves a live delta on a
            # tombstoned base.
            victims = sorted(
                (segment_id for segment_id in live if segment_id not in keep),
                key=lambda segment_id: _depth(self._header_link(segment_id, files)),
                reverse=True,
            )
        for segment_id in victims:
            _disk_step("gc:tombstone")
            self._append_journal(
                {"schema": JOURNAL_SCHEMA, "kind": "tombstone", "segment": segment_id},
                fire_steps=False,
                sync=False,
            )
            self._forget(segment_id)
        if victims:
            self._sync_journal()
        return {
            "tombstoned": victims,
            "live": [s for s in live if s not in victims],
            "protected": sorted(protected & set(live)),
        }

    def _header_link(
        self, snapshot_id: str, files: Mapping[str, os.stat_result]
    ) -> Optional[DeltaLink]:
        """The base and change set segment ``snapshot_id``'s header
        names (``None`` for a full segment, or a file that is not in
        ``files`` or whose header does not read).  The header is read
        from disk once per file identity -- device, inode, size,
        modification time -- and again when that identity changes.
        Caller holds both locks."""
        stat = files.get(snapshot_id)
        if stat is None:
            return None
        version = _file_version(stat)
        cached = self._headers.get(snapshot_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        link = _link_on_disk(self._segment_path(snapshot_id))
        self._headers[snapshot_id] = (version, link)
        return link

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _append_journal(
        self, record: Dict[str, Any], fire_steps: bool, sync: bool = True
    ) -> None:
        """Append one framed record and take it into the mirror; caller
        holds both locks.

        ``fire_steps`` enables the ``journal:*`` fault steps (the
        cleaning-append path); the tombstone path fires its own
        ``gc:tombstone`` step instead, and syncs a sweep's frames once
        (``sync=False``, then :meth:`_sync_journal`).

        The frame lands where the mark says the clean prefix ends: a
        torn tail past it (a peer crashed mid-append) is cut off first,
        as an exclusive open cuts it, and the append's own fsync makes
        the cut durable.  An ``OSError`` mid-append rolls the partial
        frame back out so the journal stays a clean prefix of verified
        records.  An intact frame moves the mark past it, or pins the
        journal the append created; a corrupted frame clears the mark,
        so the next read decodes the whole file.
        """
        intact = encode_journal_record(record)
        frame = intact
        crash_after = False
        if fire_steps:
            directive = _disk_step("journal:payload")
            if directive is not None:
                frame, crash_after = _apply_corruption(directive, frame)
        mark = self._journal_mark
        try:
            f = open(self._journal_path, "ab")
        except OSError as exc:
            raise StoreWriteError(
                f"could not open journal for append: {exc}"
            ) from exc
        with f:
            start = f.tell()
            try:
                if mark is not None and start > mark.end:
                    f.truncate(mark.end)
                    start = f.seek(mark.end)
                f.write(frame)
                f.flush()
                if fire_steps:
                    _disk_step("journal:written")
                if sync:
                    os.fsync(f.fileno())
            except OSError as exc:
                try:
                    f.truncate(start)
                    os.fsync(f.fileno())
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
        end = start + len(frame)
        if frame != intact:
            self._unpin_journal()
        elif mark is not None:
            self._journal_mark = mark._replace(end=end)
        elif start == 0:
            self._pin_written_journal(end)
        self._journal.append(record)
        self._note_records((record,))

    def _sync_journal(self) -> None:
        """Fsync the journal file: the one sync of a sweep's tombstone
        frames.  Caller holds both locks."""
        try:
            with open(self._journal_path, "rb") as f:
                os.fsync(f.fileno())
        except OSError as exc:
            raise StoreWriteError(f"could not sync the journal: {exc}") from exc

    def _rewrite_journal(self, records: List[Dict[str, Any]], steps: str) -> None:
        """Atomically replace the journal with ``records`` (a checkpoint
        or a resurrection, whose ``<steps>:begin`` the caller fired),
        and the mirror with it.  Caller holds both locks."""
        payload = encode_journal(records)
        written = self._replace_file(self._journal_path, payload, steps, "the journal")
        self._set_journal(records)
        if written == payload:
            self._pin_written_journal(len(payload))
        else:
            self._unpin_journal()

    def _read_journal(self) -> None:
        """Bring the journal mirror up to date with the file on disk.

        A *tail read* when the mark allows it: the journal file is the
        one the mark holds open (same device and inode) and it is at
        least as long as the mark's offset -- then only the bytes past
        the offset are decoded.  The journal only grows in place; a
        checkpoint or a resurrection renames a new file into place, and
        since the handle holds the file it last read open, that inode
        number cannot be reused for the new file, so equal numbers
        prove the same file.  Anything else -- another handle's
        rewrite, a file cut shorter, no mark -- decodes the whole file
        (:meth:`_read_whole_journal`).  Either way the clean prefix
        ends at the first bad frame, as at open, and the mark moves to
        its end.  Caller holds both locks.
        """
        try:
            stat = os.stat(self._journal_path)
        except OSError:
            stat = None
        mark = self._journal_mark
        if (
            stat is not None
            and mark is not None
            and mark.identity == _file_identity(stat)
            and stat.st_size >= mark.end
        ):
            if stat.st_size > mark.end:
                records, clean, _ = decode_journal(_read_from(mark.fd, mark.end))
                if records:
                    self._journal.extend(records)
                    self._note_records(records)
                    self._journal_mark = mark._replace(end=mark.end + clean)
            return
        if stat is not None:
            try:
                self._read_whole_journal()
                return
            except OSError:
                pass
        self._set_journal([])
        self._unpin_journal()

    def _read_whole_journal(self) -> Tuple[int, int, str]:
        """Decode the whole journal file into the mirror and mark it
        as read up to the end of its clean prefix (see
        :meth:`_read_journal`).  Returns the file's size, the clean
        prefix's length and why the prefix ends early (``""`` if it
        does not).  Caller holds a file lock."""
        fd = os.open(self._journal_path, os.O_RDONLY)
        mark = self._pin_journal(fd, 0)
        data = _read_from(fd, 0)
        records, clean, reason = decode_journal(data)
        self._set_journal(records)
        self._journal_mark = mark._replace(end=clean)
        return len(data), clean, reason

    def _pin_journal(self, fd: int, end: int) -> _JournalMark:
        """Mark the journal file open as ``fd`` as read up to ``end``,
        holding it open until the mark moves to another file (or the
        handle is collected), and close the file the old mark held."""
        self._unpin_journal()
        self._journal_unpin = weakref.finalize(self, os.close, fd)
        mark = _JournalMark(fd, _file_identity(os.fstat(fd)), end)
        self._journal_mark = mark
        return mark

    def _pin_written_journal(self, end: int) -> None:
        """Mark the journal file this handle just wrote, which is in
        place under the lock, as read up to ``end``."""
        try:
            fd = os.open(self._journal_path, os.O_RDONLY)
        except OSError:
            self._unpin_journal()
            return
        self._pin_journal(fd, end)

    def _unpin_journal(self) -> None:
        """Clear the mark and close the file it held: the next read
        decodes the whole journal."""
        self._journal_mark = None
        self._journal_unpin()

    def _set_journal(self, records: List[Dict[str, Any]]) -> None:
        """Replace the journal mirror -- after a whole read or a
        rewrite -- and the id sets kept with it."""
        self._journal = records
        self._tombstoned = set()
        self._journaled = set()
        self._note_records(records)

    def _note_records(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Add the ids that ``records`` name to the mirror's id sets:
        a tombstone's segment, a clean record's base and outcome."""
        for record in records:
            kind = record.get("kind", "clean")
            if kind == "tombstone":
                segment = record.get("segment")
                if isinstance(segment, str):
                    self._tombstoned.add(segment)
            elif kind == "clean":
                for key in ("base", "outcome"):
                    value = record.get(key)
                    if isinstance(value, str):
                        self._journaled.add(value)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _segment_path(self, snapshot_id: str) -> Path:
        return self._segments_dir / (snapshot_id + SEGMENT_SUFFIX)


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
        elif tid not in db.tids_of(xid):
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


def _resolve_in_use(in_use: InUse) -> FrozenSet[str]:
    """The ids ``in_use`` names, calling it first if it is a callback
    (under the store lock, at the moment GC picks its victims)."""
    resolved = in_use() if callable(in_use) else in_use
    if isinstance(resolved, str):
        raise TypeError(
            f"in_use must be a collection of snapshot ids, not "
            f"the string {resolved!r}"
        )
    return frozenset(resolved)


def _fsync_dir(path: Path) -> None:
    """Fsync a directory: make the renames and unlinks in it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _depth(link: Optional[DeltaLink]) -> int:
    """How many links a segment sits above a full segment, as its
    header records it: a delta's depth, ``0`` for a full segment."""
    return link.depth if link is not None else 0


def _file_identity(stat: os.stat_result) -> Tuple[int, int]:
    """A file's (device, inode)."""
    return stat.st_dev, stat.st_ino


def _file_version(stat: os.stat_result) -> Tuple[int, int, int, int]:
    """A file as of ``stat``: its (device, inode, size, modification
    time); a file written anew under the same name has another."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _read_from(fd: int, offset: int) -> bytes:
    """The bytes of the file open as ``fd`` from ``offset`` to its end."""
    with open(fd, "rb", closefd=False) as f:
        f.seek(offset)
        return f.read()
