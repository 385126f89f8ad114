"""Durable, crash-safe persistence of snapshots (``repro.store``).

The serving layer's snapshots live in memory
(:class:`~repro.api.pool.SessionPool`); this package gives them a disk
identity that survives process death.  Layering: ``repro.store`` sits
between the data layer and the serving layer -- it imports
:mod:`repro.db` (and the fault harness) and is imported by
:mod:`repro.api`; it never imports the serving layer back.

* :mod:`repro.store.format` -- the pure byte codec: checksummed
  segment frames, length-prefixed journal records, and the lock-file
  holder record.
* :mod:`repro.store.locks` -- :class:`StoreLock`: the cross-process
  advisory ``fcntl.flock`` on the store root (bounded wait, stale-
  holder detection, ``unlock --force``).  All ``fcntl`` use in the
  codebase lives here (lint rule REP012).
* :mod:`repro.store.store` -- :class:`SnapshotStore`: atomic writes of
  full and delta segments, the write-ahead cleaning journal, journal
  checkpoint / compaction, retention-policy GC with two-phase deletes,
  and recovery-on-open with quarantine of anything that fails
  verification.

See the README's "Durability & crash recovery" section for the
operational story.
"""

from repro.store.format import MAGIC, SCHEMA_VERSION
from repro.store.locks import (
    DEFAULT_LOCK_TIMEOUT_MS,
    LOCK_FILE_NAME,
    StoreLock,
)
from repro.store.store import (
    JOURNAL_MAX_RECORDS_ENV,
    JOURNAL_NAME,
    SEGMENT_SUFFIX,
    TMP_PREFIX,
    RecoveryReport,
    RetentionPolicy,
    SnapshotStore,
    clean_record,
    require_store,
    stranded_temp_files,
    tracked_store_roots,
)

__all__ = [
    "DEFAULT_LOCK_TIMEOUT_MS",
    "JOURNAL_MAX_RECORDS_ENV",
    "JOURNAL_NAME",
    "LOCK_FILE_NAME",
    "MAGIC",
    "SCHEMA_VERSION",
    "SEGMENT_SUFFIX",
    "TMP_PREFIX",
    "RecoveryReport",
    "RetentionPolicy",
    "SnapshotStore",
    "StoreLock",
    "clean_record",
    "require_store",
    "stranded_temp_files",
    "tracked_store_roots",
]
