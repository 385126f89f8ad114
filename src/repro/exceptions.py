"""Exception hierarchy for the ``repro`` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch a single base class.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidDatabaseError(ReproError):
    """The probabilistic database violates the x-tuple model invariants.

    Raised when tuple identifiers collide, an existential probability is
    outside ``(0, 1]``, or the probabilities inside one x-tuple sum to
    more than one.
    """


class InvalidQueryError(ReproError):
    """A query parameter is malformed (e.g. ``k < 1`` or a threshold
    outside ``[0, 1]``)."""


class InvalidCleaningProblemError(ReproError):
    """A cleaning problem is malformed (negative budget, non-positive
    cost, sc-probability outside ``[0, 1]``, or unknown x-tuple ids)."""


class InfeasibleTargetError(ReproError):
    """An inverse-cleaning target cannot be reached with any plan.

    Raised by :func:`repro.cleaning.inverse.min_cost_plan` when the
    requested expected-quality target exceeds what cleaning every
    x-tuple infinitely often could deliver.
    """


class InvalidSpecError(ReproError):
    """A declarative request spec (:mod:`repro.api.specs`) is malformed.

    Raised eagerly at spec construction / deserialization time -- a
    spec that constructs cleanly is guaranteed to be wire-ready
    (``to_dict``/``from_dict`` round-trips through JSON).
    """


class UnknownXTupleError(InvalidCleaningProblemError):
    """A cleaning spec names (or omits) an x-tuple the snapshot lacks.

    Carries the offending identifier and the field it appeared in, so
    service callers get ``"costs is missing x-tuple 'S3'"`` instead of
    a bare :class:`KeyError` bubbling out of a mapping lookup.
    """

    def __init__(self, field: str, xid: str, reason: str = "is missing") -> None:
        self.field = field
        self.xid = xid
        super().__init__(f"{field} {reason} x-tuple {xid!r}")


class InvalidDataError(InvalidDatabaseError):
    """External input (JSON/CSV ingest) is malformed.

    Raised by :mod:`repro.db.io` *before* any tuple object is
    constructed, naming the offending row / x-tuple: NaN, infinite,
    non-positive or ``> 1`` probabilities, duplicate tuple ids,
    duplicate x-tuple ids, and empty x-tuples are rejected at the
    ingest boundary instead of propagating into the kernels.  Derives
    from :class:`InvalidDatabaseError` so existing handlers keep
    working; the narrower type marks the failure as *input* data, not
    library state.
    """


class UnknownSnapshotError(ReproError):
    """A snapshot id was not registered with the
    :class:`~repro.api.pool.SessionPool` being addressed."""


class StoreError(ReproError):
    """Base class for durable snapshot-store failures.

    Raised by :mod:`repro.store`: the crash-safe, content-hash-
    addressed on-disk store under the serving layer.  Store errors are
    operational -- the request was well-formed but the durable layer
    could not honour it -- and serialize through the CLI's JSON error
    envelope like the resilience errors.
    """


class StoreWriteError(StoreError):
    """A durable write (segment or journal append) failed.

    Raised when the disk rejects a write -- ``ENOSPC``, permissions,
    I/O errors.  The store's write protocol guarantees the failed
    write left no partial visible state: temp files are removed, a
    partially appended journal record is truncated back out, and the
    :class:`~repro.api.pool.SessionPool` never publishes an in-memory
    entry whose durable write failed -- memory and disk cannot
    disagree.
    """


class CorruptSnapshotError(StoreError):
    """A stored snapshot segment failed verification.

    Raised when a segment's framing, checksums, whole-file digest, or
    content hash do not verify -- a torn write that survived a crash,
    a flipped bit, a truncated file.  Recovery-on-open moves the file
    into ``quarantine/`` and drops the snapshot from the registry
    instead of serving it; this error is never swallowed into a
    silently-wrong answer.
    """


class StoreLockedError(StoreError):
    """Another process holds the store's cross-process lock.

    Raised when acquiring the advisory ``fcntl.flock`` lock on a store
    root (:mod:`repro.store.locks`) did not succeed within the bounded
    wait -- the request's scoped deadline or the store's configured
    ``lock_timeout_ms``, whichever is tighter.  The caller observes a
    typed, fast failure instead of corrupting the directory or
    queueing unboundedly behind a foreign writer; the error message
    names the recorded holder (PID and liveness) so an operator can
    decide between waiting, opening read-only, and
    ``repro store unlock --force``.
    """


class StoreReadOnlyError(StoreError):
    """A mutation was attempted on a read-only store handle.

    Raised by :class:`~repro.store.SnapshotStore` opened with
    ``mode="readonly"`` (a shared-lock reader: status tooling, a
    process that lost the writer election) when ``persist``,
    ``journal_clean``, ``checkpoint`` or ``gc`` is called.  Read-only
    handles never repair, never sweep and never append -- they cannot
    corrupt a directory another process is writing.
    """


class JournalReplayError(StoreError):
    """A write-ahead journal record could not be replayed.

    Raised at store open when a journaled cleaning outcome has no
    surviving segment and rebuilding it -- applying the journaled
    change set, or re-executing the spec of a schema-1 record -- is
    impossible (its base snapshot was lost or quarantined, or the
    change set does not apply) or divergent (the rebuilt outcome's id
    or content hash does not match the journal).  Either way the
    durable history is
    inconsistent and the operator must intervene; opening proceeds no
    further rather than serving a state that contradicts the journal.
    """


class ResilienceError(ReproError):
    """Base class for the serving-resilience errors.

    These are *operational* failures -- the request was well-formed but
    could not (or should not) be completed -- as opposed to the
    validation errors above.  They serialize through the CLI's JSON
    error envelope so clients see a typed error, never a traceback.
    """


class DeadlineExceededError(ResilienceError):
    """A request's ``deadline_ms`` budget ran out.

    Raised at admission when the deadline has already passed (the
    request is shed before consuming any PSR work) and again after
    queueing for a session lease -- so a doomed request stops holding
    capacity the moment its budget is gone.
    """


class ServiceOverloadedError(ResilienceError):
    """The pool's admission gate shed this request.

    Raised by :meth:`repro.api.pool.SessionPool.lease` when
    ``max_in_flight`` requests are already being served and none
    finished within the bounded admission wait.  Clients should back
    off and retry; the server sheds instead of queueing unboundedly.
    """


class FaultInjectedError(ResilienceError):
    """An injected fault from :mod:`repro.testing.faults` fired.

    Only ever raised when a :class:`~repro.testing.faults.FaultPlan`
    is active; production code paths never construct one.  The base of
    :class:`SimulatedCrashError`, kept in the shared taxonomy so
    callers can catch every injected fault without importing the
    testing package.
    """


class SimulatedCrashError(FaultInjectedError):
    """An injected process crash at a disk write step.

    The in-process stand-in for SIGKILL used by the store's
    crash-atomicity sweep: raised by the disk-fault harness at a named
    write step (:mod:`repro.testing.faults`, kinds ``"crash"`` /
    ``"torn"``), it must propagate out of the store *without any
    cleanup running* -- a real crash runs no ``except`` blocks -- so
    the on-disk state the next open recovers from is exactly what a
    power cut would leave.  Store code therefore never catches it:
    error-path cleanup handlers catch ``OSError``/:class:`StoreError`
    only.
    """


class LockOrderError(ReproError):
    """A lock acquisition violated the declared lock hierarchy.

    Only raised in debug mode (:mod:`repro.core.lockcheck`, enabled via
    ``REPRO_DEBUG_LOCKS=1``): a thread tried to take a lock whose rank
    is not strictly greater than every lock it already holds -- the
    shape that deadlocks in production the day two such threads
    interleave.  Production runs never pay the tracking cost and never
    see this error.
    """

