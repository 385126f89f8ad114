"""Cross-process locking of a snapshot-store directory.

Two processes opening one store root used to race each other: both
would sweep temps, truncate the journal, and interleave segment and
journal writes with no mutual exclusion beyond per-process thread
locks.  :class:`StoreLock` closes that hole with an advisory
``fcntl.flock`` on ``<root>/store.lock``:

* **Exclusive** mode is the writer lock: recovery, ``persist``,
  ``journal_clean``, ``checkpoint`` and ``gc`` each hold it for the
  duration of the operation, so concurrent processes *interleave*
  whole operations instead of corrupting each other mid-write.
* **Shared** mode is the reader lock: a read-only open (status
  tooling) holds it across recovery reads, excluding writers without
  excluding other readers.  ``flock`` needs no write access, so a
  reader opens an existing lock file read-only and creates it only
  when it is absent; a lock file that cannot be opened raises
  :class:`~repro.exceptions.StoreError`.
* Acquisition is a **bounded wait**: a non-blocking attempt first,
  then a poll loop capped by ``timeout_ms`` *and* the request's scoped
  deadline (:func:`repro.core.resilience.current_deadline`), whichever
  is tighter.  Expiry raises the typed
  :class:`~repro.exceptions.StoreLockedError` naming the recorded
  holder -- a fast, typed failure, never a silent queue.
* The **lock record** (:func:`repro.store.format.encode_lock_record`)
  written by exclusive holders carries PID + the host's boot nonce,
  and is cleared again on release (while the flock is still held), so
  a readable record always names a *current* holder: either a live
  process inside an exclusive operation, or one that crashed
  mid-operation and never released.  The kernel drops a dead holder's
  flock automatically, so the record is diagnostics, not correctness:
  :meth:`StoreLock.holder` reports whether the recorded PID is still
  alive *in this boot* (stale-lock detection), and
  :meth:`StoreLock.force_break` lets ``repro store unlock --force``
  clear a crashed holder's leftover record after an operator confirmed
  the holder is gone.

``fcntl`` locks are per open-file-description, so two
:class:`SnapshotStore` handles *in the same process* contend exactly
like two processes do -- which is what makes the contention tests
deterministic.  REP012 scopes all ``fcntl`` use to ``repro.store``;
every other layer goes through the store.

The lock participates in the serving stack's declared lock hierarchy
at :data:`~repro.core.lockcheck.RANK_STORE_FILE` (between the store's
thread lock and the pool registry) via the
:func:`~repro.core.lockcheck.check_acquirable` participation hooks, so
debug mode catches misordered acquisitions of the file lock exactly
like misordered mutexes.
"""

from __future__ import annotations

import errno
import fcntl
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from contextlib import contextmanager

from repro.core.lockcheck import (
    RANK_STORE_FILE,
    check_acquirable,
    note_acquired,
    note_released,
)
from repro.core.resilience import current_deadline
from repro.exceptions import StoreError, StoreLockedError
from repro.store.format import decode_lock_record, encode_lock_record

#: File name of the advisory lock inside the store root.
LOCK_FILE_NAME = "store.lock"

#: Default bounded wait for the file lock, in milliseconds
#: (overridable per store and via ``REPRO_STORE_LOCK_TIMEOUT_MS``).
DEFAULT_LOCK_TIMEOUT_MS = 10_000.0

#: Poll interval of the bounded-wait loop, in seconds.  ``flock`` has
#: no native timed acquire; 5ms keeps the wait responsive without
#: burning a core.
_POLL_INTERVAL_S = 0.005

_BOOT_ID_PATH = "/proc/sys/kernel/random/boot_id"


def default_lock_timeout_ms() -> float:
    """The environment's lock timeout, or the built-in default."""
    raw = os.environ.get("REPRO_STORE_LOCK_TIMEOUT_MS", "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return DEFAULT_LOCK_TIMEOUT_MS
        if value >= 0:
            return value
    return DEFAULT_LOCK_TIMEOUT_MS


def boot_nonce() -> str:
    """An identifier stable for this host boot, best effort.

    PIDs recycle across reboots; pairing the PID with the boot nonce
    lets stale-lock detection distinguish "that process is alive" from
    "a reboot recycled the PID".  Hosts without a readable boot id
    degrade to an empty nonce (holder liveness is then reported as
    unknown rather than guessed).
    """
    try:
        with open(_BOOT_ID_PATH, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class StoreLock:
    """The advisory cross-process lock of one store root.

    One instance per :class:`~repro.store.SnapshotStore`; acquisitions
    are scoped (:meth:`exclusive` / :meth:`shared` context managers)
    and non-reentrant -- the store's own thread lock already serializes
    threads within a process, so at most one acquisition per store
    handle is ever in flight.
    """

    def __init__(
        self, root: Union[str, Path], timeout_ms: Optional[float] = None
    ) -> None:
        self.path = Path(root) / LOCK_FILE_NAME
        self.timeout_ms = (
            default_lock_timeout_ms() if timeout_ms is None else float(timeout_ms)
        )
        self._fd: Optional[int] = None
        self._wrote_record = False
        #: Acquisitions that could not take the lock on the first
        #: non-blocking attempt (the store mirrors this into its
        #: ``psr_store_lock_waits`` counter).
        self.waits = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holder(self) -> Optional[Dict[str, Any]]:
        """The recorded exclusive holder, annotated with liveness.

        Returns ``None`` when no (readable) record exists -- the
        normal state between operations, since releases clear the
        record; a surviving record names a holder that is either
        mid-operation right now or crashed without releasing.  The
        ``"alive"`` field is ``True``/``False`` when this boot can
        tell, ``None`` when the record's boot nonce does not match
        this host's (or is absent) -- a different boot or host, where
        PID liveness means nothing.
        """
        try:
            data = self.path.read_bytes()
        except OSError:
            return None
        record = decode_lock_record(data)
        if record is None:
            return None
        pid = record.get("pid")
        nonce = record.get("boot")
        alive: Optional[bool] = None
        if isinstance(pid, int) and nonce and nonce == boot_nonce():
            alive = _pid_alive(pid)
        report = dict(record)
        report["alive"] = alive
        return report

    def held(self) -> bool:
        """Whether *this handle* currently holds the lock."""
        return self._fd is not None

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the writer lock for the ``with`` body."""
        self._acquire(fcntl.LOCK_EX, "exclusive")
        try:
            yield
        finally:
            self._release()

    @contextmanager
    def shared(self) -> Iterator[None]:
        """Hold the reader lock for the ``with`` body."""
        self._acquire(fcntl.LOCK_SH, "shared")
        try:
            yield
        finally:
            self._release()

    def _acquire(self, operation: int, mode: str) -> None:
        assert self._fd is None, "StoreLock is not reentrant"
        check_acquirable(RANK_STORE_FILE, f"store-file.{self.path}", id(self))
        fd = self._open(mode)
        try:
            waited = self._flock_bounded(fd, operation, mode)
        except BaseException:
            os.close(fd)
            raise
        if waited:
            self.waits += 1
        self._fd = fd
        note_acquired(RANK_STORE_FILE, f"store-file.{self.path}", id(self))
        if mode == "exclusive":
            self._write_record(fd, mode)
            self._wrote_record = True

    def _open(self, mode: str) -> int:
        """A descriptor of the lock file: read-only for a shared hold of
        an existing file, else read-write, creating the file."""
        try:
            if mode == "shared" and self.path.exists():
                return os.open(self.path, os.O_RDONLY)
            return os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            raise StoreError(
                f"cannot open the store lock {str(self.path)!r}: {exc}"
            ) from exc

    def _flock_bounded(self, fd: int, operation: int, mode: str) -> bool:
        """Bounded-wait flock; returns whether any waiting happened."""
        try:
            fcntl.flock(fd, operation | fcntl.LOCK_NB)
            return False
        except OSError as exc:
            if exc.errno not in (errno.EAGAIN, errno.EACCES):
                raise
        timeout_s = self.timeout_ms / 1000.0
        deadline = current_deadline()
        if deadline is not None:
            timeout_s = min(timeout_s, max(deadline.remaining_s(), 0.0))
        give_up = time.monotonic() + timeout_s
        while True:
            try:
                fcntl.flock(fd, operation | fcntl.LOCK_NB)
                return True
            except OSError as exc:
                if exc.errno not in (errno.EAGAIN, errno.EACCES):
                    raise
            now = time.monotonic()
            if now >= give_up:
                break
            time.sleep(min(_POLL_INTERVAL_S, give_up - now))
        holder = self.holder()
        if holder is None:
            detail = (
                "no exclusive holder recorded (held by shared readers, "
                "or the holder left no record)"
            )
        else:
            liveness = {True: "alive", False: "dead", None: "unknown"}[
                holder.get("alive")
            ]
            detail = f"held by pid {holder.get('pid')} ({liveness})"
        raise StoreLockedError(
            f"could not acquire the {mode} store lock {str(self.path)!r} "
            f"within {self.timeout_ms:.0f}ms; {detail}.  Wait and retry, "
            f"open the store read-only, or -- if the holder is gone -- "
            f"run 'repro store unlock --force'"
        )

    def _write_record(self, fd: int, mode: str) -> None:
        record = encode_lock_record(
            {"pid": os.getpid(), "boot": boot_nonce(), "mode": mode}
        )
        try:
            os.ftruncate(fd, 0)
            os.pwrite(fd, record, 0)
        except OSError:
            # The record is diagnostics only; never fail an acquisition
            # (the flock itself succeeded) over it.
            pass

    def _release(self) -> None:
        fd = self._fd
        assert fd is not None
        self._fd = None
        try:
            if self._wrote_record:
                # Clear the holder record while the flock is still
                # held, so a stale "held by pid X (alive)" never
                # outlives the hold it describes.  Best effort: the
                # record is diagnostics, the flock below must release
                # regardless.
                self._wrote_record = False
                try:
                    os.ftruncate(fd, 0)
                except OSError:
                    pass
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
            note_released(id(self))

    # ------------------------------------------------------------------
    # Operator intervention
    # ------------------------------------------------------------------
    def force_break(self) -> Dict[str, Any]:
        """Clear the holder record (``repro store unlock --force``).

        Releases clear the record themselves, so one that survives
        belongs to a holder that crashed mid-operation; the kernel
        already dropped its flock, leaving the stale *record* as the
        only thing to clean -- this truncates it.
        If the recorded holder is verifiably alive, the record is left
        in place -- breaking a live writer's lock record would only
        hide the contention -- and the report says so.  Returns a JSON
        report of what was found and done.
        """
        holder = self.holder()
        if holder is not None and holder.get("alive") is True:
            return {"broken": False, "holder": holder}
        try:
            with open(self.path, "wb"):
                pass
        except OSError:
            return {"broken": False, "holder": holder}
        return {"broken": True, "holder": holder}
