"""Debug-mode lock-order tracking for the serving layers.

The serving stack holds locks from two subsystems at once: the
:class:`~repro.api.pool.SessionPool` admission semaphore, per-snapshot
session locks and registry lock, and the
:class:`~repro.store.SnapshotStore` directory and file locks.  A
deadlock between them would be a probabilistic production incident --
two threads interleaving acquisitions in opposite orders -- that no
unit test reliably reproduces.  This module makes the order a
*declared invariant*: every participating lock carries a rank, and in
debug mode (``REPRO_DEBUG_LOCKS=1``, or :func:`enable` from a test)
each acquisition is checked against the locks the thread already
holds.  An acquisition whose rank is not strictly greater than every
held rank raises :class:`~repro.exceptions.LockOrderError` immediately
-- at the inversion site, on the first run, instead of as a
once-a-month hang.

The declared hierarchy (outermost first)::

    RANK_ADMISSION      SessionPool admission semaphore
    RANK_SNAPSHOT       per-snapshot session locks
    RANK_STORE          SnapshotStore directory lock
    RANK_STORE_FILE     cross-process store file lock (fcntl.flock)
    RANK_POOL_REGISTRY  SessionPool bookkeeping lock

The cross-process file lock is not a ``threading`` primitive -- it is
an ``fcntl.flock`` on the store root, owned by
:mod:`repro.store.locks` (this module must stay fcntl-free; REP012
scopes all fcntl use to ``repro.store``).  It still participates in
the hierarchy through :func:`check_acquirable` / :func:`note_acquired`
/ :func:`note_released`, so a thread that takes the file lock while
holding a lock that ranks above it fails loudly in debug mode exactly
like a misordered mutex would.

With tracking disabled (the default), :class:`OrderedLock` and
:class:`OrderedSemaphore` delegate straight to their ``threading``
primitives -- one attribute indirection and one flag test per
acquisition.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional, Tuple

from repro.exceptions import LockOrderError

#: Declared ranks of the serving stack's lock hierarchy, outermost
#: (acquired first) to innermost.  Gaps leave room for future layers.
RANK_ADMISSION = 10
RANK_SNAPSHOT = 20
RANK_STORE = 25
RANK_STORE_FILE = 27
RANK_POOL_REGISTRY = 30


def _env_enabled() -> bool:
    return os.environ.get("REPRO_DEBUG_LOCKS", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


#: Process-wide tracking flag; reads are unsynchronized on purpose (a
#: torn read merely delays enablement by one acquisition).
_enabled: bool = _env_enabled()


def enable() -> None:
    """Turn tracking on for this process (tests, diagnosis sessions)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracking off and forget every thread's recorded holdings."""
    global _enabled
    _enabled = False


def tracking_enabled() -> bool:
    """Whether acquisitions are currently being order-checked."""
    return _enabled


class _Holdings(threading.local):
    """Per-thread stack of ``(rank, name, id)`` for held locks."""

    def __init__(self) -> None:
        self.stack: List[Tuple[int, str, int]] = []


_holdings = _Holdings()


def held_locks() -> List[Tuple[int, str]]:
    """The calling thread's currently held locks as ``(rank, name)``."""
    return [(rank, name) for rank, name, _ in _holdings.stack]


def _check_order(rank: int, name: str, token: int) -> None:
    for held_rank, held_name, held_token in _holdings.stack:
        if held_token == token:
            raise LockOrderError(
                f"thread {threading.current_thread().name!r} re-acquired "
                f"non-reentrant lock {name!r} (rank {rank})"
            )
        if held_rank >= rank:
            raise LockOrderError(
                f"thread {threading.current_thread().name!r} acquired "
                f"{name!r} (rank {rank}) while holding {held_name!r} "
                f"(rank {held_rank}); the declared order requires "
                f"strictly increasing ranks"
            )


def _record(rank: int, name: str, token: int) -> None:
    _holdings.stack.append((rank, name, token))


def _forget(token: int) -> None:
    stack = _holdings.stack
    for i in range(len(stack) - 1, -1, -1):
        if stack[i][2] == token:
            del stack[i]
            return


# ---------------------------------------------------------------------------
# Participation hooks for non-threading locks (the store's file lock)
# ---------------------------------------------------------------------------


def check_acquirable(rank: int, name: str, token: int) -> None:
    """Order-check an acquisition of an external (non-threading) lock.

    Raises :class:`~repro.exceptions.LockOrderError` in debug mode when
    the calling thread already holds a lock of rank ``>= rank`` (or the
    same ``token``); a no-op with tracking disabled.  Call *before*
    blocking on the external primitive.
    """
    if _enabled:
        _check_order(rank, name, token)


def note_acquired(rank: int, name: str, token: int) -> None:
    """Record a successful external-lock acquisition on this thread."""
    if _enabled:
        _record(rank, name, token)


def note_released(token: int) -> None:
    """Drop an external lock from the calling thread's holdings."""
    if _enabled:
        _forget(token)


class OrderedLock:
    """A ``threading.Lock`` that participates in the rank hierarchy.

    Drop-in for the mutexes of the serving stack: same ``acquire`` /
    ``release`` / context-manager surface, plus a rank and a name used
    only when tracking is enabled.
    """

    __slots__ = ("name", "rank", "_lock")

    def __init__(self, name: str, rank: int) -> None:
        self.name = name
        self.rank = rank
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire (``threading.Lock`` semantics), order-checked first."""
        if _enabled:
            _check_order(self.rank, self.name, id(self))
        acquired = self._lock.acquire(blocking, timeout)
        if acquired and _enabled:
            _record(self.rank, self.name, id(self))
        return acquired

    def release(self) -> None:
        """Release and drop the lock from the thread's holdings."""
        self._lock.release()
        if _enabled:
            _forget(id(self))

    def locked(self) -> bool:
        """Whether any thread currently holds the lock."""
        return self._lock.locked()

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OrderedLock {self.name!r} rank={self.rank}>"


class OrderedSemaphore:
    """A ``threading.BoundedSemaphore`` with a rank in the hierarchy.

    Unlike a mutex, several threads may hold it at once; each holder's
    slot is tracked per thread, so holding the admission semaphore
    while taking a snapshot lock is legal (rank increases) but the
    reverse order raises.
    """

    __slots__ = ("name", "rank", "_semaphore")

    def __init__(self, name: str, rank: int, value: int) -> None:
        self.name = name
        self.rank = rank
        self._semaphore = threading.BoundedSemaphore(value)

    def acquire(self, blocking: bool = True, timeout: Optional[float] = None) -> bool:
        """Take a slot (``BoundedSemaphore`` semantics), order-checked."""
        if _enabled:
            _check_order(self.rank, self.name, id(self))
        acquired = self._semaphore.acquire(blocking, timeout)
        if acquired and _enabled:
            _record(self.rank, self.name, id(self))
        return acquired

    def release(self) -> None:
        """Return the slot and drop it from the thread's holdings."""
        self._semaphore.release()
        if _enabled:
            _forget(id(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OrderedSemaphore {self.name!r} rank={self.rank}>"
