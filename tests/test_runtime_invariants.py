"""Runtime invariant checkers: frozen columns and lock-order tracking.

Two invariants the static rules cannot see are enforced at runtime and
tested here:

* The canonical columnar arrays of a :class:`RankedDatabase` are
  write-protected the moment a view is built (construction and the
  ``_patched`` delta path alike); in-place mutation -- the one bug
  class that silently corrupts every memoized PSR row derived from the
  view -- raises immediately.  Patched views build fresh arrays, so
  nothing needs a write window.
* The serving stack's lock hierarchy (admission < snapshot < store
  < store file < registry) is checked per-acquisition under
  ``REPRO_DEBUG_LOCKS=1`` / :func:`repro.core.lockcheck.enable`, so an
  inversion raises :class:`LockOrderError` at the inversion site
  instead of deadlocking once a month.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import lockcheck
from repro.core.lockcheck import (
    RANK_ADMISSION,
    RANK_POOL_REGISTRY,
    RANK_SNAPSHOT,
    OrderedLock,
    OrderedSemaphore,
)
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import CANONICAL_COLUMNS
from repro.exceptions import LockOrderError


@pytest.fixture
def ranked():
    return generate_synthetic(num_xtuples=12, seed=7).ranked()


@pytest.fixture
def tracking():
    """Lock-order tracking on for the test, off (and clean) afterwards."""
    lockcheck.enable()
    yield
    lockcheck.disable()


# ---------------------------------------------------------------------------
# Frozen canonical columns
# ---------------------------------------------------------------------------


class TestFrozenColumns:
    def test_every_canonical_column_is_write_protected(self, ranked):
        for column in CANONICAL_COLUMNS:
            array = getattr(ranked, column)
            assert not array.flags.writeable, column
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_patched_views_are_frozen_too(self, ranked):
        patched, _delta = ranked.with_xtuple_removed(ranked.xtuple_ids[0])
        for column in CANONICAL_COLUMNS:
            assert not getattr(patched, column).flags.writeable, column


# ---------------------------------------------------------------------------
# Lock-order tracking
# ---------------------------------------------------------------------------


class TestLockOrder:
    def test_increasing_ranks_are_legal(self, tracking):
        outer = OrderedLock("t.snapshot", RANK_SNAPSHOT)
        inner = OrderedLock("t.registry", RANK_POOL_REGISTRY)
        with outer, inner:
            held = lockcheck.held_locks()
            assert [rank for rank, _ in held] == [
                RANK_SNAPSHOT,
                RANK_POOL_REGISTRY,
            ]
        assert lockcheck.held_locks() == []

    def test_inversion_raises_at_the_site(self, tracking):
        registry = OrderedLock("t.registry", RANK_POOL_REGISTRY)
        snapshot = OrderedLock("t.snapshot", RANK_SNAPSHOT)
        with registry:
            with pytest.raises(LockOrderError, match="strictly increasing"):
                snapshot.acquire()
        assert lockcheck.held_locks() == []

    def test_same_rank_is_an_inversion(self, tracking):
        a = OrderedLock("t.a", RANK_SNAPSHOT)
        b = OrderedLock("t.b", RANK_SNAPSHOT)
        with a:
            with pytest.raises(LockOrderError):
                b.acquire()

    def test_reacquisition_is_reported_not_deadlocked(self, tracking):
        lock = OrderedLock("t.lock", RANK_POOL_REGISTRY)
        with lock:
            with pytest.raises(LockOrderError, match="re-acquired"):
                lock.acquire()

    def test_semaphore_participates_in_the_hierarchy(self, tracking):
        admission = OrderedSemaphore("t.admission", RANK_ADMISSION, 2)
        snapshot = OrderedLock("t.snapshot", RANK_SNAPSHOT)
        assert admission.acquire(timeout=1.0)
        with snapshot:  # admission -> snapshot: declared order
            pass
        admission.release()
        with snapshot:
            with pytest.raises(LockOrderError):
                admission.acquire(timeout=1.0)

    def test_disabled_tracking_costs_nothing_and_checks_nothing(self):
        lockcheck.disable()
        registry = OrderedLock("t.registry", RANK_POOL_REGISTRY)
        snapshot = OrderedLock("t.snapshot", RANK_SNAPSHOT)
        with registry, snapshot:  # inverted, but tracking is off
            pass
        assert not lockcheck.tracking_enabled()

    def test_tracking_is_per_thread(self, tracking):
        registry = OrderedLock("t.registry", RANK_POOL_REGISTRY)
        errors = []

        def other_thread():
            snapshot = OrderedLock("t.snapshot", RANK_SNAPSHOT)
            try:
                with snapshot:
                    pass
            except LockOrderError as exc:  # pragma: no cover
                errors.append(exc)

        with registry:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert errors == []  # holdings are thread-local, not global


class TestPoolUnderTracking:
    def test_session_pool_respects_declared_order(self, ranked, tracking):
        from repro.api.pool import SessionPool

        pool = SessionPool(max_sessions=2)
        snapshot_id = pool.register(ranked)
        with pool.lease(snapshot_id) as session:
            assert session.ranked is ranked
        with pool.lease(snapshot_id):
            pass
        assert lockcheck.held_locks() == []

