"""SessionPool: LRU bounds, lease semantics, threaded stress test."""

import threading

import pytest

from repro.api import (
    BatchSpec,
    CleaningSpec,
    QualitySpec,
    QuerySpec,
    SessionPool,
    TopKService,
)
from repro.datasets.synthetic import generate_synthetic
from repro.exceptions import UnknownSnapshotError

from conftest import assert_payloads_close


class TestLRU:
    def _dbs(self, count):
        return [generate_synthetic(num_xtuples=6, seed=s) for s in range(count)]

    def test_session_count_bounded(self):
        pool = SessionPool(max_sessions=2)
        for db in self._dbs(5):
            sid = pool.register(db)
            with pool.lease(sid) as session:
                session.evaluate(3)
            assert pool.num_cached_sessions <= 2
        assert pool.num_cached_sessions == 2
        assert pool.num_snapshots == 5
        assert pool.evictions == 3

    def test_eviction_is_least_recently_used(self):
        pool = SessionPool(max_sessions=2)
        a, b, c = (pool.register(db) for db in self._dbs(3))
        with pool.lease(a):
            pass
        with pool.lease(b):
            pass
        with pool.lease(a):
            pass  # refresh a; b is now LRU
        with pool.lease(c):
            pass  # evicts b
        assert pool.session_misses == 3
        with pool.lease(a):
            pass
        assert pool.session_hits == 2  # a twice
        with pool.lease(b):
            pass  # cold again after eviction
        assert pool.session_misses == 4

    def test_evicted_session_rebuilds_with_same_answers(self):
        db = generate_synthetic(num_xtuples=8, seed=1)
        pool = SessionPool(max_sessions=1)
        sid = pool.register(db)
        with pool.lease(sid) as session:
            before = session.evaluate(4)
        other = pool.register(generate_synthetic(num_xtuples=6, seed=9))
        with pool.lease(other):
            pass  # evicts sid's session
        with pool.lease(sid) as session:
            after = session.evaluate(4)
        assert after.ptk.tids == before.ptk.tids
        assert after.quality.quality == pytest.approx(before.quality.quality)

    def test_min_sessions_validated(self):
        with pytest.raises(ValueError):
            SessionPool(max_sessions=0)

    def test_lease_of_unknown_snapshot(self):
        pool = SessionPool()
        with pytest.raises(UnknownSnapshotError):
            with pool.lease("snap-nope"):
                pass


class TestConcurrency:
    """N threads x mixed evaluate/clean on shared snapshots.

    Every threaded result must match the result the serial path
    produces for the same request, and the pool must stay within its
    LRU bound throughout.
    """

    THREADS = 8
    ROUNDS = 6

    @pytest.fixture(scope="class")
    def workload(self):
        dbs = [
            generate_synthetic(num_xtuples=12, seed=seed) for seed in (1, 2, 3)
        ]
        requests = []
        for i, db in enumerate(dbs):
            requests.append(("query", i, QuerySpec(k=4, threshold=0.2)))
            requests.append(("query", i, QuerySpec(k=9, semantics="ptk")))
            requests.append(("quality", i, QualitySpec(k=6)))
            requests.append(
                ("batch", i, BatchSpec(items=(QuerySpec(k=3), QualitySpec(k=8))))
            )
            requests.append(
                (
                    "clean",
                    i,
                    CleaningSpec(k=4, budget=6, cost_seed=i, sc_seed=i, seed=i),
                )
            )
        return dbs, requests

    @staticmethod
    def _run(service, sids, request):
        verb, db_index, spec = request
        return getattr(service, verb)(sids[db_index], spec)

    def test_threaded_matches_serial(self, workload):
        dbs, requests = workload

        serial = TopKService(pool=SessionPool(max_sessions=16))
        serial_sids = [serial.register(db).snapshot_id for db in dbs]
        expected = [
            self._run(serial, serial_sids, request) for request in requests
        ]

        max_sessions = 3
        service = TopKService(pool=SessionPool(max_sessions=max_sessions))
        sids = [service.register(db).snapshot_id for db in dbs]
        results = {}
        errors = []
        bound_violations = []
        barrier = threading.Barrier(self.THREADS)

        def worker(worker_index):
            try:
                barrier.wait(timeout=30)
                for round_index in range(self.ROUNDS):
                    # Interleave differently per thread/round so leases
                    # collide on every snapshot.
                    offset = worker_index + round_index
                    for j in range(len(requests)):
                        index = (j + offset) % len(requests)
                        result = self._run(service, sids, requests[index])
                        results[(worker_index, round_index, index)] = result
                        cached = service.pool.num_cached_sessions
                        if cached > max_sessions:
                            bound_violations.append(cached)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not [t for t in threads if t.is_alive()], "threads hung"
        assert not errors, errors
        assert not bound_violations, bound_violations

        assert len(results) == self.THREADS * self.ROUNDS * len(requests)
        for (_, _, index), result in results.items():
            assert_payloads_close(
                result.payload, expected[index].payload
            )
            assert result.kind == expected[index].kind
            assert result.snapshot_id == expected[index].snapshot_id

        # The pool stayed bounded and every snapshot family (3 bases +
        # 3 cleaning outcomes) is still addressable.
        assert service.pool.num_cached_sessions <= max_sessions
        for result in expected:
            if result.kind == "clean":
                assert result.payload["new_snapshot_id"] in service.pool


class TestRetentionSweep:
    def test_lease_taken_mid_sweep_keeps_its_durable_segment(self, tmp_path):
        # The in-use set travels to the store as a callback evaluated
        # under the store's exclusive lock, so a lease that lands
        # after sweep_store() was entered (here: forced between the
        # sweep's start and the GC's victim selection) still protects
        # its segment from being tombstoned mid-lease.
        from repro.store import RetentionPolicy, SnapshotStore

        store = SnapshotStore(tmp_path / "store", durability="none")
        pool = SessionPool(store=store)
        snap = pool.register(generate_synthetic(num_xtuples=6, seed=1))
        pool.retention = RetentionPolicy(keep_last_n=0)

        real_gc = store.gc

        def gc_with_midsweep_lease(policy, in_use=()):
            with pool.lease(snap):
                return real_gc(policy, in_use=in_use)

        store.gc = gc_with_midsweep_lease  # type: ignore[method-assign]
        try:
            report = pool.sweep_store()
        finally:
            store.gc = real_gc

        assert report is not None
        assert report["tombstoned"] == []
        assert report["protected"] == [snap]
        assert store.has_segment(snap)
