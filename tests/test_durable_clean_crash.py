"""Crash atomicity of one durable clean that also sweeps the store.

A durable clean is one store transaction: under one hold of the
writer lock it appends its write-ahead record, commits its outcome
segment, tombstones what the pool's retention policy collects and
compacts the journal, unlinking the tombstoned files.  Here the clean
runs through the service, as in production, with the pool's policy
and in-use callback, and a crash is injected at every fault step the
transaction fires; the next open must recover the clean's pre-state
or post-state, with each retention victim either live or dead.
"""

from __future__ import annotations

import pytest

import repro.store.store as store_module
from conftest import assert_payloads_close, open_service
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec, QuerySpec
from repro.datasets.synthetic import generate_synthetic
from repro.exceptions import SimulatedCrashError
from repro.store import RetentionPolicy, SnapshotStore
from repro.testing import FaultEvent, FaultPlan, use_faults

K = 5
CLEAN_SPEC = CleaningSpec(k=K, budget=40, execute=True, seed=7)
QUERY_SPEC = QuerySpec(k=K)


def small_db(seed: int = 3):
    return generate_synthetic(num_xtuples=20, seed=seed)


@pytest.fixture(scope="module")
def oracle():
    """The fault-free clean without a store: (base, outcome, payload)."""
    service = TopKService()
    base = service.register(small_db()).snapshot_id
    outcome = service.clean(base, CLEAN_SPEC).payload["new_snapshot_id"]
    return base, outcome, service.query(outcome, QUERY_SPEC).payload


#: Every fault step of one durable clean, in order, when the pool's
#: policy (keep_last_n=1) collects two older snapshots: the record, the
#: segment, a tombstone per victim, the compaction and the unlinks,
#: all in one store transaction.
RETAINED_CLEAN_STEPS = [
    "lock:acquire",
    "journal:begin",
    "journal:payload",
    "journal:written",
    "journal:synced",
    "segment:begin",
    "segment:payload",
    "segment:written",
    "segment:synced",
    "segment:renamed",
    "segment:committed",
    "gc:tombstone",
    "gc:tombstone",
    "checkpoint:begin",
    "checkpoint:payload",
    "checkpoint:written",
    "checkpoint:synced",
    "checkpoint:renamed",
    "checkpoint:committed",
    "gc:unlink",
    "gc:unlink",
]

#: ``(step, earlier firings of it)``: the crash point at each position.
RETAINED_CRASH_POINTS = [
    (step, RETAINED_CLEAN_STEPS[:at].count(step))
    for at, step in enumerate(RETAINED_CLEAN_STEPS)
]


class TestRetainedCleanCrashSweep:
    """A crash anywhere in a durable clean's transaction leaves the
    clean's pre-state (up to the record's payload) or its post-state,
    and each retention victim whole: live, or dead and never loaded.
    The sweep has tombstoned as many victims as ``gc:tombstone`` steps
    fired before the crash, and a retry converges."""

    def retained_service(self, root):
        """A service holding the base and two older snapshots, whose
        pool sweeps the store with ``keep_last_n=1``."""
        service = open_service(root)
        service.register(small_db())
        spares = [service.register(small_db(seed)).snapshot_id for seed in (4, 5)]
        service.pool.retention = RetentionPolicy(keep_last_n=1)
        return service, spares

    def test_the_sweep_names_every_step(self, tmp_path, monkeypatch, oracle):
        base_id, outcome_id, _ = oracle
        service, spares = self.retained_service(tmp_path / "store")
        fired = []
        draw = store_module.draw_disk_fault

        def recording(step):
            fired.append(step)
            return draw(step)

        monkeypatch.setattr(store_module, "draw_disk_fault", recording)
        service.clean(base_id, CLEAN_SPEC)
        assert fired == RETAINED_CLEAN_STEPS
        assert service.store.snapshot_ids() == sorted((base_id, outcome_id))
        assert [r["segment"] for r in service.store.journal_records()] == spares

    @pytest.mark.parametrize(
        "step,skip",
        RETAINED_CRASH_POINTS,
        ids=[f"{step}#{skip}" for step, skip in RETAINED_CRASH_POINTS],
    )
    def test_crash_yields_pre_or_post_state(self, tmp_path, oracle, step, skip):
        base_id, outcome_id, oracle_payload = oracle
        root = tmp_path / "store"
        service, spares = self.retained_service(root)
        plan = FaultPlan([FaultEvent(kind="crash", step=step, skip=skip)])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.clean(base_id, CLEAN_SPEC)
        assert plan.drawn, f"no disk fault fired at {step}#{skip}"
        at = RETAINED_CRASH_POINTS.index((step, skip))
        post = at > RETAINED_CLEAN_STEPS.index("journal:payload")
        tombstoned = RETAINED_CLEAN_STEPS[:at].count("gc:tombstone")

        reopened = open_service(root)
        store = reopened.store
        assert store.recovery.quarantined == ()
        assert store.recovery.journal_truncated_bytes == 0
        assert store.pending_cleanings() == []
        assert store.has_segment(base_id)
        if post:
            assert store.has_segment(outcome_id)
            assert_payloads_close(
                reopened.query(outcome_id, QUERY_SPEC).payload, oracle_payload
            )
        else:
            assert not store.has_segment(outcome_id)
            assert [r for r in store.journal_records() if r["kind"] == "clean"] == []
        live = [s for s in spares if store.has_segment(s)]
        assert len(spares) - len(live) == tombstoned

        reopened.pool.retention = RetentionPolicy(keep_last_n=1)
        retried = reopened.clean(base_id, CLEAN_SPEC)
        assert retried.payload["new_snapshot_id"] == outcome_id
        assert SnapshotStore(root, mode="readonly").snapshot_ids() == sorted(
            (base_id, outcome_id)
        )
