"""Crash-atomicity and recovery of the durable serving stack.

The property under test (the ISSUE's acceptance bar): a crash at *any*
step of the store's write protocols leaves the next open with either
the complete pre-write state or the complete post-write state -- never
a torn hybrid, never silently wrong data.  Each crash point is injected
via :mod:`repro.testing.faults`, the "process death" is a
:class:`~repro.exceptions.SimulatedCrashError` (in-process) or a real
``SIGKILL`` (the subprocess test), and recovery is judged against an
oracle service that ran the same deterministic workload without
faults -- payloads must agree to 1e-9.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_payloads_close, open_service
from repro.api.pool import SessionPool
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec, QuerySpec
from repro.datasets.mov import generate_mov
from repro.datasets.synthetic import generate_synthetic
from repro.db import io
from repro.db.database import RankedDatabase
from repro.db.ranking import by_key, by_value
from repro.exceptions import (
    JournalReplayError,
    SimulatedCrashError,
    StoreWriteError,
)
from repro.store import SEGMENT_SUFFIX, RetentionPolicy, SnapshotStore
from repro.testing import FaultEvent, FaultPlan, flip_one_bit, use_faults

K = 5
CLEAN_SPEC = CleaningSpec(k=K, budget=40, execute=True, seed=7)
QUERY_SPEC = QuerySpec(k=K)


def small_db(seed: int = 3):
    return generate_synthetic(num_xtuples=20, seed=seed)


def oracle_outcome():
    """The fault-free result of the canonical workload: (id, payload)."""
    service = TopKService()
    base = service.register(small_db()).snapshot_id
    outcome = service.clean(base, CLEAN_SPEC).payload["new_snapshot_id"]
    return base, outcome, service.query(outcome, QUERY_SPEC).payload


@pytest.fixture(scope="module")
def oracle():
    return oracle_outcome()


class TestDurableRoundTrip:
    def test_snapshots_survive_a_restart(self, tmp_path, oracle):
        base_id, outcome_id, oracle_payload = oracle
        service = open_service(tmp_path / "store")
        assert service.register(small_db()).snapshot_id == base_id
        result = service.clean(base_id, CLEAN_SPEC)
        assert result.payload["new_snapshot_id"] == outcome_id
        assert result.counters["psr_store_writes"] == 1

        # "Restart": a brand-new service over the same directory.
        reopened = open_service(tmp_path / "store")
        assert reopened.store.recovery.loaded == tuple(
            sorted((base_id, outcome_id))
        )
        assert reopened.store.recovery.quarantined == ()
        assert_payloads_close(
            reopened.query(outcome_id, QUERY_SPEC).payload, oracle_payload
        )
        # Nothing pending, nothing replayed: recovery was pure reads.
        assert reopened.store.pending_cleanings() == []
        assert reopened.store.counters()["psr_store_replays"] == 0

    def test_register_envelope_carries_store_deltas(self, tmp_path):
        service = open_service(tmp_path / "store")
        result = service.register(small_db())
        assert result.counters["psr_store_writes"] == 1
        again = service.register(small_db())
        assert again.counters["psr_store_writes"] == 0  # idempotent

    def test_durable_false_keeps_cleaning_memory_only(self, tmp_path, oracle):
        base_id, outcome_id, _ = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        spec = CleaningSpec(
            k=K, budget=40, execute=True, seed=7, durable=False
        )
        assert service.clean(base_id, spec).payload["new_snapshot_id"] == (
            outcome_id
        )
        assert outcome_id in service.pool
        assert not service.store.has_segment(outcome_id)
        assert service.store.journal_records() == []

    def test_rejected_registration_persists_nothing(self, tmp_path):
        # Equal content under a conflicting ranking is refused before
        # the write: no segment may serve by_key(rating) to later opens
        # while this pool serves by_key(date).
        db = generate_mov(num_xtuples=12, seed=5)
        root = tmp_path / "store"
        pool = SessionPool(store=SnapshotStore(root))
        snapshot_id = pool.register(db.ranked(by_key("date")), durable=False)
        with pytest.raises(ValueError, match="already registered"):
            pool.register(db.ranked(by_key("rating")))
        assert os.listdir(root / "segments") == []
        assert pool.ranked(snapshot_id).ranking.score is by_key("date").score
        assert SnapshotStore(root).snapshots() == {}

    def test_pool_and_store_never_disagree_on_failed_persist(self, tmp_path):
        service = open_service(tmp_path / "store")
        plan = FaultPlan([FaultEvent(kind="enospc", step="segment:written")])
        with use_faults(plan):
            with pytest.raises(StoreWriteError):
                service.register(small_db())
        # Persist-first-then-publish: the failed write is invisible in
        # *both* the store and the pool.
        assert service.pool.num_snapshots == 0
        assert service.store.snapshots() == {}
        # The same registration succeeds once the disk recovers.
        snapshot_id = service.register(small_db()).snapshot_id
        assert snapshot_id in service.pool
        assert service.store.has_segment(snapshot_id)


# ---------------------------------------------------------------------------
# The crash-point sweep
# ---------------------------------------------------------------------------

#: Every write step of the clean path, with the state the next open
#: must recover: "pre" (the cleaning never happened) or "post" (the
#: outcome is available, by durable segment or by journal replay).
CRASH_POINTS = [
    ("journal:begin", "pre"),
    ("journal:payload", "pre"),
    ("journal:written", "post"),
    ("journal:synced", "post"),
    ("segment:begin", "post"),
    ("segment:payload", "post"),
    ("segment:written", "post"),
    ("segment:synced", "post"),
    ("segment:renamed", "post"),
    ("segment:committed", "post"),
]


class TestCrashSweep:
    @pytest.mark.parametrize(
        "step,expected", CRASH_POINTS, ids=[s for s, _ in CRASH_POINTS]
    )
    def test_crash_yields_pre_or_post_state(
        self, tmp_path, oracle, step, expected
    ):
        base_id, outcome_id, oracle_payload = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())

        plan = FaultPlan([FaultEvent(kind="crash", step=step)])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.clean(base_id, CLEAN_SPEC)
        assert plan.drawn, f"no disk fault fired at {step}"

        # The "process" died; reopen the directory from scratch.
        reopened = open_service(tmp_path / "store")
        assert base_id in reopened.pool
        if expected == "pre":
            assert outcome_id not in reopened.pool
            assert not reopened.store.has_segment(outcome_id)
            assert reopened.store.journal_records() == []
        else:
            assert reopened.store.has_segment(outcome_id)
            assert reopened.store.pending_cleanings() == []
            assert_payloads_close(
                reopened.query(outcome_id, QUERY_SPEC).payload,
                oracle_payload,
            )

    def test_crash_before_segment_commit_recovers_by_replay(
        self, tmp_path, oracle
    ):
        # Journal durable, segment missing: the reopened service must
        # re-execute the journaled spec, and count it as a replay.
        base_id, outcome_id, oracle_payload = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        plan = FaultPlan([FaultEvent(kind="crash", step="segment:begin")])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.clean(base_id, CLEAN_SPEC)

        reopened = open_service(tmp_path / "store")
        assert reopened.store.counters()["psr_store_replays"] == 1
        assert reopened.store.has_segment(outcome_id)
        # Replay appends no journal record of its own: the crashed
        # clean's record is the only one.
        (record,) = reopened.store.journal_records()
        assert (record["base"], record["outcome"]) == (base_id, outcome_id)
        assert_payloads_close(
            reopened.query(outcome_id, QUERY_SPEC).payload, oracle_payload
        )

    def test_torn_segment_write_is_quarantined_then_replayed(
        self, tmp_path, oracle
    ):
        # A torn write renames a truncated segment durably and then
        # dies: the reopen must detect it, quarantine it, and heal the
        # snapshot from the journal -- zero silent corruption.
        base_id, outcome_id, oracle_payload = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        plan = FaultPlan([FaultEvent(kind="torn", step="segment:payload")])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.clean(base_id, CLEAN_SPEC)

        reopened = open_service(tmp_path / "store")
        report = reopened.store.recovery
        assert [name for name, _ in report.quarantined] == [
            outcome_id + ".seg"
        ]
        assert reopened.store.counters()["psr_store_quarantined"] == 1
        assert reopened.store.counters()["psr_store_replays"] == 1
        assert_payloads_close(
            reopened.query(outcome_id, QUERY_SPEC).payload, oracle_payload
        )

    def test_torn_journal_append_reverts_to_pre_state(self, tmp_path, oracle):
        base_id, outcome_id, _ = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        plan = FaultPlan([FaultEvent(kind="torn", step="journal:payload")])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.clean(base_id, CLEAN_SPEC)

        reopened = open_service(tmp_path / "store")
        assert reopened.store.recovery.journal_truncated_bytes > 0
        assert reopened.store.journal_records() == []
        assert not reopened.store.has_segment(outcome_id)
        assert base_id in reopened.pool

    def test_bitflipped_segment_is_caught_at_reopen(self, tmp_path, oracle):
        # The flip happens in the payload *before* a fully "successful"
        # write -- the running process never notices.  The next open
        # must: checksums catch it, quarantine isolates it, replay
        # regenerates it.
        base_id, outcome_id, oracle_payload = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        plan = FaultPlan([FaultEvent(kind="bitflip", step="segment:payload")])
        with use_faults(plan):
            result = service.clean(base_id, CLEAN_SPEC)  # no error!
        assert result.payload["new_snapshot_id"] == outcome_id

        reopened = open_service(tmp_path / "store")
        assert len(reopened.store.recovery.quarantined) == 1
        assert reopened.store.counters()["psr_store_replays"] == 1
        assert_payloads_close(
            reopened.query(outcome_id, QUERY_SPEC).payload, oracle_payload
        )


# ---------------------------------------------------------------------------
# A durable clean journals only on a durable, live base
# ---------------------------------------------------------------------------


def crash_at_segment_begin(service, snapshot_id):
    """Run ``CLEAN_SPEC`` on ``snapshot_id``; the process "dies" just
    before the outcome segment is written."""
    plan = FaultPlan([FaultEvent(kind="crash", step="segment:begin")])
    with use_faults(plan):
        with pytest.raises(SimulatedCrashError):
            service.clean(snapshot_id, CLEAN_SPEC)
    assert plan.drawn


class TestJournalNeedsALiveBase:
    """Replay starts from the journaled base, so a clean whose base is
    not durable and live is persisted without a record, and a crash
    before its segment commits reverts to the pre-state."""

    def memory_only_outcome(self, root):
        service = open_service(root)
        base = service.register(
            generate_synthetic(num_xtuples=60, seed=1)
        ).snapshot_id
        spec = CleaningSpec(k=K, budget=40, seed=7, durable=False)
        outcome = service.clean(base, spec).payload["new_snapshot_id"]
        assert outcome != base and not service.store.has_segment(outcome)
        return service, base, outcome

    def test_crashed_clean_of_a_memory_only_outcome_is_pre_state(
        self, tmp_path
    ):
        root = tmp_path / "store"
        service, base, memory_only = self.memory_only_outcome(root)
        crash_at_segment_begin(service, memory_only)
        # A record naming the memory-only base would make every later
        # open fail: replay could not find the base.
        reopened = open_service(root)
        assert sorted(reopened.store.snapshots()) == [base]
        assert reopened.store.journal_records() == []
        assert reopened.store.checkpoint()["records_after"] == 0

    def test_clean_of_a_memory_only_outcome_persists_full_unjournaled(
        self, tmp_path
    ):
        root = tmp_path / "store"
        service, base, memory_only = self.memory_only_outcome(root)
        outcome = service.clean(memory_only, CLEAN_SPEC).payload[
            "new_snapshot_id"
        ]
        assert service.store.journal_records() == []
        reopened = open_service(root)
        assert sorted(reopened.store.snapshots()) == sorted((base, outcome))
        status = reopened.store.status()
        assert (status["full_segments"], status["delta_segments"]) == (2, 0)

    def test_crashed_clean_of_a_base_another_handle_collected_is_pre_state(
        self, tmp_path
    ):
        root = tmp_path / "store"
        service = open_service(root)
        base = service.register(
            generate_synthetic(num_xtuples=60, seed=1)
        ).snapshot_id
        # Another process's GC tombstones the base this handle holds.
        other = SnapshotStore(root)
        assert other.gc(RetentionPolicy(keep_last_n=0))["tombstoned"] == [base]
        crash_at_segment_begin(service, base)
        reopened = open_service(root)
        assert reopened.store.snapshots() == {}
        assert reopened.store.pending_cleanings() == []
        assert [r["kind"] for r in reopened.store.journal_records()] == [
            "tombstone"
        ]

    def test_crashed_clean_of_a_base_whose_bytes_went_bad_is_pre_state(
        self, tmp_path
    ):
        root = tmp_path / "store"
        service = open_service(root)
        base = service.register(
            generate_synthetic(num_xtuples=60, seed=1)
        ).snapshot_id
        # The base's bytes rot after the write, before this handle has
        # read them back; the next open quarantines it.
        path = root / "segments" / (base + ".seg")
        path.write_bytes(flip_one_bit(path.read_bytes()))
        crash_at_segment_begin(service, base)
        reopened = open_service(root)
        quarantined = [name for name, _ in reopened.store.recovery.quarantined]
        assert quarantined == [base + ".seg"]
        assert reopened.store.snapshots() == {}
        assert reopened.store.journal_records() == []


# ---------------------------------------------------------------------------
# Crash sweep: checkpoint, GC, and lock steps
# ---------------------------------------------------------------------------

# A crash anywhere in the atomic journal rewrite leaves either the
# complete old journal ("pre") or the complete new one ("post") -- the
# rename is the commit point.
CHECKPOINT_CRASH_POINTS = [
    ("checkpoint:begin", "pre"),
    ("checkpoint:payload", "pre"),
    ("checkpoint:written", "pre"),
    ("checkpoint:synced", "pre"),
    ("checkpoint:renamed", "post"),
    ("checkpoint:committed", "post"),
]


class TestCheckpointCrashSweep:
    def cleaned_service(self, tmp_path, base_id):
        """A store whose journal holds one droppable clean record."""
        service = open_service(tmp_path / "store")
        service.register(small_db())
        service.clean(base_id, CLEAN_SPEC)
        assert len(service.store.journal_records()) == 1
        return service

    @pytest.mark.parametrize(
        "step,expected",
        CHECKPOINT_CRASH_POINTS,
        ids=[s for s, _ in CHECKPOINT_CRASH_POINTS],
    )
    def test_checkpoint_crash_yields_pre_or_post_journal(
        self, tmp_path, oracle, step, expected
    ):
        base_id, outcome_id, oracle_payload = oracle
        service = self.cleaned_service(tmp_path, base_id)
        plan = FaultPlan([FaultEvent(kind="crash", step=step)])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.store.checkpoint()
        assert plan.drawn, f"no disk fault fired at {step}"

        reopened = open_service(tmp_path / "store")
        # Never a torn journal, never a quarantine, never data loss.
        assert reopened.store.recovery.quarantined == ()
        assert reopened.store.recovery.journal_truncated_bytes == 0
        records = reopened.store.journal_records()
        if expected == "pre":
            assert len(records) == 1
        else:
            assert records == []
        assert reopened.store.pending_cleanings() == []
        assert_payloads_close(
            reopened.query(outcome_id, QUERY_SPEC).payload, oracle_payload
        )

    def test_crash_before_tombstone_append_is_pre_state(
        self, tmp_path, oracle
    ):
        from repro.store import RetentionPolicy

        base_id, outcome_id, _ = oracle
        service = self.cleaned_service(tmp_path, base_id)
        service.store.checkpoint()  # drop the clean record: all GC-able
        plan = FaultPlan([FaultEvent(kind="crash", step="gc:tombstone")])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                # The outcome is a delta on the base, so only the
                # outcome is collectable.
                service.store.gc(
                    RetentionPolicy(keep_last_n=0, pinned=(base_id,))
                )
        assert plan.drawn

        reopened = SnapshotStore(tmp_path / "store")
        # Phase one never reached the journal: both segments live.
        assert reopened.journal_records() == []
        assert reopened.has_segment(base_id)
        assert reopened.has_segment(outcome_id)

    def test_crash_before_unlink_leaves_tombstone_to_finish_later(
        self, tmp_path, oracle
    ):
        from repro.store import RetentionPolicy

        base_id, outcome_id, _ = oracle
        service = self.cleaned_service(tmp_path, base_id)
        service.store.checkpoint()
        report = service.store.gc(
            RetentionPolicy(keep_last_n=0, pinned=(base_id,))
        )
        assert report["tombstoned"] == [outcome_id]
        plan = FaultPlan([FaultEvent(kind="crash", step="gc:unlink")])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.store.checkpoint()
        assert plan.drawn

        # The tombstone is durable, the file still present; the next
        # successful checkpoint finishes phase two and the one after
        # retires the tombstone record.
        reopened = SnapshotStore(tmp_path / "store")
        assert [r["kind"] for r in reopened.journal_records()] == [
            "tombstone"
        ]
        assert reopened.recovery.tombstoned_segments == 1
        assert not reopened.has_segment(outcome_id)  # not loaded
        first = reopened.checkpoint()
        assert first["unlinked"] == [outcome_id]
        second = reopened.checkpoint()
        assert second["records_after"] == 0
        assert reopened.has_segment(base_id)

    def test_crash_at_lock_acquire_is_pure_pre_state(self, tmp_path, oracle):
        base_id, outcome_id, _ = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        plan = FaultPlan([FaultEvent(kind="crash", step="lock:acquire")])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                service.clean(base_id, CLEAN_SPEC)
        assert plan.drawn

        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.journal_records() == []
        assert not reopened.has_segment(outcome_id)
        assert reopened.has_segment(base_id)


# ---------------------------------------------------------------------------
# Resurrection: persist of a tombstoned id retires the tombstone
# ---------------------------------------------------------------------------

# Steps of the tombstone-retirement path inside persist.  Every one is
# a pre-state: the segment write has not begun, so the persist was
# never acknowledged, and the sweep asserts a retry then converges.
RESURRECT_CRASH_POINTS = [
    "resurrect:unlink",
    "resurrect:begin",
    "resurrect:payload",
    "resurrect:written",
    "resurrect:synced",
    "resurrect:renamed",
    "resurrect:committed",
]


class TestResurrection:
    """A re-persisted GC victim must stay durable.

    The failure mode under test: a tombstone surviving a re-persist
    makes recovery skip the id and makes the next checkpoint (seeing
    tombstone plus file) unlink the freshly written segment -- an
    acknowledged durable write silently destroyed.
    """

    def ranked(self, seed: int = 3) -> RankedDatabase:
        return RankedDatabase(small_db(seed), by_value())

    def store_with_tombstone(
        self, root: Path, checkpointed: bool
    ) -> SnapshotStore:
        """A store whose "s1" is tombstoned; phase two ran iff asked."""
        store = SnapshotStore(root)
        assert store.persist("s1", self.ranked(3)) is True
        assert store.persist("s2", self.ranked(4)) is True
        report = store.gc(RetentionPolicy(keep_last_n=1))
        assert report["tombstoned"] == ["s1"]
        if checkpointed:
            assert store.checkpoint()["unlinked"] == ["s1"]
        return store

    def test_a_clean_journaled_after_its_outcome_was_collected_owes_nothing(
        self, tmp_path
    ):
        # A durable clean re-produces an outcome GC collected, journals
        # it and crashes before its segment: the open owes no replay
        # (the outcome is tombstoned), and no checkpoint may turn the
        # record into one by retiring the tombstone under it.
        root = tmp_path / "store"
        store = self.store_with_tombstone(root, checkpointed=True)
        record = store.journal_clean(
            "s2", {"k": 5}, "s1", self.ranked(3).db.content_hash()
        )
        assert record is not None  # then the "crash": s1 is never persisted
        reopened = SnapshotStore(root)
        assert reopened.pending_cleanings() == []
        report = reopened.checkpoint()
        assert report["records_after"] == 0
        assert SnapshotStore(root, mode="readonly").pending_cleanings() == []
        assert not (root / "segments" / ("s1" + SEGMENT_SUFFIX)).exists()

    def test_persist_after_gc_and_checkpoint_stays_durable(self, tmp_path):
        # gc -> checkpoint -> persist(same id) -> checkpoint -> reopen
        # must still load the segment.
        root = tmp_path / "store"
        store = self.store_with_tombstone(root, checkpointed=True)
        assert store.persist("s1", self.ranked(3)) is True
        store.checkpoint()
        store.checkpoint()
        assert store.has_segment("s1")
        reopened = SnapshotStore(root)
        assert reopened.has_segment("s1")
        assert reopened.has_segment("s2")
        assert reopened.recovery.quarantined == ()
        assert reopened.recovery.tombstoned_segments == 0
        assert reopened.journal_records() == []

    def test_persist_in_tombstone_window_rewrites_not_adopts(self, tmp_path):
        # Between gc and the first checkpoint the victim's file still
        # exists, but it is logically dead (recovery skipped it
        # unverified; the next checkpoint would unlink it).  persist
        # must return True -- a fresh acknowledged write -- not False
        # ("already durable") for a segment scheduled for deletion.
        root = tmp_path / "store"
        store = self.store_with_tombstone(root, checkpointed=False)
        assert (root / "segments" / "s1.seg").exists()
        assert store.persist("s1", self.ranked(3)) is True
        store.checkpoint()
        store.checkpoint()
        reopened = SnapshotStore(root)
        assert reopened.has_segment("s1")
        assert reopened.journal_records() == []

    @pytest.mark.parametrize("step", RESURRECT_CRASH_POINTS)
    def test_resurrect_crash_is_pre_state_and_retry_converges(
        self, tmp_path, step
    ):
        root = tmp_path / "store"
        store = self.store_with_tombstone(root, checkpointed=False)
        plan = FaultPlan([FaultEvent(kind="crash", step=step)])
        with use_faults(plan):
            with pytest.raises(SimulatedCrashError):
                store.persist("s1", self.ranked(3))
        assert plan.drawn, f"no disk fault fired at {step}"

        # Never acknowledged, so the reopen owes nothing: no torn
        # journal, no quarantine, "s1" simply absent.
        reopened = SnapshotStore(root)
        assert reopened.recovery.quarantined == ()
        assert reopened.recovery.journal_truncated_bytes == 0
        assert not reopened.has_segment("s1")
        assert reopened.has_segment("s2")
        # A retry converges to a segment that survives checkpoints and
        # a fresh open, whichever side of the rewrite the crash hit.
        assert reopened.persist("s1", self.ranked(3)) is True
        reopened.checkpoint()
        reopened.checkpoint()
        final = SnapshotStore(root)
        assert final.has_segment("s1")
        assert final.recovery.tombstoned_segments == 0
        assert final.journal_records() == []


# ---------------------------------------------------------------------------
# Journal replay failure modes
# ---------------------------------------------------------------------------


class TestReplayFailures:
    def test_missing_base_raises_typed_error(self, tmp_path):
        # The base was durable and live when its clean was journaled;
        # its segment vanished behind the store's back afterwards.
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("snap-lost-base", RankedDatabase(small_db(), by_value()))
        assert store.journal_clean(
            "snap-lost-base", CLEAN_SPEC.to_dict(), "snap-out", "hash"
        )
        (root / "segments" / "snap-lost-base.seg").unlink()
        with pytest.raises(JournalReplayError, match="snap-lost-base"):
            open_service(root)

    def test_tampered_outcome_raises_typed_error(self, tmp_path, oracle):
        base_id, _, _ = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        # A journal record promising an outcome the spec cannot
        # regenerate: replay must refuse, not serve divergent history.
        service.store.journal_clean(
            base_id, CLEAN_SPEC.to_dict(), "snap-forged", "not-a-real-hash"
        )
        segments = sorted(os.listdir(tmp_path / "store" / "segments"))
        journal = (tmp_path / "store" / "journal.wal").read_bytes()
        with pytest.raises(JournalReplayError, match="inconsistent"):
            open_service(tmp_path / "store")
        # Verified before registered: the diverging replay wrote no
        # segment and no journal record.
        assert sorted(os.listdir(tmp_path / "store" / "segments")) == segments
        assert (tmp_path / "store" / "journal.wal").read_bytes() == journal


# ---------------------------------------------------------------------------
# Real process death (SIGKILL) and recovery in a fresh process
# ---------------------------------------------------------------------------

_CHILD_SCRIPT = """
import sys
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec
from repro.db import io

db = io.load_json(sys.argv[1])
service = TopKService(store_dir=sys.argv[2])
base = service.register(db).snapshot_id
service.clean(base, CleaningSpec(k=5, budget=40, execute=True, seed=7))
print("UNREACHABLE")  # the injected kill must have fired by now
"""


class TestKillAndRestart:
    def test_sigkill_mid_write_recovers_in_a_fresh_process(
        self, tmp_path, oracle
    ):
        base_id, outcome_id, oracle_payload = oracle
        db_path = tmp_path / "db.json"
        io.save_json(small_db(), db_path)
        store_dir = tmp_path / "store"

        # skip=1: the child's base registration writes the first
        # segment cleanly; the kill hits the *outcome* segment write,
        # after the journal append.
        plan = FaultPlan(
            [FaultEvent(kind="kill", step="segment:written", skip=1)]
        )
        env = dict(os.environ)
        env["REPRO_FAULTS"] = json.dumps(plan.to_dict())
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(db_path), str(store_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "UNREACHABLE" not in proc.stdout

        # Fresh process (this one) reopens the directory: the base
        # must be durable, the outcome regenerated from the journal,
        # and the recovered top-k identical to the oracle's.
        service = TopKService(store_dir=store_dir)
        assert base_id in service.pool
        assert service.store.has_segment(outcome_id)
        assert service.store.counters()["psr_store_replays"] == 1
        assert_payloads_close(
            service.query(outcome_id, QUERY_SPEC).payload, oracle_payload
        )


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCliStore:
    def test_store_flag_persists_and_status_reports(self, tmp_path, oracle):
        from repro.cli import main

        base_id, outcome_id, _ = oracle
        db_path = tmp_path / "db.json"
        io.save_json(small_db(), db_path)
        store_dir = tmp_path / "store"

        assert (
            main(
                [
                    "clean",
                    "--db",
                    str(db_path),
                    "-k",
                    str(K),
                    "--budget",
                    "40",
                    "--execute",
                    "--execute-seed",
                    "7",
                    "--store",
                    str(store_dir),
                    "--json",
                    str(tmp_path / "clean.json"),
                ]
            )
            == 0
        )
        envelope = json.loads((tmp_path / "clean.json").read_text())
        assert envelope["result"]["payload"]["new_snapshot_id"] == outcome_id
        assert envelope["result"]["counters"]["psr_store_writes"] == 1

        assert (
            main(
                [
                    "store",
                    "--dir",
                    str(store_dir),
                    "--json",
                    str(tmp_path / "status.json"),
                ]
            )
            == 0
        )
        status = json.loads((tmp_path / "status.json").read_text())["status"]
        assert sorted(status["snapshots"]) == sorted((base_id, outcome_id))
        assert status["journal_records"] == 1
        assert status["pending_cleanings"] == []
        assert status["quarantined_files"] == []

    def test_store_compact_gc_and_unlock_actions(self, tmp_path, oracle):
        from repro.cli import main

        base_id, outcome_id, _ = oracle
        service = open_service(tmp_path / "store")
        service.register(small_db())
        service.clean(base_id, CLEAN_SPEC)
        store_dir = str(tmp_path / "store")

        compact_json = tmp_path / "compact.json"
        assert (
            main(
                ["store", "compact", "--dir", store_dir, "--json", str(compact_json)]
            )
            == 0
        )
        compact = json.loads(compact_json.read_text())
        assert compact["action"] == "compact"
        assert compact["report"]["compacted"] is True
        assert compact["report"]["records_after"] == 0
        assert compact["status"]["journal_records"] == 0

        gc_json = tmp_path / "gc.json"
        assert (
            main(
                [
                    "store",
                    "gc",
                    "--dir",
                    store_dir,
                    "--keep-last-n",
                    "0",
                    "--pin",
                    base_id,
                    "--json",
                    str(gc_json),
                ]
            )
            == 0
        )
        gc = json.loads(gc_json.read_text())
        assert gc["action"] == "gc"
        # The outcome is a delta on the base: only the outcome goes.
        assert gc["report"]["gc"]["tombstoned"] == [outcome_id]
        assert gc["report"]["checkpoint"]["unlinked"] == [outcome_id]
        assert gc["status"]["segment_files"] == 1

        unlock_json = tmp_path / "unlock.json"
        assert (
            main(
                [
                    "store",
                    "unlock",
                    "--dir",
                    store_dir,
                    "--force",
                    "--json",
                    str(unlock_json),
                ]
            )
            == 0
        )
        unlock = json.loads(unlock_json.read_text())
        assert unlock["action"] == "unlock"
        # Every release cleared its own record, so the idle store has
        # no holder left to refuse: force-unlock truncates the empty
        # record and reports nobody recorded.  (Refusal of a live
        # holder is exercised at the lock level, where a holder record
        # can be planted.)
        assert unlock["broken"] is True
        assert unlock["holder"] is None

        # The tombstone record outlives the unlink by one checkpoint
        # (two-phase delete); a second compact retires it.
        assert (
            main(
                ["store", "compact", "--dir", store_dir, "--json", str(compact_json)]
            )
            == 0
        )
        status_json = tmp_path / "final-status.json"
        assert (
            main(["store", "--dir", store_dir, "--json", str(status_json)])
            == 0
        )
        status = json.loads(status_json.read_text())["status"]
        assert status["snapshots"] == [base_id]
        assert status["tombstones"] == 0
        assert status["journal_records"] == 0

    def test_query_over_a_recovered_store(self, tmp_path, oracle, capsys):
        from repro.cli import main

        base_id, _, _ = oracle
        db_path = tmp_path / "db.json"
        io.save_json(small_db(), db_path)
        store_dir = tmp_path / "store"
        assert (
            main(
                ["query", "--db", str(db_path), "-k", str(K), "--store", str(store_dir)]
            )
            == 0
        )
        capsys.readouterr()
        # Second invocation recovers the snapshot from disk before the
        # (idempotent) registration -- same id, same answers.
        assert (
            main(
                ["query", "--db", str(db_path), "-k", str(K), "--store", str(store_dir)]
            )
            == 0
        )
        assert "PWS-quality" in capsys.readouterr().out

    def test_gc_rejects_a_negative_keep_last_n_before_opening(self, tmp_path):
        from repro.cli import main

        root = tmp_path / "new"
        with pytest.raises(SystemExit) as exc:
            main(["store", "gc", "--dir", str(root), "--keep-last-n", "-1"])
        assert exc.value.code == 2
        assert not root.exists()

    @pytest.mark.parametrize(
        "action", [["compact"], ["gc", "--keep-last-n", "1"]], ids=["compact", "gc"]
    )
    def test_maintenance_of_no_store_is_a_typed_error(
        self, tmp_path, capsys, action
    ):
        from repro.cli import main

        root = tmp_path / "typo"
        out = tmp_path / "out.json"
        argv = ["store", *action, "--dir", str(root), "--json", str(out)]
        assert main(argv) == 1
        assert not root.exists()
        error = json.loads(out.read_text())["error"]
        assert error["type"] == "StoreError"
        assert "no snapshot store" in capsys.readouterr().err
