"""A model-based test of the snapshot store's state machine.

Hypothesis drives a durable service through random sequences of the
operations that change which segments exist and how they depend on
each other -- register, executed clean (durable or memory-only), a
durable clean that crashes at a journal step or before its segment is
written, a bare ``persist`` of a view derived from a live snapshot
(with ``base=`` and its change set, with ``base=`` alone, or with no
base), GC plus checkpoint, checkpoint, re-registering a GC victim's
content (resurrection) and reopening -- and after every step checks
the store on disk against an in-memory model of what was
acknowledged:

* every acknowledged snapshot that GC has not tombstoned loads, with
  its acknowledged content hash;
* nothing else loads -- a memory-only outcome never does;
* nothing is quarantined and no journal replay is owed;
* every loaded delta segment's base is loaded too.

The crash rules read the journal from disk, then reopen.  A clean
crashed before its journal frame is written leaves the pre-state.
From ``journal:written`` on, a read-only open lists the clean's record
as pending without loading its outcome, and the next exclusive open
loads the outcome through exactly one replay.  A memory-only base
journals nothing: a crash armed at a journal step never fires and the
outcome persists full, and one armed at ``segment:begin`` leaves the
pre-state.  A GC crashed at a tombstone append, at the journal rewrite
of the checkpoint that follows it or at one of that checkpoint's
unlinks leaves exactly the victims whose tombstone reached the
journal collected, and the next successful checkpoint unlinks every
file a tombstone names.  Crashes at the resurrection steps stay with
the hand-written sweeps in ``test_store_recovery.py``.
Tier-1 runs a small budget; CI's fault-smoke job reruns this file with
``--hypothesis-profile store-model`` (registered in ``conftest.py``)
for a larger one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Dict, List, Set

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from conftest import STORE_MODEL_PROFILE, open_service
from repro.api.pool import snapshot_id_of
from repro.api.specs import CleaningSpec
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import ProbabilisticDatabase
from repro.exceptions import SimulatedCrashError
from repro.store import SEGMENT_SUFFIX, RetentionPolicy, SnapshotStore
from repro.store.format import decode_segment
from repro.testing import FaultEvent, FaultPlan, use_faults

#: Tiny databases to register: distinct contents, cheap cleans.
DATABASES = [generate_synthetic(num_xtuples=6, seed=seed) for seed in range(3)]

#: Write steps of a durable clean a crash is armed at, in protocol
#: order: the journal append, then the outcome segment.
CRASH_STEPS = (
    "journal:begin",
    "journal:payload",
    "journal:written",
    "journal:synced",
    "segment:begin",
)

#: Crash steps at which the journal frame is already in the file.
FRAME_WRITTEN = CRASH_STEPS[2:]

#: Steps of a GC and the checkpoint after it a crash is armed at: a
#: victim's tombstone append, the checkpoint's journal rewrite, then
#: its unlink of a tombstoned file.
GC_CRASH_STEPS = (
    "gc:tombstone",
    "checkpoint:begin",
    "checkpoint:payload",
    "checkpoint:written",
    "checkpoint:synced",
    "checkpoint:renamed",
    "checkpoint:committed",
    "gc:unlink",
)


def cleaning_specs(durable: st.SearchStrategy, k: int = 2) -> st.SearchStrategy:
    """Executed cleans on the tiny databases.  Rules draw a whole spec
    from this, so each takes one argument: hypothesis picks rules with
    fewer arguments more often."""
    return st.builds(
        CleaningSpec,
        k=st.just(k),
        budget=st.just(8),
        seed=st.integers(0, 2**16),
        adaptive=st.booleans(),
        durable=durable,
    )


def clean_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The clean records among a journal's records."""
    return [r for r in records if r.get("kind", "clean") == "clean"]


class StoreModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name) / "store"
        self.service = open_service(self.root)
        #: Acknowledged snapshot id -> content hash (and content).
        self.acked: Dict[str, str] = {}
        self.contents: Dict[str, ProbabilisticDatabase] = {}
        #: Acknowledged ids GC has tombstoned since their last write.
        self.tombstoned: Set[str] = set()
        #: Outcomes of ``durable=False`` cleans: served by this service
        #: only, never on disk, gone at the next reopen.
        self.memory_only: Set[str] = set()

    def teardown(self) -> None:
        self._tmp.cleanup()

    def live(self) -> List[str]:
        return sorted(set(self.acked) - self.tombstoned)

    def has_cleanable(self) -> bool:
        return bool(self.live() or self.memory_only)

    def cleanable(self) -> st.SearchStrategy[str]:
        """A live or a memory-only snapshot, each kind equally likely."""
        kinds = [ids for ids in (self.live(), sorted(self.memory_only)) if ids]
        return st.one_of(*(st.sampled_from(ids) for ids in kinds))

    def acknowledge(self, snapshot_id: str) -> None:
        db = self.service.database(snapshot_id)
        self.acked[snapshot_id] = db.content_hash()
        self.contents[snapshot_id] = db
        self.tombstoned.discard(snapshot_id)
        self.memory_only.discard(snapshot_id)

    def reopen_service(self) -> None:
        forgotten = self.memory_only - set(self.live())
        self.service = open_service(self.root)
        assert not any(sid in self.service.pool for sid in forgotten)
        self.memory_only.clear()

    def run_clean(self, base: str, spec: CleaningSpec) -> None:
        outcome = self.service.clean(base, spec).payload["new_snapshot_id"]
        if outcome == base:
            return  # nothing changed, so nothing was published
        if spec.durable is False:
            if outcome not in self.live():
                self.memory_only.add(outcome)
        else:
            self.acknowledge(outcome)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @initialize(db=st.sampled_from(DATABASES))
    def start(self, db: ProbabilisticDatabase) -> None:
        """Every run starts with a durable snapshot and a memory-only
        outcome of it, so each rule meets both kinds of snapshot
        whichever rules the run enables."""
        self.register(db)
        for seed in range(16):
            spec = CleaningSpec(k=2, budget=8, seed=seed, durable=False)
            self.run_clean(self.live()[0], spec)
            if self.memory_only:
                return
        raise AssertionError("no clean of the first snapshot changed it")

    @rule(db=st.sampled_from(DATABASES))
    def register(self, db: ProbabilisticDatabase) -> None:
        self.acknowledge(self.service.register(db).snapshot_id)

    @precondition(lambda self: self.has_cleanable())
    @rule(data=st.data())
    def clean(self, data: st.DataObject) -> None:
        base = data.draw(self.cleanable(), label="base")
        self.run_clean(
            base, data.draw(cleaning_specs(durable=st.booleans()), label="spec")
        )

    @precondition(lambda self: self.has_cleanable())
    @rule(data=st.data())
    def crashed_clean(self, data: st.DataObject) -> None:
        base = data.draw(self.cleanable(), label="base")
        base_is_durable = base in self.live()
        # A larger k than the other cleans', so a just-cleaned snapshot
        # usually has something left to clean (and a segment to write).
        spec = data.draw(cleaning_specs(durable=st.none(), k=4), label="spec")
        step = data.draw(st.sampled_from(CRASH_STEPS), label="step")
        cleans_before = len(
            clean_records(SnapshotStore(self.root, mode="readonly").journal_records())
        )
        plan = FaultPlan([FaultEvent(kind="crash", step=step)])
        with use_faults(plan):
            try:
                outcome = self.service.clean(base, spec).payload[
                    "new_snapshot_id"
                ]
            except SimulatedCrashError:
                outcome = None
        if outcome is not None:
            # The armed crash never fired: nothing new was written
            # (nothing changed, or the outcome was durable already), or
            # a memory-only base journaled nothing and its outcome
            # persisted full.
            assert not plan.drawn
            if outcome != base:
                assert self.service.store.has_segment(outcome)
                self.acknowledge(outcome)
            return
        # Read the journal from disk: a crash at journal:written fires
        # before the crashed handle appends the record in memory.
        reader = SnapshotStore(self.root, mode="readonly")
        records = reader.journal_records()
        cleans = clean_records(records)
        owed = None
        if base_is_durable and step in FRAME_WRITTEN:
            assert len(cleans) == cleans_before + 1
            journaled = cleans[-1]
            assert journaled["base"] == base
            tombstoned = {
                r["segment"] for r in records if r.get("kind") == "tombstone"
            }
            outcome = journaled["outcome"]
            if outcome not in self.live() and outcome not in tombstoned:
                owed = journaled
        else:
            # Pre-state: the frame never reached the file, or a
            # memory-only base journaled nothing.
            assert len(cleans) == cleans_before
        if owed is None:
            assert reader.pending_cleanings() == []
        else:
            # Pending, and a read-only open does not replay it.
            assert reader.pending_cleanings() == [owed]
            assert owed["outcome"] not in reader.snapshots()
            # An earlier memory-only copy of the outcome is replayed too.
            self.memory_only.discard(owed["outcome"])
        self.reopen_service()
        replays = self.service.store.counters()["psr_store_replays"]
        assert replays == (0 if owed is None else 1)
        if owed is not None:
            outcome = owed["outcome"]
            assert self.service.database(outcome).content_hash() == (
                owed["outcome_hash"]
            )
            self.acknowledge(outcome)

    @precondition(lambda self: bool(self.live()))
    @rule(data=st.data())
    def persist(self, data: st.DataObject) -> None:
        """Persist a view derived from a live snapshot straight through
        the store.  Only ``base=`` with the view's change set may write
        a delta; ``base=`` alone and no base write a full segment."""
        base = data.draw(st.sampled_from(self.live()), label="base")
        ranked = self.service.pool.ranked(base)
        xtuples = ranked.db.xtuples
        picks = data.draw(
            st.lists(
                st.sampled_from(xtuples),
                unique_by=lambda xt: xt.xid,
                min_size=1,
                max_size=3,
            ),
            label="picks",
        )
        changes: Dict[str, Any] = {}
        for xt in picks:
            removable = len(xtuples) - list(changes.values()).count(None) > 1
            options = list(xt.tids) + ([None] if removable else [])
            changes[xt.xid] = data.draw(st.sampled_from(options), label=xt.xid)
        view = ranked.with_change_set(changes)
        how = data.draw(st.sampled_from(["changes", "base", "bare"]), label="how")
        provenance: Dict[str, Any] = {
            "changes": {"base": base, "changes": changes},
            "base": {"base": base},
            "bare": {},
        }[how]
        snapshot_id = snapshot_id_of(view.db)
        self.service.store.persist(snapshot_id, view, **provenance)
        if how != "changes" and snapshot_id not in self.live():
            path = self.root / "segments" / (snapshot_id + SEGMENT_SUFFIX)
            assert decode_segment(path.read_bytes()).link is None
        # The pool learns the snapshot as the store holds it; it is on
        # disk already.
        self.service.pool.register(view, durable=False)
        self.acked[snapshot_id] = view.db.content_hash()
        self.contents[snapshot_id] = view.db
        self.tombstoned.discard(snapshot_id)
        self.memory_only.discard(snapshot_id)

    @rule(data=st.data(), keep=st.integers(0, 4))
    def gc(self, data: st.DataObject, keep: int) -> None:
        live = self.live()
        pins = data.draw(
            st.lists(st.sampled_from(live), unique=True, max_size=2)
            if live
            else st.just([]),
            label="pins",
        )
        report = self.service.store.gc(
            RetentionPolicy(keep_last_n=keep, pinned=tuple(pins))
        )
        victims = set(report["tombstoned"])
        assert victims <= set(live)
        assert not victims & set(pins)
        assert len(live) - len(victims) >= min(keep, len(live))
        self.tombstoned |= victims
        self.service.store.checkpoint()

    @rule(data=st.data())
    def crashed_gc(self, data: st.DataObject) -> None:
        keep = data.draw(st.integers(0, 4), label="keep")
        step = data.draw(st.sampled_from(GC_CRASH_STEPS), label="step")
        # A skip lets earlier victims' tombstones reach the journal.
        skip = 0
        if step == "gc:tombstone":
            skip = data.draw(st.integers(0, 2), label="skip")
        plan = FaultPlan([FaultEvent(kind="crash", step=step, skip=skip)])
        try:
            with use_faults(plan):
                self.gc(data, keep)
            return  # the armed step was never reached
        except SimulatedCrashError:
            pass
        records = SnapshotStore(self.root, mode="readonly").journal_records()
        named = {r["segment"] for r in records if r.get("kind") == "tombstone"}
        self.tombstoned |= named & set(self.live())
        self.reopen_service()
        self.service.store.checkpoint()
        records = SnapshotStore(self.root, mode="readonly").journal_records()
        leftover = [
            r["segment"]
            for r in records
            if r.get("kind") == "tombstone"
            and (self.root / "segments" / (r["segment"] + SEGMENT_SUFFIX)).exists()
        ]
        assert leftover == []

    @rule()
    def checkpoint(self) -> None:
        self.service.store.checkpoint()

    @precondition(lambda self: self.tombstoned)
    @rule(data=st.data())
    def resurrect(self, data: st.DataObject) -> None:
        victim = data.draw(st.sampled_from(sorted(self.tombstoned)), label="victim")
        assert self.service.register(self.contents[victim]).snapshot_id == victim
        self.acknowledge(victim)

    @rule(readonly=st.booleans())
    def reopen(self, readonly: bool) -> None:
        if readonly:
            store = SnapshotStore(self.root, mode="readonly")
            status = store.status()
            assert status["full_segments"] + status["delta_segments"] == len(
                self.live()
            )
        else:
            self.reopen_service()
            assert self.service.store.counters()["psr_store_replays"] == 0

    # ------------------------------------------------------------------
    # The model's invariants, checked by a fresh read-only open
    # ------------------------------------------------------------------
    @invariant()
    def disk_matches_the_model(self) -> None:
        store = SnapshotStore(self.root, mode="readonly")
        loaded = store.snapshots()
        assert store.recovery.quarantined == ()
        assert store.pending_cleanings() == []
        assert sorted(loaded) == self.live()
        for snapshot_id, ranked in loaded.items():
            assert ranked.db.content_hash() == self.acked[snapshot_id]
            path = self.root / "segments" / (snapshot_id + SEGMENT_SUFFIX)
            link = decode_segment(path.read_bytes()).link
            if link is not None:
                assert link.base in loaded, (snapshot_id, link.base)


TestStoreModel = StoreModel.TestCase
TestStoreModel.settings = (
    settings()
    if settings.default is settings.get_profile(STORE_MODEL_PROFILE)
    else settings(max_examples=60, stateful_step_count=25, deadline=None)
)
