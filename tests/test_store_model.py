"""A model-based test of the snapshot store's state machine.

Hypothesis drives a durable service through random sequences of the
operations that change which segments exist and how they depend on
each other -- register, executed clean (durable or memory-only), a
durable clean that crashes before its segment is written, GC plus
checkpoint, checkpoint, re-registering a GC victim's content
(resurrection) and reopening -- and after every step checks the store
on disk against an in-memory model of what was acknowledged:

* every acknowledged snapshot that GC has not tombstoned loads, with
  its acknowledged content hash;
* nothing else loads -- a memory-only outcome never does;
* nothing is quarantined and no journal replay is owed;
* every loaded delta segment's base is loaded too.

The crash rule reopens at once: the crashed clean's outcome must then
load through journal replay when its base was durable, and must not
load when its base was memory-only.  Crashes at the other named write
steps stay with the hand-written sweeps in ``test_store_recovery.py``.
Tier-1 runs a small budget; CI's fault-smoke job reruns this file with
``--hypothesis-profile store-model`` (registered in ``conftest.py``)
for a larger one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Set

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
from repro.api.specs import CleaningSpec
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import ProbabilisticDatabase
from repro.exceptions import SimulatedCrashError
from repro.store import SEGMENT_SUFFIX, RetentionPolicy, SnapshotStore
from repro.store.format import decode_segment
from repro.testing import FaultEvent, FaultPlan, use_faults

#: Tiny databases to register: distinct contents, cheap cleans.
DATABASES = [generate_synthetic(num_xtuples=6, seed=seed) for seed in range(3)]


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
        plan = FaultPlan([FaultEvent(kind="crash", step="segment:begin")])
        with use_faults(plan):
            try:
                outcome = self.service.clean(base, spec).payload[
                    "new_snapshot_id"
                ]
            except SimulatedCrashError:
                outcome = None
        journaled = None
        if outcome is not None:
            # Nothing new to write -- nothing changed, or the outcome
            # was durable already -- so the armed crash never fired.
            assert not plan.drawn
            assert outcome == base or outcome in self.live()
        elif base_is_durable:
            journaled = self.service.store.journal_records()[-1]
            assert (journaled["kind"], journaled["base"]) == ("clean", base)
            # An earlier memory-only copy of the outcome is replayed too.
            self.memory_only.discard(journaled["outcome"])
        # Otherwise no record may name a base that is not on disk: the
        # clean was never acknowledged, and nothing replays.
        self.reopen_service()
        replays = self.service.store.counters()["psr_store_replays"]
        if journaled is None:
            assert replays == 0
            return
        assert replays == 1
        outcome = journaled["outcome"]
        assert self.service.database(outcome).content_hash() == (
            journaled["outcome_hash"]
        )
        self.acknowledge(outcome)

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
