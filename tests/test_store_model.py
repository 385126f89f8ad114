"""A model-based test of the snapshot store's state machine.

Hypothesis drives a durable service through random sequences of the
operations that change which segments exist and how they depend on
each other -- register, executed clean, GC plus checkpoint, checkpoint,
re-registering a GC victim's content (resurrection) and reopening --
and after every step checks the store on disk against an in-memory
model of what was acknowledged:

* every acknowledged snapshot that GC has not tombstoned loads, with
  its acknowledged content hash;
* nothing else loads;
* nothing is quarantined and no journal replay is owed;
* every loaded delta segment's base is loaded too.

Crashes at named write steps stay with the hand-written sweeps in
``test_store_recovery.py``.  Tier-1 runs a small budget; CI's
fault-smoke job reruns this file with ``--hypothesis-profile
store-model`` (registered in ``conftest.py``) for a larger one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Set

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from conftest import STORE_MODEL_PROFILE, open_service
from repro.api.specs import CleaningSpec
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import ProbabilisticDatabase
from repro.store import SEGMENT_SUFFIX, RetentionPolicy, SnapshotStore
from repro.store.format import decode_segment

#: Tiny databases to register: distinct contents, cheap cleans.
DATABASES = [generate_synthetic(num_xtuples=6, seed=seed) for seed in range(3)]


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

    def teardown(self) -> None:
        self._tmp.cleanup()

    def live(self) -> List[str]:
        return sorted(set(self.acked) - self.tombstoned)

    def acknowledge(self, snapshot_id: str) -> None:
        db = self.service.database(snapshot_id)
        self.acked[snapshot_id] = db.content_hash()
        self.contents[snapshot_id] = db
        self.tombstoned.discard(snapshot_id)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(db=st.sampled_from(DATABASES))
    def register(self, db: ProbabilisticDatabase) -> None:
        self.acknowledge(self.service.register(db).snapshot_id)

    @precondition(lambda self: self.live())
    @rule(data=st.data(), seed=st.integers(0, 2**16), adaptive=st.booleans())
    def clean(self, data: st.DataObject, seed: int, adaptive: bool) -> None:
        base = data.draw(st.sampled_from(self.live()), label="base")
        spec = CleaningSpec(k=2, budget=8, seed=seed, adaptive=adaptive)
        outcome = self.service.clean(base, spec).payload["new_snapshot_id"]
        if outcome != base:
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
            self.service = open_service(self.root)
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
