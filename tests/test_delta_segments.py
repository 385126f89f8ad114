"""Delta outcomes: a cleaning outcome stored as its base plus a change set.

A durable clean journals the outcome's change set (journal schema 2)
and persists the outcome as a delta segment (segment schema 3) when its
base is live, verified and shallow enough.  An open rebuilds a delta
from its base, a v2 journal record replays without the planner or any
kernel, and GC keeps every base a survivor needs.  The bitwise
property of reopened chains lives in ``test_change_sets.py``.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Dict, List

import pytest

import repro.api.service as service_module
import repro.cleaning.adaptive as adaptive_module
import repro.core.tp as tp_module
import repro.queries.engine as engine_module
import repro.queries.psr as psr_module
from conftest import open_service
from repro.api.specs import CleaningSpec
from repro.cleaning.dp import DPCleaner
from repro.cleaning.greedy import GreedyCleaner
from repro.cli import main
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import ProbabilisticDatabase, RankedDatabase, change_set
from repro.db.tuples import make_xtuple
from repro.exceptions import (
    CorruptSnapshotError,
    InvalidDatabaseError,
    JournalReplayError,
    SimulatedCrashError,
    StoreError,
)
from repro.store import SEGMENT_SUFFIX, RetentionPolicy, SnapshotStore, clean_record
from repro.store.format import (
    DeltaLink,
    decode_segment,
    encode_journal,
    encode_segment,
)
from repro.store.store import MAX_DELTA_DEPTH
from repro.testing import FaultEvent, FaultPlan, flip_one_bit, use_faults

K = 5
CLEAN_SPEC = CleaningSpec(k=K, budget=40, execute=True, seed=7)


def segment_path(root: Path, snapshot_id: str) -> Path:
    return root / "segments" / (snapshot_id + SEGMENT_SUFFIX)


def schema_of(root: Path, snapshot_id: str) -> int:
    return decode_segment(segment_path(root, snapshot_id).read_bytes()).header[
        "schema"
    ]


def directory_bytes(root: Path) -> Dict[str, bytes]:
    """Every file under ``segments/`` plus the journal, by name."""
    files = {p.name: p.read_bytes() for p in (root / "segments").iterdir()}
    files["journal.wal"] = (root / "journal.wal").read_bytes()
    return files


def chain(ranked: RankedDatabase, links: int, seed: int = 0) -> List[RankedDatabase]:
    """``ranked`` and ``links`` successors, each collapsing (or, for an
    incomplete x-tuple, sometimes removing) one more uncertain x-tuple."""
    rng = random.Random(seed)
    views = [ranked]
    for _ in range(links):
        db = views[-1].db
        xt = rng.choice([x for x in db.xtuples if len(x.alternatives) > 1])
        tid = None if not xt.is_complete and rng.random() < 0.3 else rng.choice(xt.tids)
        views.append(views[-1].with_change_set({xt.xid: tid}))
    return views


def persist_chain(
    store: SnapshotStore, views: List[RankedDatabase], prefix: str
) -> List[str]:
    """Persist ``views`` as ``prefix0``, ``prefix1``, ... each on the one
    before, with the change set that leads to it."""
    ids = [f"{prefix}{i}" for i in range(len(views))]
    for i, (sid, view) in enumerate(zip(ids, views)):
        if i:
            changes = change_set(views[i - 1].db, view.db)
            assert store.persist(sid, view, base=ids[i - 1], changes=changes)
        else:
            assert store.persist(sid, view) is True
    return ids


def crashed_clean(root: Path):
    """A store whose last durable clean lost its outcome segment."""
    service = open_service(root)
    base = service.register(generate_synthetic(num_xtuples=40, seed=3)).snapshot_id
    outcome = service.clean(base, CLEAN_SPEC).payload["new_snapshot_id"]
    assert outcome != base
    (record,) = service.store.journal_records()
    segment_path(root, outcome).unlink()
    return base, outcome, record


# ---------------------------------------------------------------------------
# The change set
# ---------------------------------------------------------------------------


class TestChangeSetHelpers:
    def test_round_trip_through_a_clean(self):
        db = generate_synthetic(num_xtuples=60, completion=0.85, seed=2)
        service = service_module.TopKService()
        sid = service.register(db).snapshot_id
        out = service.clean(sid, CLEAN_SPEC).payload
        outcome = service.database(out["new_snapshot_id"])
        changes = change_set(db, outcome)
        expected = {
            p["xid"]: p["revealed_tid"] for p in out["probes"] if p["succeeded"]
        }
        assert changes == expected
        rebuilt = db.ranked().with_change_set(changes)
        assert rebuilt.db.content_hash() == outcome.content_hash()

    def test_not_a_change_set(self):
        db = generate_synthetic(num_xtuples=6, seed=1)
        xts = list(db.xtuples)
        fresh = make_xtuple(xts[0].xid, [("brand-new", 1.0, 1.0)])
        reordered = ProbabilisticDatabase(xts[1:] + xts[:1])
        replaced = ProbabilisticDatabase([fresh] + xts[1:])
        grown = ProbabilisticDatabase(
            xts + [make_xtuple("extra", [("e1", 1.0, 1.0)])]
        )
        for outcome in (reordered, replaced, grown):
            assert change_set(db, outcome) is None

    @pytest.mark.parametrize(
        "changes",
        [{"no-such-xtuple": None}, {"X0": "no-such-tuple"}, {"X0": 5}, ["X0"]],
        ids=["unknown-xid", "unknown-tid", "wrong-type", "not-a-mapping"],
    )
    def test_malformed_change_set_is_refused(self, changes):
        ranked = generate_synthetic(num_xtuples=6, seed=1).ranked()
        with pytest.raises(InvalidDatabaseError):
            ranked.with_change_set(changes)


# ---------------------------------------------------------------------------
# Journal schema 2: physical replay
# ---------------------------------------------------------------------------


def _raise(*args, **kwargs):
    raise AssertionError("a v2 replay must not plan or run a kernel")


class TestPhysicalReplay:
    def test_v2_replay_runs_no_planner_and_no_kernel(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        base, outcome, record = crashed_clean(root)
        assert record["schema"] == 2 and record["changes"]
        for module, names in (
            (psr_module, ("compute_rank_probabilities", "apply_rank_delta")),
            (engine_module, ("compute_rank_probabilities", "apply_rank_delta",
                             "compute_quality_tp", "patch_quality_tp")),
            (tp_module, ("compute_rank_probabilities",)),
            (service_module, ("build_cleaning_problem", "execute_plan",
                              "clean_adaptively")),
            (adaptive_module, ("build_cleaning_problem", "execute_plan")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _raise)
        monkeypatch.setattr(GreedyCleaner, "plan", _raise)
        monkeypatch.setattr(DPCleaner, "plan", _raise)

        service = open_service(root)
        assert service.store.pending_cleanings() == []
        assert service.store.counters()["psr_store_replays"] == 1
        assert service.database(outcome).content_hash() == record["outcome_hash"]
        assert schema_of(root, outcome) == 3

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda xid: {"no-such-xtuple": None},
            lambda xid: {xid: "no-such-tuple"},
            lambda xid: {xid: 7},
        ],
        ids=["unknown-xid", "unknown-tid", "wrong-type"],
    )
    def test_malformed_change_set_raises_and_writes_nothing(
        self, tmp_path, malformed
    ):
        root = tmp_path / "store"
        service = open_service(root)
        db = generate_synthetic(num_xtuples=20, seed=3)
        base = service.register(db).snapshot_id
        service.store.journal_clean(
            base,
            CLEAN_SPEC.to_dict(),
            "snap-out",
            "hash",
            malformed(db.xtuples[0].xid),
        )
        before = directory_bytes(root)
        with pytest.raises(JournalReplayError, match="change set"):
            open_service(root)
        assert directory_bytes(root) == before

    def test_diverging_change_set_raises_and_writes_nothing(self, tmp_path):
        # The change set applies, but to another snapshot than the one
        # the record names: checked before anything is registered.
        root = tmp_path / "store"
        service = open_service(root)
        db = generate_synthetic(num_xtuples=20, seed=3)
        base = service.register(db).snapshot_id
        xt = db.xtuples[0]
        service.store.journal_clean(
            base,
            CLEAN_SPEC.to_dict(),
            "snap-forged",
            "not-a-real-hash",
            {xt.xid: xt.tids[0]},
        )
        before = directory_bytes(root)
        with pytest.raises(JournalReplayError, match="inconsistent"):
            open_service(root)
        assert directory_bytes(root) == before

    def test_v1_record_still_reexecutes(self, tmp_path):
        root = tmp_path / "store"
        base, outcome, record = crashed_clean(root)
        # Rewrite the journal as the schema-1 record an older writer
        # left: no change set, spec only.
        legacy = {k: v for k, v in record.items() if k != "changes"}
        legacy["schema"] = 1
        legacy["spec"] = {**legacy["spec"], "retry_policy": None}
        (root / "journal.wal").write_bytes(encode_journal([legacy]))
        service = open_service(root)
        assert service.database(outcome).content_hash() == record["outcome_hash"]
        assert schema_of(root, outcome) == 3


# ---------------------------------------------------------------------------
# Delta segments: persist, open, blast radius
# ---------------------------------------------------------------------------


class TestDeltaSegments:
    def test_small_change_set_writes_a_small_segment(self, tmp_path):
        ranked = generate_synthetic(num_xtuples=3000, seed=11).ranked()
        db = ranked.db
        changes = {xt.xid: xt.tids[0] for xt in db.xtuples[100:108]}
        outcome = ranked.with_change_set(changes)
        store = SnapshotStore(tmp_path / "store")
        store.persist("base", ranked)
        assert store.persist("out", outcome, base="base", changes=changes) is True
        path = segment_path(tmp_path / "store", "out")
        assert path.stat().st_size < 2048
        assert decode_segment(path.read_bytes()).link.changes == changes
        status = store.status()
        assert (status["full_segments"], status["delta_segments"]) == (1, 1)
        reopened = SnapshotStore(tmp_path / "store", mode="readonly")
        assert reopened.snapshots()["out"].db.content_hash() == (
            outcome.db.content_hash()
        )

    def test_chain_writes_a_full_segment_at_the_depth_limit(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        views = chain(generate_synthetic(num_xtuples=30, seed=5).ranked(),
                      MAX_DELTA_DEPTH + 2)
        ids = persist_chain(store, views, "c")
        schemas = [schema_of(root, sid) for sid in ids]
        assert schemas == [4] + [3] * MAX_DELTA_DEPTH + [4, 3]
        depths = [
            decode_segment(segment_path(root, sid).read_bytes()).header.get("depth")
            for sid in ids
        ]
        assert depths == [None] + list(range(1, MAX_DELTA_DEPTH + 1)) + [None, 1]
        reopened = SnapshotStore(root, mode="readonly")
        assert reopened.recovery.quarantined == ()
        for sid, view in zip(ids, views):
            assert reopened.snapshots()[sid].db.content_hash() == (
                view.db.content_hash()
            )

    def test_corrupt_full_base_quarantines_exactly_its_dependents(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        a = persist_chain(
            store, chain(generate_synthetic(num_xtuples=20, seed=1).ranked(), 3), "a"
        )
        b = persist_chain(
            store, chain(generate_synthetic(num_xtuples=20, seed=2).ranked(), 2), "b"
        )
        path = segment_path(root, a[0])
        path.write_bytes(flip_one_bit(path.read_bytes()))

        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == tuple(b)
        reasons = dict(reopened.recovery.quarantined)
        assert sorted(reasons) == sorted(sid + SEGMENT_SUFFIX for sid in a)
        assert "digest" in reasons[a[0] + SEGMENT_SUFFIX]
        for base, sid in zip(a, a[1:]):
            reason = reasons[sid + SEGMENT_SUFFIX]
            assert f"its base {base!r} was quarantined" in reason
            assert repr(a[0]) in reason
        assert sorted(os.listdir(root / "quarantine")) == sorted(reasons)

    def test_delta_that_misses_its_content_hash_is_quarantined(self, tmp_path):
        # Digest-valid bytes whose change set rebuilds another snapshot
        # than the header's content hash names.
        root = tmp_path / "store"
        views = chain(generate_synthetic(num_xtuples=20, seed=6).ranked(), 2)
        store = SnapshotStore(root)
        ids = persist_chain(store, views[:2], "h")
        link = decode_segment(segment_path(root, ids[1]).read_bytes()).link
        segment_path(root, "forged").write_bytes(
            encode_segment(
                snapshot_id="forged",
                content_hash=views[2].db.content_hash(),
                columns={},
                delta=link,
            )
        )
        # Its bytes verify at open; its first use rebuilds it, and fails.
        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == tuple(sorted(ids + ["forged"]))
        assert reopened.recovery.quarantined == ()
        with pytest.raises(CorruptSnapshotError) as failure:
            reopened.load("forged")
        reason = str(failure.value)
        assert "content hash" in reason and repr(ids[0]) in reason
        assert os.listdir(root / "quarantine") == ["forged" + SEGMENT_SUFFIX]
        assert sorted(reopened.snapshots()) == sorted(ids)

    def test_bit_flipped_registered_base_makes_the_next_clean_write_full(
        self, tmp_path
    ):
        root = tmp_path / "store"
        service = open_service(root)
        plan = FaultPlan([FaultEvent(kind="bitflip", step="segment:payload")])
        with use_faults(plan):
            base = service.register(
                generate_synthetic(num_xtuples=40, seed=3)
            ).snapshot_id
        assert plan.drawn
        outcome = service.clean(base, CLEAN_SPEC).payload["new_snapshot_id"]
        assert schema_of(root, outcome) == 4  # full: its base failed the read-back
        reopened = open_service(root)
        assert [name for name, _ in reopened.store.recovery.quarantined] == [
            base + SEGMENT_SUFFIX
        ]
        assert reopened.store.recovery.loaded == (outcome,)

    def test_outcome_of_a_durable_clean_is_one_delta(self, tmp_path):
        root = tmp_path / "store"
        service = open_service(root)
        base = service.register(generate_synthetic(num_xtuples=40, seed=3)).snapshot_id
        outcome = service.clean(base, CLEAN_SPEC).payload["new_snapshot_id"]
        assert (schema_of(root, base), schema_of(root, outcome)) == (4, 3)
        (record,) = service.store.journal_records()
        header = decode_segment(segment_path(root, outcome).read_bytes()).header
        assert header["changes"] == record["changes"]
        assert header["base"] == record["base"] == base


# ---------------------------------------------------------------------------
# GC keeps the bases survivors need
# ---------------------------------------------------------------------------


class TestRetentionKeepsBases:
    def test_keep_last_one_keeps_the_chain_another_handle_extended(
        self, tmp_path
    ):
        root = tmp_path / "store"
        writer = SnapshotStore(root)
        x = chain(generate_synthetic(num_xtuples=20, seed=1).ranked(), 3)
        x_ids = persist_chain(writer, x[:3], "x")
        writer.persist("y0", generate_synthetic(num_xtuples=20, seed=2).ranked())
        # Another handle (another process) extends the chain; the GC
        # handle never loaded or wrote that delta.
        other = SnapshotStore(root)
        assert other.persist(
            "x3", x[3], base=x_ids[-1], changes=change_set(x[2].db, x[3].db)
        ) is True
        for age, sid in enumerate(["y0", *x_ids, "x3"]):
            os.utime(segment_path(root, sid), (1_000 + age, 1_000 + age))

        report = writer.gc(RetentionPolicy(keep_last_n=1))
        assert report["tombstoned"] == ["y0"]
        writer.checkpoint()
        reopened = SnapshotStore(root, mode="readonly")
        assert reopened.recovery.quarantined == ()
        assert sorted(reopened.snapshots()) == sorted(x_ids + ["x3"])

    def test_keep_last_zero_still_drops_leaves(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        ids = persist_chain(
            store, chain(generate_synthetic(num_xtuples=20, seed=1).ranked(), 2), "z"
        )
        report = store.gc(RetentionPolicy(keep_last_n=0, pinned=(ids[1],)))
        assert report["tombstoned"] == [ids[2]]
        assert sorted(report["protected"]) == ids[:2]

    @pytest.mark.parametrize("skip", [1, 2])
    def test_a_crashed_gc_strands_no_delta(self, tmp_path, skip):
        """A delta's tombstone is appended before its base's, so a GC
        crashed after ``skip`` appends leaves every live delta's base
        live."""
        root = tmp_path / "store"
        store = SnapshotStore(root)
        ids = persist_chain(
            store, chain(generate_synthetic(num_xtuples=20, seed=1).ranked(), 2), "z"
        )
        for age, sid in enumerate(ids):
            os.utime(segment_path(root, sid), (1_000 + age, 1_000 + age))
        plan = FaultPlan([FaultEvent(kind="crash", step="gc:tombstone", skip=skip)])
        with use_faults(plan), pytest.raises(SimulatedCrashError):
            store.gc(RetentionPolicy(keep_last_n=0))
        reopened = SnapshotStore(root, mode="readonly")
        tombstoned = {
            r["segment"]
            for r in reopened.journal_records()
            if r.get("kind") == "tombstone"
        }
        assert len(tombstoned) == skip
        assert sorted(reopened.snapshots()) == sorted(set(ids) - tombstoned)


# ---------------------------------------------------------------------------
# The chain order: a delta sits one link above its base
# ---------------------------------------------------------------------------

#: Forged deltas ``(id, base, recorded depth)`` over a full segment
#: ``f``: a delta that skips two depths, and two that name each other;
#: the last of each sits one link above a forged one.
FORGERIES = {
    "skips": [("d", "f", 3), ("e", "d", 4)],
    "cycle": [("x", "y", 1), ("y", "x", 1), ("e", "y", 2)],
}


def forge_delta(root: Path, snapshot_id: str, view, base: str, depth: int) -> None:
    """Write a digest-valid delta segment for ``view`` that names
    ``base`` at ``depth``, as no writer would."""
    segment_path(root, snapshot_id).write_bytes(
        encode_segment(
            snapshot_id=snapshot_id,
            content_hash=view.db.content_hash(),
            columns={},
            delta=DeltaLink(base, depth, {}),
        )
    )


class TestChainDepth:
    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_open_quarantines_a_delta_off_its_depth_and_the_deltas_above(
        self, tmp_path, forgery
    ):
        root = tmp_path / "store"
        views = chain(generate_synthetic(num_xtuples=20, seed=1).ranked(), 3)
        SnapshotStore(root).persist("f", views[0])
        for (sid, base, depth), view in zip(FORGERIES[forgery], views[1:]):
            forge_delta(root, sid, view, base, depth)

        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ("f",)
        reasons = dict(reopened.recovery.quarantined)
        for sid, base, _ in FORGERIES[forgery]:
            assert f"its base {base!r}" in reasons.pop(sid + SEGMENT_SUFFIX)
        assert reasons == {}
        assert sorted(os.listdir(root / "quarantine")) == sorted(
            sid + SEGMENT_SUFFIX for sid, _, _ in FORGERIES[forgery]
        )

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_an_adopted_delta_off_its_depth_fails_as_a_base(self, tmp_path, forgery):
        # A peer writes the forged files after this handle opened; the
        # handle persists the first id and adopts the peer's file.  The
        # base check of a durable clean on it must then fail: no record,
        # and a full outcome segment.
        root = tmp_path / "store"
        store = SnapshotStore(root)
        views = chain(generate_synthetic(num_xtuples=20, seed=1).ranked(), 3)
        store.persist("f", views[0])
        for (sid, base, depth), view in zip(FORGERIES[forgery], views[1:]):
            forge_delta(root, sid, view, base, depth)
        adopted, held = FORGERIES[forgery][0][0], views[1]
        assert store.persist(adopted, held) is False

        outcome = chain(held, 1, seed=4)[1]
        changes = change_set(held.db, outcome.db)
        record = clean_record(
            adopted, {}, "o", outcome.db.content_hash(), changes
        )
        assert store.persist(
            "o", outcome, base=adopted, changes=changes, record=record
        )
        assert store.journal_records() == []
        assert decode_segment(segment_path(root, "o").read_bytes()).link is None

    def test_a_base_written_anew_at_another_depth_is_verified_anew(self, tmp_path):
        # A verified "x", a delta on "f", at its open.  B collects "x"
        # and writes it again as a full segment.  A's clean on "x" must
        # read the new file, so its delta records depth 1, not 2, and
        # every open indexes it.
        root = tmp_path / "store"
        views = chain(generate_synthetic(num_xtuples=20, seed=1).ranked(), 2)
        ids = persist_chain(SnapshotStore(root), views[:2], "c")
        a = SnapshotStore(root)
        b = SnapshotStore(root)
        assert b.gc(RetentionPolicy(keep_last_n=0, pinned=(ids[0],)))[
            "tombstoned"
        ] == [ids[1]]
        assert b.checkpoint()["unlinked"] == [ids[1]]
        assert b.persist(ids[1], views[1]) is True
        assert decode_segment(segment_path(root, ids[1]).read_bytes()).link is None

        changes = change_set(views[1].db, views[2].db)
        record = clean_record(ids[1], {}, "c2", views[2].db.content_hash(), changes)
        a.load(ids[1])
        assert a.persist("c2", views[2], base=ids[1], changes=changes, record=record)
        assert decode_segment(segment_path(root, "c2").read_bytes()).link[:2] == (
            ids[1],
            1,
        )
        reopened = SnapshotStore(root)
        assert reopened.recovery.quarantined == ()
        assert reopened.load("c2").db.content_hash() == views[2].db.content_hash()


# ---------------------------------------------------------------------------
# A read-only open creates nothing
# ---------------------------------------------------------------------------


class TestReadOnlyOpenOfNoStore:
    def test_store_error_and_nothing_created(self, tmp_path):
        root = tmp_path / "typo"
        with pytest.raises(StoreError, match="no snapshot store"):
            SnapshotStore(root, mode="readonly")
        assert not root.exists()
        root.mkdir()
        with pytest.raises(StoreError):
            SnapshotStore(root, mode="readonly")
        assert os.listdir(root) == []

    def test_cli_status_exits_1_with_the_typed_envelope(self, tmp_path, capsys):
        import json

        root = tmp_path / "typo"
        out = tmp_path / "status.json"
        assert main(["store", "--dir", str(root), "--json", str(out)]) == 1
        assert not root.exists()
        error = json.loads(out.read_text())["error"]
        assert error["type"] == "StoreError"
        assert "no snapshot store" in capsys.readouterr().err


def test_a_verified_base_is_read_back_once(tmp_path, monkeypatch):
    root = tmp_path / "store"
    store = SnapshotStore(root)
    views = chain(generate_synthetic(num_xtuples=20, seed=4).ranked(), 2)
    persist_chain(store, views[:2], "v")
    sibling = chain(views[1], 1, seed=9)[1]
    reads: List[str] = []
    original = Path.read_bytes

    def counting(self: Path) -> bytes:
        reads.append(self.name)
        return original(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    for sid, view in (("v2", views[2]), ("w", sibling)):
        store.persist(sid, view, base="v1", changes=change_set(views[1].db, view.db))
    assert reads.count("v1" + SEGMENT_SUFFIX) == 1
    assert schema_of(root, "v2") == schema_of(root, "w") == 3
