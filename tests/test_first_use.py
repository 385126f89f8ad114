"""An open checks bytes; a snapshot's first use rebuilds and checks it.

Opening a store reads every segment file and checks its framing, CRCs,
whole-file digest and header id, quarantining a byte-level fault at
once.  The semantic checks -- ids, sizes, probabilities and masses of a
schema-4 segment's columns, its content hash, a cold re-rank against
the stored ranked columns, a delta's splice -- run when a snapshot is
first used: a lease, a replay's base, ``persist``'s base check,
``snapshots()`` or ``repro store verify``.  A failure there quarantines
the segment (an exclusive handle) or only refuses it (a read-only one),
and the snapshot is never served.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import struct
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.api.pool import SessionPool, snapshot_id_of
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec
from repro.cli import main
from repro.core import lockcheck
from repro.datasets.synthetic import generate_synthetic
from repro.db import io
from repro.db.database import CANONICAL_COLUMNS, RankedDatabase, change_set
from repro.db.ranking import by_value, ranking_descriptor
from repro.exceptions import CorruptSnapshotError
from repro.store import SEGMENT_SUFFIX, SnapshotStore
from repro.store.format import MAGIC, SEGMENT_COLUMNS, encode_segment
from repro.testing import flip_one_bit

Columns = Dict[str, Tuple[str, bytes]]


def ranked_db(seed: int = 3, num_xtuples: int = 12) -> RankedDatabase:
    return RankedDatabase(
        generate_synthetic(num_xtuples=num_xtuples, seed=seed, completion=0.9),
        by_value(),
    )


def segment_columns(ranked: RankedDatabase) -> Columns:
    """The ten columns a schema-4 segment of ``ranked`` holds."""
    columns = io.encode_structure(ranked.db)
    for name in CANONICAL_COLUMNS:
        array = getattr(ranked, name)
        columns[name] = (array.dtype.str, np.ascontiguousarray(array).tobytes())
    return columns


def encoded(snapshot_id: str, ranked: RankedDatabase, columns: Columns) -> bytes:
    """A schema-4 segment of ``columns`` whose CRCs and digest verify."""
    return encode_segment(
        snapshot_id=snapshot_id,
        content_hash=ranked.db.content_hash(),
        name=ranked.db.name,
        ranking=ranking_descriptor(ranked.ranking),
        columns=columns,
    )


def floats(columns: Columns, name: str) -> np.ndarray:
    return np.frombuffer(columns[name][1], dtype="<f8").copy()


def table(columns: Columns, name: str) -> List[Any]:
    return json.loads(columns[name][1])


def sizes(columns: Columns) -> List[int]:
    return np.frombuffer(columns["sizes"][1], dtype="<u4").tolist()


def set_floats(columns: Columns, name: str, array: np.ndarray) -> None:
    columns[name] = ("<f8", np.asarray(array, dtype="<f8").tobytes())


def set_table(columns: Columns, name: str, items: List[Any]) -> None:
    columns[name] = ("json", json.dumps(items, separators=(",", ":")).encode())


def set_sizes(columns: Columns, values: List[int]) -> None:
    columns["sizes"] = ("<u4", np.asarray(values, dtype="<u4").tobytes())


def _probability(value: float) -> Callable[[Columns], None]:
    def change(columns: Columns) -> None:
        p = floats(columns, "probabilities")
        p[3] = value
        set_floats(columns, "probabilities", p)

    return change


def _bool_in_json(columns: Columns) -> None:
    items = floats(columns, "probabilities").tolist()
    items[3] = True
    set_table(columns, "probabilities", items)


def _mass_above_one(columns: Columns) -> None:
    counts = sizes(columns)
    l = next(i for i, size in enumerate(counts) if size >= 2)
    lo = sum(counts[:l])
    p = floats(columns, "probabilities")
    p[lo : lo + counts[l]] = (1.0 + 2e-9) / counts[l]
    set_floats(columns, "probabilities", p)


def _table_entry(name: str, index: int, value: Callable[[List[Any]], Any]) -> Callable[[Columns], None]:
    def change(columns: Columns) -> None:
        items = table(columns, name)
        items[index] = value(items)
        set_table(columns, name, items)

    return change


def _zero_size(columns: Columns) -> None:
    counts = sizes(columns)
    counts[1] += counts[0]
    counts[0] = 0
    set_sizes(columns, counts)


def _sizes_off_by_one(columns: Columns) -> None:
    counts = sizes(columns)
    counts[0] += 1
    set_sizes(columns, counts)


def _ranked_one_ulp_off(columns: Columns) -> None:
    scores = floats(columns, "scores_array")
    scores[0] = np.nextafter(scores[0], math.inf)
    set_floats(columns, "scores_array", scores)


#: fault -> (change to a valid segment's columns, the check it fails).
COLUMN_FAULTS: Dict[str, Tuple[Callable[[Columns], None], str]] = {
    "nan_probability": (_probability(math.nan), "probability must be a finite number"),
    "zero_probability": (_probability(0.0), "probability must lie in (0, 1]"),
    "probability_above_one": (_probability(1.5), "probability must lie in (0, 1]"),
    "bool_probability_in_json": (
        _bool_in_json,
        "probability must be a finite number, got True",
    ),
    "mass_above_one": (_mass_above_one, "existential probabilities sum to"),
    "duplicate_xtuple_id": (
        _table_entry("xids", 1, lambda items: items[0]),
        "duplicate x-tuple id",
    ),
    "tuple_id_in_two_xtuples": (
        _table_entry("tids", -1, lambda items: items[0]),
        "duplicate tuple id",
    ),
    "empty_id": (
        _table_entry("xids", 2, lambda items: ""),
        "x-tuple id must be a non-empty string",
    ),
    "zero_size": (_zero_size, "has no alternatives"),
    "sizes_miss_the_tuple_count": (_sizes_off_by_one, "x-tuple sizes sum to"),
    "ranked_column_one_ulp_off": (
        _ranked_one_ulp_off,
        "column 'scores_array' does not match the re-ranked view",
    ),
}


def store_with_fault(root: Path, fault: str) -> None:
    """A store holding a good snapshot and a "bad" one whose columns
    carry ``fault``, re-framed with valid CRCs and digest."""
    SnapshotStore(root).persist("good", ranked_db())
    ranked = ranked_db(seed=4)
    columns = segment_columns(ranked)
    change, _ = COLUMN_FAULTS[fault]
    change(columns)
    (root / "segments" / ("bad" + SEGMENT_SUFFIX)).write_bytes(
        encoded("bad", ranked, columns)
    )


class TestColumnarCorruption:
    @pytest.mark.parametrize("fault", sorted(COLUMN_FAULTS))
    def test_first_use_quarantines_and_never_serves(self, tmp_path, fault):
        root = tmp_path / "store"
        store_with_fault(root, fault)
        reopened = SnapshotStore(root)
        # Every byte verifies: the open indexes the segment.
        assert reopened.recovery.loaded == ("bad", "good")
        assert reopened.recovery.quarantined == ()
        with pytest.raises(CorruptSnapshotError) as failure:
            reopened.load("bad")
        assert COLUMN_FAULTS[fault][1] in str(failure.value)
        assert (root / "quarantine" / ("bad" + SEGMENT_SUFFIX)).exists()
        assert not (root / "segments" / ("bad" + SEGMENT_SUFFIX)).exists()
        with pytest.raises(CorruptSnapshotError):
            reopened.load("bad")
        assert sorted(reopened.snapshots()) == ["good"]
        assert reopened.snapshot_ids() == ["good"]

    @pytest.mark.parametrize("fault", sorted(COLUMN_FAULTS))
    def test_read_only_handle_refuses_and_moves_nothing(self, tmp_path, fault):
        root = tmp_path / "store"
        store_with_fault(root, fault)
        pool = SessionPool(store=SnapshotStore(root, mode="readonly"))
        with pytest.raises(CorruptSnapshotError, match=re.escape(COLUMN_FAULTS[fault][1])):
            pool.ranked("bad")
        assert "bad" not in pool
        assert (root / "segments" / ("bad" + SEGMENT_SUFFIX)).exists()
        assert os.listdir(root / "quarantine") == []
        assert sorted(pool.store.snapshots()) == ["good"]

    @pytest.mark.parametrize("column", SEGMENT_COLUMNS)
    @pytest.mark.parametrize("redigest", [False, True], ids=["digest", "crc"])
    def test_a_bit_flip_in_any_column_is_quarantined_at_open(
        self, tmp_path, column, redigest
    ):
        root = tmp_path / "store"
        SnapshotStore(root).persist("good", ranked_db())
        ranked = ranked_db(seed=4)
        data = bytearray(encoded("bad", ranked, segment_columns(ranked)))
        (length,) = struct.unpack_from(">I", data, len(MAGIC))
        header = json.loads(data[len(MAGIC) + 4 : len(MAGIC) + 4 + length])
        offset = len(MAGIC) + 4 + length
        for meta in header["columns"]:
            if meta["name"] == column:
                break
            offset += meta["length"]
        assert meta["length"] > 0
        data[offset + meta["length"] // 2] ^= 0x10
        if redigest:  # only the column's CRC can catch it now
            data[-32:] = hashlib.sha256(bytes(data[:-32])).digest()
        (root / "segments" / ("bad" + SEGMENT_SUFFIX)).write_bytes(bytes(data))

        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ("good",)
        ((name, reason),) = reopened.recovery.quarantined
        assert name == "bad" + SEGMENT_SUFFIX
        assert (
            f"column {column!r} CRC mismatch" if redigest else "digest mismatch"
        ) in reason
        assert (root / "quarantine" / name).exists()


def persisted_chains(root: Path) -> Dict[str, List[str]]:
    """Two cleaning chains in one store, under their real snapshot ids:
    a full segment and three deltas, and a full segment and two."""
    store = SnapshotStore(root)
    chains: Dict[str, List[str]] = {}
    for name, seed, links in (("a", 1, 3), ("b", 2, 2)):
        views = [ranked_db(seed=seed, num_xtuples=20)]
        for _ in range(links):
            db = views[-1].db
            xt = next(x for x in db.xtuples if len(x.alternatives) > 1)
            views.append(views[-1].with_change_set({xt.xid: xt.tids[0]}))
        ids: List[str] = []
        for index, view in enumerate(views):
            ids.append(snapshot_id_of(view.db))
            store.persist(
                ids[-1],
                view,
                base=ids[-2] if index else None,
                changes=change_set(views[index - 1].db, view.db) if index else None,
            )
        chains[name] = ids
    return chains


def test_a_lease_rebuilds_only_its_own_chain(tmp_path, monkeypatch):
    root = tmp_path / "store"
    chains = persisted_chains(root)
    rebuilt: List[str] = []
    for method in ("_rebuild_full", "_rebuild_delta"):
        original = getattr(SnapshotStore, method)

        def recording(self, segment, *args, _original=original):
            rebuilt.append(segment.header["snapshot_id"])
            return _original(self, segment, *args)

        monkeypatch.setattr(SnapshotStore, method, recording)

    pool = SessionPool(store=SnapshotStore(root))
    assert rebuilt == []  # the open rebuilt nothing
    assert sorted(pool.store.snapshot_ids()) == sorted(chains["a"] + chains["b"])
    assert pool.store.status()["full_segments"] == 2
    assert pool.store.status()["delta_segments"] == 5
    with pool.lease(chains["a"][2]) as session:
        session.quality(3)
    # The leased delta, the delta below it and their full segment.
    assert rebuilt == chains["a"][:3]
    with pool.lease(chains["a"][1]):
        pass
    assert rebuilt == chains["a"][:3]  # already rebuilt: no second rebuild


def test_concurrent_first_uses_rebuild_each_snapshot_once(tmp_path, monkeypatch):
    root = tmp_path / "store"
    chains = persisted_chains(root)
    ids = chains["a"] + chains["b"]
    rebuilt: List[str] = []
    guard = threading.Lock()
    for method in ("_rebuild_full", "_rebuild_delta"):
        original = getattr(SnapshotStore, method)

        def recording(self, segment, *args, _original=original):
            with guard:
                rebuilt.append(segment.header["snapshot_id"])
            return _original(self, segment, *args)

        monkeypatch.setattr(SnapshotStore, method, recording)
    pool = SessionPool(store=SnapshotStore(root))
    errors: List[Exception] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(25):
                sid = rng.choice(ids)
                with pool.lease(sid) as session:
                    assert snapshot_id_of(session.ranked.db) == sid
                    assert session.ranked is pool.ranked(sid)
        except Exception as exc:  # surfaced below, in the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(rebuilt) == sorted(ids)  # each exactly once


def test_a_read_only_pool_refuses_a_foreign_id_and_moves_nothing(tmp_path):
    root = tmp_path / "store"
    view = ranked_db()
    own = snapshot_id_of(view.db)
    store = SnapshotStore(root)
    store.persist("snap-bogus", view)
    store.persist(own, view)

    # The id check runs at first use; a read-only pool used to raise
    # StoreReadOnlyError from its constructor instead.
    pool = SessionPool(store=SnapshotStore(root, mode="readonly"))
    assert pool.ranked(own).db.content_hash() == view.db.content_hash()
    with pytest.raises(CorruptSnapshotError, match="does not derive"):
        pool.ranked("snap-bogus")
    assert "snap-bogus" not in pool
    assert (root / "segments" / ("snap-bogus" + SEGMENT_SUFFIX)).exists()
    assert os.listdir(root / "quarantine") == []

    # An exclusive pool quarantines it at first use and serves the other.
    pool = SessionPool(store=SnapshotStore(root))
    with pytest.raises(CorruptSnapshotError, match="does not derive"):
        with pool.lease("snap-bogus"):
            pass
    assert os.listdir(root / "quarantine") == ["snap-bogus" + SEGMENT_SUFFIX]
    with pool.lease(own) as session:
        assert session.ranked.db.content_hash() == view.db.content_hash()


def test_registering_content_whose_stored_copy_fails_rewrites_it(tmp_path):
    # The stored copy's bytes verify, but its ranked column is one ulp
    # off: a register of the same content must not trust it.
    root = tmp_path / "store"
    SnapshotStore(root)
    view = ranked_db()
    sid = snapshot_id_of(view.db)
    columns = segment_columns(view)
    _ranked_one_ulp_off(columns)
    (root / "segments" / (sid + SEGMENT_SUFFIX)).write_bytes(
        encoded(sid, view, columns)
    )
    pool = SessionPool(store=SnapshotStore(root))
    assert pool.register(view) == sid
    assert os.listdir(root / "quarantine") == [sid + SEGMENT_SUFFIX]
    reopened = SnapshotStore(root)
    assert reopened.load(sid).db.content_hash() == view.db.content_hash()


def test_a_clean_onto_a_stored_unused_outcome_nests_no_snapshot_locks(tmp_path):
    # A clean publishes its outcome under its base's lease; when the
    # outcome is a stored snapshot not used yet, its rebuild must not
    # take a second snapshot lock (same rank).
    root = tmp_path / "store"
    spec = CleaningSpec(k=3, budget=20, seed=7)
    first = TopKService(pool=SessionPool(store=SnapshotStore(root)))
    base = first.register(ranked_db(num_xtuples=20).db).snapshot_id
    outcome = first.clean(base, spec).payload["new_snapshot_id"]
    assert outcome != base
    lockcheck.enable()
    try:
        service = TopKService(
            pool=SessionPool(store=SnapshotStore(root))
        )
        assert service.clean(base, spec).payload["new_snapshot_id"] == outcome
    finally:
        lockcheck.disable()
    assert service.database(outcome).content_hash() == (
        first.database(outcome).content_hash()
    )


class TestVerifyCommand:
    def test_clean_store_verifies(self, tmp_path):
        root = tmp_path / "store"
        chains = persisted_chains(root)
        out = tmp_path / "verify.json"
        assert main(["store", "verify", "--dir", str(root), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["failed"] == []
        assert report["verified"] == sorted(chains["a"] + chains["b"])

    def test_every_failure_is_reported_and_nothing_moves(self, tmp_path, capsys):
        root = tmp_path / "store"
        store_with_fault(root, "mass_above_one")
        flipped = root / "segments" / ("flipped" + SEGMENT_SUFFIX)
        flipped.write_bytes(
            flip_one_bit((root / "segments" / ("good" + SEGMENT_SUFFIX)).read_bytes())
        )
        before = sorted(os.listdir(root / "segments"))
        out = tmp_path / "verify.json"
        assert main(["store", "verify", "--dir", str(root), "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["verified"] == ["good"]
        failed = dict(report["failed"])
        assert sorted(failed) == ["bad" + SEGMENT_SUFFIX, "flipped" + SEGMENT_SUFFIX]
        assert "sum to" in failed["bad" + SEGMENT_SUFFIX]
        assert "digest" in failed["flipped" + SEGMENT_SUFFIX]
        assert "2 failed" in capsys.readouterr().out
        assert sorted(os.listdir(root / "segments")) == before
        assert os.listdir(root / "quarantine") == []
