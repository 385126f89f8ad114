"""Unit tests of the snapshot store: codec, atomic writes, recovery.

The crash-point *sweep* (every write step, pre-state or post-state)
and the full service round trips live in ``test_store_recovery.py``;
this file covers the building blocks: the byte codec's corruption
detection, the atomic persist protocol, journal framing, quarantine,
and the ingest validation at the ``repro.db.io`` trust boundary.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.datasets.synthetic import generate_synthetic
from repro.db import io
from repro.db.database import CANONICAL_COLUMNS, ProbabilisticDatabase, RankedDatabase
from repro.db.ranking import by_value, ranking_descriptor
from repro.db.tuples import make_xtuple
from repro.exceptions import (
    CorruptSnapshotError,
    InvalidDataError,
    StoreWriteError,
)
from repro.store import (
    JOURNAL_NAME,
    SEGMENT_SUFFIX,
    TMP_PREFIX,
    RetentionPolicy,
    SnapshotStore,
)
from repro.store.format import (
    decode_journal,
    decode_segment,
    encode_journal_record,
    encode_segment,
)
from repro.testing import (
    FaultEvent,
    FaultPlan,
    flip_one_bit,
    use_faults,
)

from reference_encoding import (
    ENCODING_CASES,
    reference_content_hash,
    reference_structure_json,
)


def ranked_db(seed: int = 3, num_xtuples: int = 12) -> RankedDatabase:
    return RankedDatabase(
        generate_synthetic(num_xtuples=num_xtuples, seed=seed), by_value()
    )


def encoded_segment(
    snapshot_id: str = "s1",
    ranked: Optional[RankedDatabase] = None,
    structure_json: Optional[bytes] = None,
    content_hash: Optional[str] = None,
) -> bytes:
    """A segment of ``ranked`` (default :func:`ranked_db`), encoded with
    the cached encoders unless a structure JSON / content hash is given."""
    ranked = ranked_db() if ranked is None else ranked
    columns = {
        name: (
            getattr(ranked, name).dtype.str,
            np.ascontiguousarray(getattr(ranked, name)).tobytes(),
        )
        for name in CANONICAL_COLUMNS
    }
    return encode_segment(
        snapshot_id=snapshot_id,
        content_hash=(
            ranked.db.content_hash() if content_hash is None else content_hash
        ),
        name=ranked.db.name,
        ranking=ranking_descriptor(ranked.ranking),
        structure_json=(
            io.database_structure_json(ranked.db)
            if structure_json is None
            else structure_json
        ),
        columns=columns,
    )


def reference_segment(snapshot_id: str, ranked: RankedDatabase) -> bytes:
    """The segment the uncached reference encoders frame."""
    return encoded_segment(
        snapshot_id,
        ranked,
        structure_json=reference_structure_json(ranked.db),
        content_hash=reference_content_hash(ranked.db),
    )


# ---------------------------------------------------------------------------
# The byte codec
# ---------------------------------------------------------------------------


class TestSegmentCodec:
    def test_round_trip(self):
        data = encoded_segment("s1")
        header, structure, columns = decode_segment(data)
        assert header["snapshot_id"] == "s1"
        assert structure["format"] == "repro.probabilistic_database"
        assert set(columns) == {
            "scores_array",
            "insertion_array",
            "xtuple_indices_array",
            "probabilities_array",
            "completion_array",
        }

    def test_every_single_bitflip_is_detected(self):
        # Not literally every bit (too slow) -- a spread of positions
        # covering magic, header, structure, columns and digest.
        data = encoded_segment()
        for position in range(0, len(data), max(1, len(data) // 64)):
            corrupt = bytearray(data)
            corrupt[position] ^= 0x40
            with pytest.raises(CorruptSnapshotError):
                decode_segment(bytes(corrupt))

    def test_truncation_is_detected_at_any_length(self):
        data = encoded_segment()
        for cut in (0, 1, 4, len(data) // 2, len(data) - 1):
            with pytest.raises(CorruptSnapshotError):
                decode_segment(data[:cut])

    def test_trailing_garbage_is_detected(self):
        data = encoded_segment()
        with pytest.raises(CorruptSnapshotError):
            decode_segment(data + b"\x00")

    def test_flip_one_bit_changes_exactly_one_bit(self):
        data = encoded_segment()
        flipped = flip_one_bit(data)
        assert len(flipped) == len(data)
        diff = [
            bin(a ^ b).count("1") for a, b in zip(data, flipped) if a != b
        ]
        assert diff == [1]


# ---------------------------------------------------------------------------
# Byte identity of the cached encoders
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "replay_stores"
FIXTURE_STORES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())


def encoding_case(name: str) -> RankedDatabase:
    make_db, make_ranking = ENCODING_CASES[name]
    return RankedDatabase(make_db(), make_ranking())


def assert_encodes_like_reference(db: ProbabilisticDatabase) -> None:
    assert db.content_hash() == reference_content_hash(db)
    assert io.database_structure_json(db) == reference_structure_json(db)


class TestCachedEncodingIdentity:
    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_content_hash_matches_reference(self, name):
        db = encoding_case(name).db
        assert db.content_hash() == reference_content_hash(db)
        # Every record now comes from the x-tuples' memo.
        shared = ProbabilisticDatabase(db.xtuples, name="another name")
        assert shared.content_hash() == reference_content_hash(db)

    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_segment_matches_reference_encoder(self, name, tmp_path):
        ranked = encoding_case(name)
        expected = reference_segment("s1", ranked)
        assert encoded_segment("s1", ranked) == expected  # cold memo
        assert encoded_segment("s1", ranked) == expected  # filled memo
        store = SnapshotStore(tmp_path / "store", durability="none")
        store.persist("s1", ranked)
        path = tmp_path / "store" / "segments" / ("s1" + SEGMENT_SUFFIX)
        assert path.read_bytes() == expected

    def test_derivation_chain_hashes_like_reference(self, monkeypatch):
        collapses = []
        collapse_patch = RankedDatabase._collapse_patch

        def spy(self, *args, **kwargs):
            collapses.append(args[0].xid)
            return collapse_patch(self, *args, **kwargs)

        monkeypatch.setattr(RankedDatabase, "_collapse_patch", spy)
        ranked = encoding_case("synthetic_incomplete")
        assert_encodes_like_reference(ranked.db)
        xids = [xt.xid for xt in ranked.db.xtuples]

        steps = []
        for step, xid in enumerate(xids[:9]):
            xt = ranked.db.xtuple(xid)
            if step % 3 == 0:  # Definition 5: collapse to a certain tuple
                derived, _ = ranked.with_xtuple_replaced(
                    xid, xt.collapsed_to(xt.alternatives[-1].tid)
                )
            elif step % 3 == 1:  # general path: fresh tids and values
                replacement = make_xtuple(
                    xid, [(f"{xid}-n{j}", 0.5 + j, 0.3) for j in range(3)]
                )
                derived, _ = ranked.with_xtuple_replaced(xid, replacement)
            else:  # revealed null
                derived, _ = ranked.with_xtuple_removed(xid)
            # Unchanged x-tuples are shared with the base, memo and all.
            unchanged = [x for x in ranked.db.xtuples if x.xid != xid]
            kept = {x.xid: x for x in derived.db.xtuples}
            assert all(kept[x.xid] is x for x in unchanged)
            assert_encodes_like_reference(derived.db)
            rebuilt = ProbabilisticDatabase(
                make_xtuple(x.xid, [(t.tid, t.value, t.probability) for t in x])
                for x in derived.db.xtuples
            )
            assert rebuilt.content_hash() == derived.db.content_hash()
            steps.append(xid)
            ranked = derived
        assert collapses == steps[0::3]

    @pytest.mark.parametrize("name", FIXTURE_STORES)
    def test_fixture_base_segment_re_persists_byte_for_byte(self, tmp_path, name):
        # The committed segments predate the per-x-tuple caches.
        root = tmp_path / name
        shutil.copytree(FIXTURES / name, root)
        (committed,) = (root / "segments").glob("*" + SEGMENT_SUFFIX)
        snapshot_id = committed.name[: -len(SEGMENT_SUFFIX)]
        ranked = SnapshotStore(root, mode="readonly").snapshots()[snapshot_id]
        for attempt in ("cold", "cached"):
            fresh = SnapshotStore(tmp_path / attempt, durability="none")
            assert fresh.persist(snapshot_id, ranked) is True
            written = tmp_path / attempt / "segments" / committed.name
            assert written.read_bytes() == committed.read_bytes()


class TestJournalCodec:
    def test_round_trip(self):
        frames = b"".join(
            encode_journal_record({"kind": "clean", "n": i}) for i in range(3)
        )
        records, clean_length, reason = decode_journal(frames)
        assert [r["n"] for r in records] == [0, 1, 2]
        assert clean_length == len(frames)
        assert reason == ""

    def test_torn_tail_is_cut_at_record_boundary(self):
        good = encode_journal_record({"kind": "clean", "n": 0})
        torn = good + encode_journal_record({"kind": "clean", "n": 1})[:-3]
        records, clean_length, reason = decode_journal(torn)
        assert [r["n"] for r in records] == [0]
        assert clean_length == len(good)
        assert "torn" in reason

    def test_corrupt_record_stops_the_clean_prefix(self):
        good = encode_journal_record({"kind": "clean", "n": 0})
        bad = bytearray(encode_journal_record({"kind": "clean", "n": 1}))
        bad[-1] ^= 0xFF  # payload byte: CRC mismatch
        records, clean_length, reason = decode_journal(good + bytes(bad))
        assert [r["n"] for r in records] == [0]
        assert clean_length == len(good)
        assert "CRC" in reason


# ---------------------------------------------------------------------------
# SnapshotStore: atomic writes and recovery
# ---------------------------------------------------------------------------


class TestSnapshotStore:
    def test_persist_then_reopen_recovers(self, tmp_path):
        ranked = ranked_db()
        store = SnapshotStore(tmp_path / "store", durability="none")
        assert store.persist("s1", ranked) is True
        assert store.counters()["psr_store_writes"] == 1

        reopened = SnapshotStore(tmp_path / "store", durability="none")
        assert reopened.recovery.loaded == ("s1",)
        assert reopened.recovery.quarantined == ()
        recovered = reopened.snapshots()["s1"]
        assert recovered.db.content_hash() == ranked.db.content_hash()

    def test_persist_is_idempotent_by_id(self, tmp_path):
        ranked = ranked_db()
        store = SnapshotStore(tmp_path / "store", durability="none")
        assert store.persist("s1", ranked) is True
        assert store.persist("s1", ranked) is False
        assert store.counters()["psr_store_writes"] == 1

    def test_fsync_durability_also_round_trips(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")  # durability="fsync"
        store.persist("s1", ranked_db())
        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.recovery.loaded == ("s1",)

    def test_unserializable_ranking_is_refused(self, tmp_path):
        from repro.db.ranking import custom

        db = generate_synthetic(num_xtuples=5, seed=1)
        ranked = RankedDatabase(db, custom(lambda t: float(t.value)))
        store = SnapshotStore(tmp_path / "store", durability="none")
        with pytest.raises(StoreWriteError, match="descriptor"):
            store.persist("s1", ranked)
        assert store.snapshots() == {}

    def test_bad_durability_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            SnapshotStore(tmp_path / "store", durability="eventually")

    def test_enospc_cleans_up_and_raises_typed(self, tmp_path):
        store = SnapshotStore(tmp_path / "store", durability="none")
        plan = FaultPlan([FaultEvent(kind="enospc", step="segment:written")])
        with use_faults(plan):
            with pytest.raises(StoreWriteError, match="No space left"):
                store.persist("s1", ranked_db())
        assert store.snapshots() == {}
        assert not store.has_segment("s1")
        assert list((tmp_path / "store" / "segments").iterdir()) == []
        # And the path is not poisoned: the retry succeeds.
        assert store.persist("s1", ranked_db()) is True

    def test_temp_files_are_swept_on_open(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root, durability="none")
        store.persist("s1", ranked_db())
        (root / "segments" / (TMP_PREFIX + "s2")).write_bytes(b"half a write")
        reopened = SnapshotStore(root, durability="none")
        assert reopened.recovery.swept_temp_files == 1
        assert reopened.recovery.loaded == ("s1",)
        assert list((root / "segments").glob(TMP_PREFIX + "*")) == []

    def test_garbage_segment_is_quarantined_not_served(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root, durability="none")
        store.persist("s1", ranked_db())
        (root / "segments" / ("junk" + SEGMENT_SUFFIX)).write_bytes(
            b"not a segment at all"
        )
        reopened = SnapshotStore(root, durability="none")
        assert reopened.recovery.loaded == ("s1",)
        assert [name for name, _ in reopened.recovery.quarantined] == [
            "junk" + SEGMENT_SUFFIX
        ]
        assert reopened.counters()["psr_store_quarantined"] == 1
        assert (root / "quarantine" / ("junk" + SEGMENT_SUFFIX)).exists()

    def test_tampered_segment_is_quarantined(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root, durability="none")
        store.persist("s1", ranked_db())
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(flip_one_bit(path.read_bytes()))
        reopened = SnapshotStore(root, durability="none")
        assert reopened.recovery.loaded == ()
        assert len(reopened.recovery.quarantined) == 1
        name, reason = reopened.recovery.quarantined[0]
        assert name == "s1" + SEGMENT_SUFFIX
        assert "corrupt" in reason

    def test_misnamed_segment_is_quarantined(self, tmp_path):
        # A segment whose header names a different snapshot than its
        # file name must not be adopted under either identity.
        root = tmp_path / "store"
        store = SnapshotStore(root, durability="none")
        store.persist("s1", ranked_db())
        src = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        src.rename(root / "segments" / ("s2" + SEGMENT_SUFFIX))
        reopened = SnapshotStore(root, durability="none")
        assert reopened.recovery.loaded == ()
        assert [name for name, _ in reopened.recovery.quarantined] == [
            "s2" + SEGMENT_SUFFIX
        ]

    def test_undecodable_structure_is_quarantined(self, tmp_path):
        # Digest and CRCs verify; the structure's second x-tuple entry
        # is not an object, so the database does not rebuild.
        root = tmp_path / "store"
        SnapshotStore(root, durability="none")
        payload = io.database_to_dict(ranked_db().db)
        payload["xtuples"][1] = "not an x-tuple"
        structure_json = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(encoded_segment("s1", structure_json=structure_json))
        decode_segment(path.read_bytes())  # framing is intact

        reopened = SnapshotStore(root, durability="none")
        assert reopened.recovery.loaded == ()
        ((name, reason),) = reopened.recovery.quarantined
        assert name == "s1" + SEGMENT_SUFFIX
        assert "structure does not decode" in reason
        assert "x-tuple #1: must be an object" in reason
        assert (root / "quarantine" / name).exists()

    def test_shortread_at_open_quarantines(self, tmp_path):
        root = tmp_path / "store"
        SnapshotStore(root, durability="none").persist("s1", ranked_db())
        plan = FaultPlan([FaultEvent(kind="shortread", step="segment:read")])
        with use_faults(plan):
            reopened = SnapshotStore(root, durability="none")
        assert reopened.recovery.loaded == ()
        assert len(reopened.recovery.quarantined) == 1

    def test_torn_journal_tail_is_truncated_on_open(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root, durability="none")
        record = store.journal_clean("s-base", {"k": 5}, "s-out", "hash")
        assert record["base"] == "s-base"
        journal = root / JOURNAL_NAME
        clean_length = journal.stat().st_size
        with open(journal, "ab") as f:
            f.write(encode_journal_record({"kind": "clean"})[:-5])
        reopened = SnapshotStore(root, durability="none")
        assert reopened.recovery.journal_records == 1
        assert reopened.recovery.journal_truncated_bytes > 0
        assert "torn" in reopened.recovery.journal_truncate_reason
        assert journal.stat().st_size == clean_length
        assert reopened.pending_cleanings()[0]["outcome"] == "s-out"

    def test_status_shape(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root, durability="none")
        store.persist("s1", ranked_db())
        store.journal_clean("s1", {"k": 5}, "s-out", "hash")
        status = store.status()
        assert status["snapshots"] == ["s1"]
        assert status["journal_records"] == 1
        assert status["pending_cleanings"] == ["s-out"]
        assert status["quarantined_files"] == []
        assert status["durability"] == "none"
        assert status["counters"]["psr_store_writes"] == 1
        assert status["recovery"]["loaded"] == []
        json.dumps(status)  # the whole envelope must be serializable

    def test_gc_in_use_callback_is_evaluated_under_the_lock(self, tmp_path):
        store = SnapshotStore(tmp_path / "store", durability="none")
        store.persist("s1", ranked_db(3))
        store.persist("s2", ranked_db(4))
        seen = []

        def in_use():
            # Called while gc holds the exclusive file lock: the
            # holder record names this process, proving the set is
            # taken at the victim-selection point, not snapshotted
            # before the sweep began.
            seen.append(store.lock_holder())
            return {"s2"}

        report = store.gc(RetentionPolicy(keep_last_n=0), in_use=in_use)
        assert len(seen) == 1
        assert seen[0] is not None and seen[0]["pid"] == os.getpid()
        assert report["tombstoned"] == ["s1"]
        assert report["protected"] == ["s2"]


# ---------------------------------------------------------------------------
# Ingest validation (the repro.db.io trust boundary)
# ---------------------------------------------------------------------------


def payload_with_probability(p):
    return {
        "format": "repro.probabilistic_database",
        "version": 1,
        "name": "t",
        "xtuples": [
            {
                "xid": "x1",
                "alternatives": [
                    {"tid": "t1", "value": 1.0, "probability": p}
                ],
            }
        ],
    }


def _drop_value(payload):
    del payload["xtuples"][0]["alternatives"][0]["value"]


def _set_alternative(payload, alternative):
    payload["xtuples"][0]["alternatives"][0] = alternative


def _overfill(payload):
    payload["xtuples"][0]["alternatives"].append(
        {"tid": "t2", "value": 2.0, "probability": 0.6}
    )


#: (mutation of a valid payload, message the typed error must carry).
MALFORMED_PAYLOADS = {
    "alternative_without_value": (_drop_value, "'t1' of x-tuple 'x1'.*no value"),
    "alternative_not_an_object": (
        lambda p: _set_alternative(p, ["t1", 1.0, 0.5]),
        "x-tuple 'x1', alternative #0: must be an object",
    ),
    "xtuple_not_an_object": (
        lambda p: p["xtuples"].append("x2"),
        "x-tuple #1: must be an object",
    ),
    "alternatives_not_a_list": (
        lambda p: p["xtuples"][0].update(alternatives={"tid": "t1"}),
        "x-tuple 'x1': alternatives must be a list",
    ),
    "missing_xtuples": (lambda p: p.pop("xtuples"), "xtuples must be a list"),
    "xtuples_not_a_list": (
        lambda p: p.update(xtuples=7),
        "xtuples must be a list",
    ),
    "probabilities_sum_above_one": (_overfill, "x-tuple 'x1'.*sum to"),
    "probability_beyond_float_range": (
        lambda p: _set_alternative(
            p, {"tid": "t1", "value": 1.0, "probability": 10**400}
        ),
        "tuple 't1' of x-tuple 'x1'.*probability",
    ),
}


class TestIngestValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
    def test_malformed_payload_raises_typed_error(self, case):
        mutate, message = MALFORMED_PAYLOADS[case]
        payload = payload_with_probability(0.5)
        mutate(payload)
        with pytest.raises(InvalidDataError, match=message):
            io.database_from_dict(payload)

    def test_non_object_payload_is_not_a_database(self):
        with pytest.raises(ValueError, match="not a repro"):
            io.database_from_dict(["repro.probabilistic_database"])

    @pytest.mark.parametrize(
        "probability",
        [float("nan"), float("inf"), -0.25, 0.0, 1.5, "0.5", None, True],
    )
    def test_bad_probabilities_are_rejected(self, probability):
        with pytest.raises(InvalidDataError, match="probability"):
            io.database_from_dict(payload_with_probability(probability))

    def test_error_names_the_offending_tuple(self):
        with pytest.raises(InvalidDataError, match="'t1'.*'x1'"):
            io.database_from_dict(payload_with_probability(float("nan")))

    def test_duplicate_tuple_id_is_rejected(self):
        payload = payload_with_probability(0.5)
        payload["xtuples"][0]["alternatives"].append(
            {"tid": "t1", "value": 2.0, "probability": 0.3}
        )
        with pytest.raises(InvalidDataError, match="duplicate tuple id"):
            io.database_from_dict(payload)

    def test_duplicate_xtuple_id_is_rejected(self):
        payload = payload_with_probability(0.5)
        payload["xtuples"].append(
            {
                "xid": "x1",
                "alternatives": [
                    {"tid": "t2", "value": 2.0, "probability": 0.3}
                ],
            }
        )
        with pytest.raises(InvalidDataError, match="duplicate x-tuple id"):
            io.database_from_dict(payload)

    def test_empty_xtuple_is_rejected(self):
        payload = payload_with_probability(0.5)
        payload["xtuples"].append({"xid": "x2", "alternatives": []})
        with pytest.raises(InvalidDataError, match="no alternatives"):
            io.database_from_dict(payload)

    def test_missing_xid_is_rejected(self):
        payload = payload_with_probability(0.5)
        del payload["xtuples"][0]["xid"]
        with pytest.raises(InvalidDataError, match="x-tuple #0"):
            io.database_from_dict(payload)

    def test_valid_payload_still_round_trips(self):
        db = generate_synthetic(num_xtuples=8, seed=5)
        assert (
            io.database_from_dict(io.database_to_dict(db)).content_hash()
            == db.content_hash()
        )

    def test_csv_bad_probability_names_the_row(self, tmp_path):
        path = tmp_path / "db.csv"
        io.save_csv(generate_synthetic(num_xtuples=2, seed=1), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nope\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(InvalidDataError, match="row 4"):
            io.load_csv(path)

    def test_csv_nan_probability_is_rejected(self, tmp_path):
        # float("nan") parses fine -- the range check must still fire.
        path = tmp_path / "db.csv"
        io.save_csv(generate_synthetic(num_xtuples=2, seed=1), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(InvalidDataError, match="row 3"):
            io.load_csv(path)

    def test_csv_duplicate_tid_is_rejected(self, tmp_path):
        path = tmp_path / "db.csv"
        io.save_csv(generate_synthetic(num_xtuples=2, seed=1), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.append(lines[1])  # replay the first data row verbatim
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(InvalidDataError, match="duplicate tuple id"):
            io.load_csv(path)

    def test_csv_empty_xid_is_rejected(self, tmp_path):
        path = tmp_path / "db.csv"
        io.save_csv(generate_synthetic(num_xtuples=2, seed=1), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = "," + lines[1].split(",", 1)[1]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(InvalidDataError, match="row 2"):
            io.load_csv(path)

    def test_csv_round_trips_clean_data(self, tmp_path):
        db = generate_synthetic(num_xtuples=6, seed=2)
        path = tmp_path / "db.csv"
        io.save_csv(db, path)
        assert io.load_csv(path, name=db.name).content_hash() == (
            db.content_hash()
        )
