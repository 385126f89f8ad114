"""Unit tests of the snapshot store: codec, atomic writes, recovery.

The crash-point *sweep* (every write step, pre-state or post-state)
and the full service round trips live in ``test_store_recovery.py``;
this file covers the building blocks: the byte codec's corruption
detection, the atomic persist protocol, journal framing, quarantine,
and the ingest validation at the ``repro.db.io`` trust boundary.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import shutil
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

import repro.store.store as store_module
from repro.api import CleaningSpec, QuerySpec, TopKService
from repro.datasets.mov import generate_mov, mov_ranking
from repro.datasets.synthetic import generate_synthetic
from repro.db import io
from repro.db.database import CANONICAL_COLUMNS, ProbabilisticDatabase, RankedDatabase
from repro.db.ranking import by_key, by_value, ranking_descriptor
from repro.db.tuples import ProbabilisticTuple, XTuple, make_xtuple
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
    MAGIC,
    SCHEMA4_COLUMNS,
    SCHEMA_VERSION,
    SEGMENT_COLUMNS,
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

from conftest import open_service
from reference_encoding import (
    ENCODING_CASES,
    reference_columns,
    reference_content_hash,
    reference_frames,
    reference_records,
    reference_structure_json,
    reference_v1_segment,
    reference_v2_segment,
    reference_v4_segment,
    reference_v5_segment,
)
from test_cost_contracts import build_crashed_store


def ranked_db(seed: int = 3, num_xtuples: int = 12) -> RankedDatabase:
    return RankedDatabase(
        generate_synthetic(num_xtuples=num_xtuples, seed=seed), by_value()
    )


def segment_columns(ranked: RankedDatabase) -> Dict[str, Tuple[str, bytes]]:
    return {
        name: (
            getattr(ranked, name).dtype.str,
            np.ascontiguousarray(getattr(ranked, name)).tobytes(),
        )
        for name in CANONICAL_COLUMNS
    }


def encoded_segment(
    snapshot_id: str = "s1",
    ranked: Optional[RankedDatabase] = None,
    structure_json: Optional[bytes] = None,
    content_hash: Optional[str] = None,
    fragment_lengths: Optional[Sequence[int]] = None,
    schema: int = SCHEMA_VERSION,
    structure_columns: Optional[Dict[str, Tuple[str, bytes]]] = None,
    records: Optional[bytes] = None,
) -> bytes:
    """A segment of ``ranked`` (default :func:`ranked_db`) in
    ``schema``: 5 (the one written) through :func:`encode_segment`,
    with the database's own content-hash records unless ``records`` is
    given; 4, 2 and 1 (the legacy layouts) through
    :func:`reference_v4_segment`, :func:`reference_v2_segment` and
    :func:`reference_v1_segment`, with the reference structure columns
    (schema 4) or structure JSON and frames unless ``structure_columns``
    or a structure JSON (and, for schema 2, its fragment lengths) is
    given.  The content hash is ``ranked``'s unless given."""
    ranked = ranked_db() if ranked is None else ranked
    fields: Dict[str, Any] = dict(
        snapshot_id=snapshot_id,
        content_hash=(
            ranked.db.content_hash() if content_hash is None else content_hash
        ),
        name=ranked.db.name,
        ranking=ranking_descriptor(ranked.ranking),
    )
    if schema == 5:
        if records is None:
            records = b"".join(ranked.db.content_records())
        return encode_segment(
            columns={"records": ("records", records), **segment_columns(ranked)},
            **fields,
        )
    if schema == 4:
        if structure_columns is None:
            structure_columns = reference_columns(io.database_to_dict(ranked.db))
        return reference_v4_segment(
            columns={**structure_columns, **segment_columns(ranked)}, **fields
        )
    if structure_json is None:
        structure_json = reference_structure_json(ranked.db)
        fragment_lengths = reference_frames(io.database_to_dict(ranked.db))[1]
    fields.update(structure_json=structure_json, columns=segment_columns(ranked))
    if schema == 1:
        return reference_v1_segment(**fields)
    assert fragment_lengths is not None, "a schema-2 segment needs its frames"
    return reference_v2_segment(fragment_lengths=list(fragment_lengths), **fields)


def framed_segment(
    snapshot_id: str,
    payload: Dict[str, Any],
    ranked: Optional[RankedDatabase] = None,
    schema: int = 2,
    content_hash: Optional[str] = None,
) -> bytes:
    """A segment whose structure is ``payload`` -- framed by
    :func:`reference_frames` (schemas 1 and 2), or laid out by
    :func:`reference_columns` (schema 4) or :func:`reference_records`
    (schema 5) -- intact framing around whatever the payload holds;
    header and ranked columns come from ``ranked``."""
    if schema == 5:
        return encoded_segment(
            snapshot_id,
            ranked,
            content_hash=content_hash,
            schema=5,
            records=reference_records(payload),
        )
    if schema == 4:
        return encoded_segment(
            snapshot_id,
            ranked,
            content_hash=content_hash,
            schema=4,
            structure_columns=reference_columns(payload),
        )
    structure_json, lengths = reference_frames(payload)
    return encoded_segment(
        snapshot_id, ranked, structure_json, content_hash, lengths, schema
    )


def reference_segment(snapshot_id: str, ranked: RankedDatabase) -> bytes:
    """The schema-5 segment the uncached reference encoders build: the
    records and the content hash one ``json.dumps`` per x-tuple."""
    return reference_v5_segment(
        snapshot_id=snapshot_id,
        content_hash=reference_content_hash(ranked.db),
        name=ranked.db.name,
        ranking=ranking_descriptor(ranked.ranking),
        columns={
            "records": ("records", reference_records(io.database_to_dict(ranked.db))),
            **segment_columns(ranked),
        },
    )


def segment_header_bytes(data: bytes) -> bytes:
    """The header JSON of an encoded segment."""
    (length,) = struct.unpack_from(">I", data, len(MAGIC))
    return data[len(MAGIC) + 4 : len(MAGIC) + 4 + length]


def with_header(data: bytes, **changes: Any) -> bytes:
    """``data`` with header fields replaced and the digest recomputed:
    a segment whose every checksum verifies around the given header."""
    old = segment_header_bytes(data)
    header = {**json.loads(old), **changes}
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    rest = data[len(MAGIC) + 4 + len(old) : -32]
    body = MAGIC + struct.pack(">I", len(new)) + new + rest
    return body + hashlib.sha256(body).digest()


def segment_header(path: Path) -> Dict[str, Any]:
    return decode_segment(path.read_bytes()).header


def first_use_failure(store: SnapshotStore, snapshot_id: str) -> str:
    """The message of the typed error the snapshot's first use raises
    (it must raise one); a later use raises it again."""
    with pytest.raises(CorruptSnapshotError) as first:
        store.load(snapshot_id)
    with pytest.raises(CorruptSnapshotError) as again:
        store.load(snapshot_id)
    assert str(again.value) == str(first.value)
    assert snapshot_id not in store.snapshot_ids()
    return str(first.value)


# ---------------------------------------------------------------------------
# The byte codec
# ---------------------------------------------------------------------------


class TestSegmentCodec:
    def test_round_trip(self):
        ranked = ranked_db()
        data = encoded_segment("s1", ranked)
        header, structure_json, columns = decode_segment(data)
        assert header["snapshot_id"] == "s1"
        assert header["schema"] == SCHEMA_VERSION == 5
        # No structure JSON: the structure is columns, returned unparsed.
        assert structure_json == b""
        assert tuple(columns) == SEGMENT_COLUMNS == (
            "records",
            "scores_array",
            "insertion_array",
            "xtuple_indices_array",
            "probabilities_array",
            "completion_array",
        )
        # The records are the bytes the content hash is taken over.
        reference = reference_records(io.database_to_dict(ranked.db))
        assert decode_segment(data).typed_columns(["records"]) == {
            "records": ("records", reference)
        }
        assert hashlib.sha256(columns["records"]).hexdigest() == header["content_hash"]

    def test_schema_4_round_trip(self):
        ranked = ranked_db()
        header, structure_json, columns = decode_segment(
            encoded_segment("s1", ranked, schema=4)
        )
        assert header["schema"] == 4
        assert structure_json == b""
        assert tuple(columns) == SCHEMA4_COLUMNS == (
            "xids",
            "tids",
            "sizes",
            "values",
            "probabilities",
            "scores_array",
            "insertion_array",
            "xtuple_indices_array",
            "probabilities_array",
            "completion_array",
        )
        reference = reference_columns(io.database_to_dict(ranked.db))
        assert decode_segment(
            encoded_segment("s1", ranked, schema=4)
        ).typed_columns(io.STRUCTURE_COLUMNS) == reference
        assert json.loads(columns["xids"]) == [xt.xid for xt in ranked.db.xtuples]

    def test_records_must_end_with_a_whole_record(self):
        ranked = ranked_db()
        records = b"".join(ranked.db.content_records())
        with pytest.raises(CorruptSnapshotError, match="end with a whole record"):
            decode_segment(encoded_segment("s1", ranked, records=records[:-1]))

    def test_schema_2_round_trip(self):
        ranked = ranked_db()
        header, structure_json, columns = decode_segment(
            encoded_segment("s1", ranked, schema=2)
        )
        assert header["schema"] == 2
        assert header["frames"] == ranked.db.num_xtuples
        # The frame table is checked and ignored: the structure comes
        # back whole and unparsed, as a schema-1 segment's does.
        assert structure_json == reference_structure_json(ranked.db)
        structure = json.loads(structure_json)
        assert structure["format"] == "repro.probabilistic_database"
        assert set(columns) == set(CANONICAL_COLUMNS)

    def test_schema_1_round_trip(self):
        ranked = ranked_db()
        header, structure_json, columns = decode_segment(
            encoded_segment("s1", ranked, schema=1)
        )
        assert header["schema"] == 1
        assert structure_json == reference_structure_json(ranked.db)
        assert columns == {k: blob for k, (_, blob) in segment_columns(ranked).items()}

    def test_frames_cost_four_bytes_per_xtuple(self):
        ranked = ranked_db()
        v1 = encoded_segment("s1", ranked, schema=1)
        v2 = encoded_segment("s1", ranked, schema=2)
        header_growth = len(segment_header_bytes(v2)) - len(segment_header_bytes(v1))
        assert len(v2) - len(v1) == 4 * ranked.db.num_xtuples + header_growth
        assert header_growth < 64

    def test_empty_database_frames(self, tmp_path):
        ranked = RankedDatabase(ProbabilisticDatabase([], name="empty"), by_value())
        segment = decode_segment(encoded_segment("s1", ranked, schema=2))
        assert segment.header["frames"] == 0
        assert segment.structure_json == reference_structure_json(ranked.db)
        # Schema 5: no records, and the snapshot still rebuilds.
        store = SnapshotStore(tmp_path / "store")
        store.persist("s1", ranked)
        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.load("s1").db.content_hash() == ranked.db.content_hash()

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
    assert b"".join(db.content_records()) == reference_records(io.database_to_dict(db))


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
        store = SnapshotStore(tmp_path / "store")
        store.persist("s1", ranked)
        path = tmp_path / "store" / "segments" / ("s1" + SEGMENT_SUFFIX)
        assert path.read_bytes() == expected

    def test_derivation_chain_hashes_like_reference(self):
        ranked = encoding_case("synthetic_incomplete")
        assert_encodes_like_reference(ranked.db)
        xids = [xt.xid for xt in ranked.db.xtuples]

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
            # Unchanged x-tuples keep the base's content-hash records,
            # the very bytes objects: only the changed one is encoded.
            base_records = dict(zip(ranked.db.xids, ranked.db._hash_records))
            kept = dict(zip(derived.db.xids, derived.db._hash_records))
            assert all(
                kept[other] is base_records[other]
                for other in ranked.db.xids
                if other != xid
            )
            assert_encodes_like_reference(derived.db)
            rebuilt = ProbabilisticDatabase(
                make_xtuple(x.xid, [(t.tid, t.value, t.probability) for t in x])
                for x in derived.db.xtuples
            )
            assert rebuilt.content_hash() == derived.db.content_hash()
            ranked = derived

    @pytest.mark.parametrize("name", FIXTURE_STORES)
    def test_fixture_base_segment_re_persists_byte_for_byte(self, tmp_path, name):
        # The committed segments predate the per-x-tuple caches and
        # schema 5: a re-persist writes the very same ranked columns,
        # hash, id and ranking, with the structure as the records that
        # rebuild the same database -- byte for byte what the reference
        # encoders build.
        root = tmp_path / name
        shutil.copytree(FIXTURES / name, root)
        (committed,) = (root / "segments").glob("*" + SEGMENT_SUFFIX)
        snapshot_id = committed.name[: -len(SEGMENT_SUFFIX)]
        ranked = SnapshotStore(root, mode="readonly").snapshots()[snapshot_id]
        old = decode_segment(committed.read_bytes())
        assert old.header["schema"] == 1
        # Pins the legacy encoder the schema-1 tests build segments with.
        assert encoded_segment(snapshot_id, ranked, schema=1) == committed.read_bytes()
        for attempt in ("cold", "cached"):
            fresh = SnapshotStore(tmp_path / attempt)
            assert fresh.persist(snapshot_id, ranked) is True
            written = (tmp_path / attempt / "segments" / committed.name).read_bytes()
            new = decode_segment(written)
            assert new.header["schema"] == 5
            assert {c: new.columns[c] for c in CANONICAL_COLUMNS} == old.columns
            assert new.columns["records"] == reference_records(
                json.loads(old.structure_json)
            )
            for field in ("content_hash", "snapshot_id", "ranking", "name"):
                assert new.header[field] == old.header[field]
            assert written == reference_segment(snapshot_id, ranked)
            rebuilt = SnapshotStore(tmp_path / attempt, mode="readonly").load(
                snapshot_id
            )
            assert rebuilt.db.content_hash() == old.header["content_hash"]


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
        store = SnapshotStore(tmp_path / "store")
        assert store.persist("s1", ranked) is True
        assert store.counters()["psr_store_writes"] == 1

        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.recovery.loaded == ("s1",)
        assert reopened.recovery.quarantined == ()
        recovered = reopened.snapshots()["s1"]
        assert recovered.db.content_hash() == ranked.db.content_hash()

    def test_persist_is_idempotent_by_id(self, tmp_path):
        ranked = ranked_db()
        store = SnapshotStore(tmp_path / "store")
        assert store.persist("s1", ranked) is True
        assert store.persist("s1", ranked) is False
        assert store.counters()["psr_store_writes"] == 1

    def test_fsync_durability_also_round_trips(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.persist("s1", ranked_db())
        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.recovery.loaded == ("s1",)

    def test_unserializable_ranking_is_refused(self, tmp_path):
        from repro.db.ranking import custom

        db = generate_synthetic(num_xtuples=5, seed=1)
        ranked = RankedDatabase(db, custom(lambda t: float(t.value)))
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(StoreWriteError, match="descriptor"):
            store.persist("s1", ranked)
        assert store.snapshots() == {}

    def test_factory_name_on_a_custom_ranking_is_refused(self, tmp_path):
        # A ranking's rule is its score callable: a reversed ranking
        # named "by_value" must not persist, or the next open would
        # re-rank the segment by value and quarantine it.
        from repro.db.ranking import custom

        root = tmp_path / "store"
        service = TopKService(
            ranking=custom(lambda t: -float(t.value), name="by_value"),
            store_dir=root,
        )
        with pytest.raises(StoreWriteError, match="descriptor"):
            service.register(generate_synthetic(num_xtuples=5, seed=1))
        assert service.pool.num_snapshots == 0
        assert os.listdir(root / "segments") == []

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_journal_threshold_below_one_is_rejected(self, tmp_path, threshold):
        # 0 or less would checkpoint after every append; the environment
        # variable reads such values as "disabled", so refuse them here.
        with pytest.raises(ValueError, match="max_journal_records"):
            SnapshotStore(tmp_path / "store", max_journal_records=threshold)
        assert not (tmp_path / "store").exists()
        store = SnapshotStore(tmp_path / "store", max_journal_records=1)
        assert store.max_journal_records == 1

    def test_enospc_cleans_up_and_raises_typed(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
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
        store = SnapshotStore(root)
        store.persist("s1", ranked_db())
        (root / "segments" / (TMP_PREFIX + "s2")).write_bytes(b"half a write")
        reopened = SnapshotStore(root)
        assert reopened.recovery.swept_temp_files == 1
        assert reopened.recovery.loaded == ("s1",)
        assert list((root / "segments").glob(TMP_PREFIX + "*")) == []

    def test_garbage_segment_is_quarantined_not_served(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("s1", ranked_db())
        (root / "segments" / ("junk" + SEGMENT_SUFFIX)).write_bytes(
            b"not a segment at all"
        )
        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ("s1",)
        assert [name for name, _ in reopened.recovery.quarantined] == [
            "junk" + SEGMENT_SUFFIX
        ]
        assert reopened.counters()["psr_store_quarantined"] == 1
        assert (root / "quarantine" / ("junk" + SEGMENT_SUFFIX)).exists()

    def test_tampered_segment_is_quarantined(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("s1", ranked_db())
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(flip_one_bit(path.read_bytes()))
        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ()
        assert len(reopened.recovery.quarantined) == 1
        name, reason = reopened.recovery.quarantined[0]
        assert name == "s1" + SEGMENT_SUFFIX
        assert "corrupt" in reason

    def test_misnamed_segment_is_quarantined(self, tmp_path):
        # A segment whose header names a different snapshot than its
        # file name must not be adopted under either identity.
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("s1", ranked_db())
        src = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        src.rename(root / "segments" / ("s2" + SEGMENT_SUFFIX))
        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ()
        assert [name for name, _ in reopened.recovery.quarantined] == [
            "s2" + SEGMENT_SUFFIX
        ]

    def test_undecodable_structure_is_quarantined(self, tmp_path):
        # Digest, CRCs and frames verify; the structure's second x-tuple
        # entry is not an object, so the database does not rebuild.
        self._assert_undecodable_entry_is_quarantined(tmp_path, 2)

    def test_undecodable_v1_structure_is_quarantined(self, tmp_path):
        # The same entry in a schema-1 segment, parsed whole.
        self._assert_undecodable_entry_is_quarantined(tmp_path, 1)

    @staticmethod
    def _assert_undecodable_entry_is_quarantined(tmp_path: Path, schema: int) -> None:
        root = tmp_path / "store"
        SnapshotStore(root)
        payload = io.database_to_dict(ranked_db().db)
        payload["xtuples"][1] = "not an x-tuple"
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(framed_segment("s1", payload, schema=schema))
        assert segment_header(path)["schema"] == schema  # framing is intact

        # The bytes verify at open; the first use rebuilds, and fails.
        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ("s1",)
        assert reopened.recovery.quarantined == ()
        reason = first_use_failure(reopened, "s1")
        assert "structure does not decode" in reason
        assert "x-tuple #1: must be an object" in reason
        assert (root / "quarantine" / ("s1" + SEGMENT_SUFFIX)).exists()

    @pytest.mark.parametrize("schema", [1, 2, 4, 5])
    @pytest.mark.parametrize(
        "good, bad, ranking, error",
        [
            (1.0, "abc", by_value(), "ValueError"),
            ({"size": 1.0}, 2.5, by_key("size"), "TypeError"),
            ({"size": 1.0}, {"weight": 1.0}, by_key("size"), "KeyError"),
        ],
        ids=["string-by-value", "number-by-key", "missing-key"],
    )
    def test_unscorable_value_is_quarantined(
        self, tmp_path, schema, good, bad, ranking, error
    ):
        # The content hash matches, but the ranking cannot score one
        # value, so the view cannot be rebuilt.  The open used to raise
        # the bare error, loading no other snapshot either.
        root = tmp_path / "store"
        SnapshotStore(root).persist("good", ranked_db())
        scorable = make_xtuple("x1", [("t1", good, 0.5)])
        db = ProbabilisticDatabase(
            [scorable, make_xtuple("x2", [("t2", bad, 0.5)])], name="unscorable"
        )
        # Columns of a scorable stand-in: the open never gets that far.
        stand_in = RankedDatabase(
            ProbabilisticDatabase([scorable], name=db.name), ranking
        )
        (root / "segments" / ("bad" + SEGMENT_SUFFIX)).write_bytes(
            framed_segment(
                "bad",
                io.database_to_dict(db),
                stand_in,
                schema=schema,
                content_hash=db.content_hash(),
            )
        )

        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ("bad", "good")
        assert reopened.recovery.quarantined == ()
        reason = first_use_failure(reopened, "bad")
        assert "the ranking cannot score the structure" in reason
        assert error in reason
        assert (root / "quarantine" / ("bad" + SEGMENT_SUFFIX)).exists()
        assert sorted(reopened.snapshots()) == ["good"]

    @pytest.mark.parametrize("schema", [1, 2, 4, 5])
    @pytest.mark.parametrize(
        "good, bad, ranking, error",
        [
            (1.0, "abc", by_value(), "ValueError"),
            ({"size": 1.0}, 2.5, by_key("size"), "TypeError"),
            ({"size": 1.0}, {"weight": 1.0}, by_key("size"), "KeyError"),
        ],
        ids=["string-by-value", "number-by-key", "missing-key"],
    )
    def test_unscorable_value_in_two_segments_quarantines_both(
        self, tmp_path, schema, good, bad, ranking, error
    ):
        # Two segments carry one unscorable x-tuple, which a columnar
        # pass builds once.  A score that raised leaves no memo behind,
        # so the second segment fails its re-rank exactly as the first.
        root = tmp_path / "store"
        SnapshotStore(root).persist("good", ranked_db())
        unscorable = make_xtuple("x2", [("t2", bad, 0.5)])
        for index, sid in enumerate(("bad1", "bad2")):
            scorable = make_xtuple(f"x{index}", [(f"s{index}", good, 0.5)])
            db = ProbabilisticDatabase([scorable, unscorable], name=sid)
            stand_in = RankedDatabase(
                ProbabilisticDatabase([scorable], name=sid), ranking
            )
            (root / "segments" / (sid + SEGMENT_SUFFIX)).write_bytes(
                framed_segment(
                    sid,
                    io.database_to_dict(db),
                    stand_in,
                    schema=schema,
                    content_hash=db.content_hash(),
                )
            )

        # One pass rebuilds all three.
        reopened = SnapshotStore(root)
        assert reopened.recovery.quarantined == ()
        assert sorted(reopened.snapshots()) == ["good"]
        for sid in ("bad1", "bad2"):
            reason = first_use_failure(reopened, sid)
            assert "the ranking cannot score the structure" in reason
            assert error in reason
            assert (root / "quarantine" / (sid + SEGMENT_SUFFIX)).exists()

    def test_unhashable_column_name_is_quarantined(self, tmp_path):
        # A header column entry whose name is a list used to raise a
        # bare TypeError out of decode_segment, loading nothing else.
        root = tmp_path / "store"
        SnapshotStore(root).persist("good", ranked_db())
        data = encoded_segment("bad", ranked_db(seed=4))
        columns = decode_segment(data).header["columns"]
        columns[0]["name"] = ["scores_array"]
        (root / "segments" / ("bad" + SEGMENT_SUFFIX)).write_bytes(
            with_header(data, columns=columns)
        )

        reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ("good",)
        ((name, reason),) = reopened.recovery.quarantined
        assert name == "bad" + SEGMENT_SUFFIX
        assert "bad column entry" in reason

    def test_shortread_at_open_quarantines(self, tmp_path):
        root = tmp_path / "store"
        SnapshotStore(root).persist("s1", ranked_db())
        plan = FaultPlan([FaultEvent(kind="shortread", step="segment:read")])
        with use_faults(plan):
            reopened = SnapshotStore(root)
        assert reopened.recovery.loaded == ()
        assert len(reopened.recovery.quarantined) == 1

    def test_torn_journal_tail_is_truncated_on_open(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("s-base", ranked_db())
        record = store.journal_clean("s-base", {"k": 5}, "s-out", "hash")
        assert record["base"] == "s-base"
        journal = root / JOURNAL_NAME
        clean_length = journal.stat().st_size
        with open(journal, "ab") as f:
            f.write(encode_journal_record({"kind": "clean"})[:-5])
        reopened = SnapshotStore(root)
        assert reopened.recovery.journal_records == 1
        assert reopened.recovery.journal_truncated_bytes > 0
        assert "torn" in reopened.recovery.journal_truncate_reason
        assert journal.stat().st_size == clean_length
        assert reopened.pending_cleanings()[0]["outcome"] == "s-out"

    def test_status_shape(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("s1", ranked_db())
        store.journal_clean("s1", {"k": 5}, "s-out", "hash")
        status = store.status()
        assert status["snapshots"] == ["s1"]
        assert status["journal_records"] == 1
        assert status["pending_cleanings"] == ["s-out"]
        assert status["quarantined_files"] == []
        assert status["counters"]["psr_store_writes"] == 1
        assert status["recovery"]["loaded"] == []
        json.dumps(status)  # the whole envelope must be serializable

    def test_gc_in_use_callback_is_evaluated_under_the_lock(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
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

    def test_a_string_id_is_refused_not_split_into_letters(self, tmp_path):
        # tuple("snap-abc") would protect eight one-character ids, and
        # GC would tombstone snap-abc itself.
        store = SnapshotStore(tmp_path / "store")
        store.persist("snap-abc", ranked_db())
        with pytest.raises(TypeError, match="pinned"):
            RetentionPolicy(keep_last_n=0, pinned="snap-abc")
        for in_use in ("snap-abc", lambda: "snap-abc"):
            with pytest.raises(TypeError, match="in_use"):
                store.gc(RetentionPolicy(keep_last_n=0), in_use=in_use)
        assert store.snapshot_ids() == ["snap-abc"]
        policy = RetentionPolicy(keep_last_n=0, pinned=["snap-abc"])
        assert store.gc(policy, in_use={"snap-abc"})["tombstoned"] == []


# ---------------------------------------------------------------------------
# Framed (schema-2) decode: every fault is quarantined at open
# ---------------------------------------------------------------------------


def canonical_fragments(db: ProbabilisticDatabase) -> List[bytes]:
    """One ``json.dumps`` per x-tuple entry, as :func:`reference_frames`."""
    return [
        json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")
        for entry in io.database_to_dict(db)["xtuples"]
    ]


def refragmented(
    ranked: RankedDatabase,
    fragments: Sequence[bytes],
    lengths: Optional[Sequence[int]] = None,
    tail: bytes = b"]}",
    snapshot_id: str = "bad",
) -> bytes:
    """A schema-2 segment of ``ranked`` whose structure is the database
    header, ``fragments`` joined by ``,``, then ``tail``, framed by
    ``lengths`` (default: the fragments' own)."""
    structure_json = (
        io.structure_head(ranked.db.name) + b",".join(fragments) + tail
    )
    return encoded_segment(
        snapshot_id,
        ranked,
        structure_json,
        fragment_lengths=[len(f) for f in fragments] if lengths is None else lengths,
        schema=2,
    )


def _relengthed(change) -> Any:
    """Canonical fragments framed by ``change(their lengths)``."""

    def build(ranked: RankedDatabase) -> bytes:
        fragments = canonical_fragments(ranked.db)
        return refragmented(ranked, fragments, change([len(f) for f in fragments]))

    return build


def _replaced_fragment(index: int, fragment) -> Any:
    def build(ranked: RankedDatabase) -> bytes:
        fragments = canonical_fragments(ranked.db)
        fragments[index] = fragment(fragments)
        return refragmented(ranked, fragments)

    return build


def _payload_fault(mutate) -> Any:
    def build(ranked: RankedDatabase) -> bytes:
        payload = io.database_to_dict(ranked.db)
        mutate(payload)
        return framed_segment("bad", payload, ranked)

    return build


def _over_one(payload: Dict[str, Any]) -> None:
    payload["xtuples"][2]["alternatives"][0]["probability"] = 1.5


#: fault -> (faulty segment made from a valid ranked view, reason fragment).
FRAMING_FAULTS = {
    "one_length_short": (
        _relengthed(lambda n: n[:3] + [n[3] - 1] + n[4:]),
        "x-tuple frames cover",
    ),
    "one_length_long": (
        _relengthed(lambda n: n[:3] + [n[3] + 1] + n[4:]),
        "x-tuple frames cover",
    ),
    "one_short_next_long": (
        _relengthed(lambda n: n[:3] + [n[3] - 1, n[4] + 1] + n[5:]),
        "no separator before x-tuple frame #4",
    ),
    "too_few_frames": (_relengthed(lambda n: n[:-1]), "x-tuple frames cover"),
    "too_many_frames": (_relengthed(lambda n: n + [0]), "x-tuple frames cover"),
    "bytes_after_last_fragment": (
        lambda r: refragmented(r, canonical_fragments(r.db), tail=b" ]}"),
        "x-tuple frames cover",
    ),
    "bytes_after_the_structure": (
        lambda r: refragmented(r, canonical_fragments(r.db), tail=b"]}]}"),
        "x-tuple frames cover",
    ),
    "no_closing_after_last_fragment": (
        lambda r: refragmented(r, canonical_fragments(r.db), tail=b"}]"),
        "structure does not end after its last x-tuple frame",
    ),
    "head_is_not_the_database_header": (
        _payload_fault(lambda p: p.update(format="not.a.database")),
        "structure does not start with the database header",
    ),
    "head_names_another_database": (
        _payload_fault(lambda p: p.update(name="another")),
        "structure does not start with the database header",
    ),
    "fragment_is_not_json": (
        _replaced_fragment(2, lambda f: b"{not json}"),
        "structure does not decode",
    ),
    "fragment_fails_validation": (
        _payload_fault(_over_one),
        "probability must lie in (0, 1]",
    ),
    "same_fragment_twice": (
        _replaced_fragment(3, lambda f: f[2]),
        "duplicate x-tuple id",
    ),
    "frame_table_crc": (
        lambda r: with_header(encoded_segment("bad", r, schema=2), frames_crc32=0),
        "frame table CRC mismatch",
    ),
    "frame_count_overstated": (
        lambda r: with_header(
            encoded_segment("bad", r, schema=2), frames=r.db.num_xtuples + 1
        ),
        "frame table CRC mismatch",
    ),
    "frame_count_negative": (
        lambda r: with_header(encoded_segment("bad", r, schema=2), frames=-1),
        "bad frame count",
    ),
    "frame_count_not_an_integer": (
        lambda r: with_header(encoded_segment("bad", r, schema=2), frames=True),
        "bad frame count",
    ),
    "schema_3": (
        lambda r: with_header(encoded_segment("bad", r), schema=3),
        "unknown schema version 3",
    ),
}


#: Faults inside well-framed fragments: the bytes verify at open, and
#: the first use -- which parses the structure -- catches them.
FIRST_USE_FAULTS = {
    "fragment_is_not_json",
    "fragment_fails_validation",
    "same_fragment_twice",
}


class TestFramedDecode:
    @pytest.mark.parametrize("fault", sorted(FRAMING_FAULTS))
    def test_fault_is_quarantined_at_open(self, tmp_path, fault):
        # A framing fault is caught at open; a fault inside intact
        # frames at the snapshot's first use.  Either way the segment
        # is quarantined with its reason and never served.
        build, expected = FRAMING_FAULTS[fault]
        root = tmp_path / "store"
        SnapshotStore(root).persist("good", ranked_db())
        (root / "segments" / ("bad" + SEGMENT_SUFFIX)).write_bytes(
            build(ranked_db(seed=4))
        )

        reopened = SnapshotStore(root)
        name = "bad" + SEGMENT_SUFFIX
        if fault in FIRST_USE_FAULTS:
            assert reopened.recovery.loaded == ("bad", "good")
            assert reopened.recovery.quarantined == ()
            reason = first_use_failure(reopened, "bad")
            assert "segment corrupt: " in reason
        else:
            assert reopened.recovery.loaded == ("good",)
            ((quarantined, reason),) = reopened.recovery.quarantined
            assert quarantined == name
            assert reason.startswith("segment corrupt: ")
        assert expected in reason
        assert (root / "quarantine" / name).exists()
        assert sorted(reopened.snapshots()) == ["good"]

    def test_each_segment_is_validated_on_its_own(self, tmp_path):
        # Two segments carry the same invalid x-tuple: each is
        # validated, and refused, on its own.  The valid x-tuples they
        # share with a good segment serve it as usual.
        root = tmp_path / "store"
        ranked = ranked_db(seed=4)
        SnapshotStore(root).persist("good", ranked)
        payload = io.database_to_dict(ranked.db)
        _over_one(payload)
        for sid in ("bad1", "bad2"):
            (root / "segments" / (sid + SEGMENT_SUFFIX)).write_bytes(
                framed_segment(sid, payload, ranked)
            )

        reopened = SnapshotStore(root)
        assert reopened.recovery.quarantined == ()
        assert sorted(reopened.snapshots()) == ["good"]  # one pass
        assert sorted(os.listdir(root / "quarantine")) == [
            "bad1" + SEGMENT_SUFFIX,
            "bad2" + SEGMENT_SUFFIX,
        ]
        for sid in ("bad1", "bad2"):
            assert "probability must lie in (0, 1]" in first_use_failure(reopened, sid)


# ---------------------------------------------------------------------------
# A rebuild holds columns; objects are built on demand
# ---------------------------------------------------------------------------


def collapse_chain(steps: int) -> List[RankedDatabase]:
    """A base and ``steps`` outcomes, each collapsing one more x-tuple."""
    chain = [ranked_db(num_xtuples=20)]
    for xt in chain[0].db.xtuples[:steps]:
        derived, _ = chain[-1].with_xtuple_replaced(
            xt.xid, xt.collapsed_to(xt.alternatives[0].tid)
        )
        chain.append(derived)
    return chain


class TestColumnarOpen:
    def test_schema_2_chain_rebuilds_in_one_pass(self, tmp_path, monkeypatch):
        # Schema-2 segments, as stores written before schema 4 hold them.
        # An open parses nothing; one pass parses each structure whole,
        # once, and rebuilds it to its header's content hash.
        root = tmp_path / "store"
        chain = collapse_chain(6)
        SnapshotStore(root)
        for index, ranked in enumerate(chain):
            (root / "segments" / f"s{index}{SEGMENT_SUFFIX}").write_bytes(
                encoded_segment(f"s{index}", ranked, schema=2)
            )

        parsed: List[str] = []
        original = store_module.database_from_dict

        def counting(payload):
            parsed.append(payload["name"])
            return original(payload)

        monkeypatch.setattr(store_module, "database_from_dict", counting)
        reopened = SnapshotStore(root)
        assert reopened.recovery.quarantined == ()
        assert parsed == []  # an open parses nothing
        views = reopened.snapshots()  # one pass rebuilds every snapshot
        assert len(parsed) == len(chain)
        for index, ranked in enumerate(chain):
            header = segment_header(root / "segments" / f"s{index}{SEGMENT_SUFFIX}")
            assert header["schema"] == 2
            assert views[f"s{index}"].db.content_hash() == header["content_hash"]
            assert header["content_hash"] == reference_content_hash(ranked.db)

    def test_open_and_first_answer_leave_no_objects_alive(self, tmp_path):
        # A store-reopen-shaped store: the open rebuilds a full base
        # and its deltas, replays two crashed cleanings and answers a
        # query, all on columns.
        newest = build_crashed_store(tmp_path / "store", num_xtuples=60)
        gc.collect()
        before = live_objects()
        service = open_service(tmp_path / "store")
        service.query(newest, QuerySpec(k=10))
        gc.collect()
        assert live_objects() == before
        assert service.store.counters()["psr_store_replays"] == 2

    @pytest.mark.parametrize("kind", ["synthetic", "mov"])
    def test_on_demand_objects_equal_ingest(self, tmp_path, kind):
        if kind == "mov":
            db = generate_mov(num_xtuples=12, seed=5, incomplete_fraction=0.3)
            ranking = mov_ranking()
        else:
            db = generate_synthetic(num_xtuples=12, seed=5, completion=0.8)
            ranking = by_value()
        store = SnapshotStore(tmp_path / "store")
        base = RankedDatabase(db, ranking)
        xt = db.xtuples[1]
        outcome = base.with_change_set({xt.xid: xt.tids[-1], db.xtuples[4].xid: None})
        store.persist("base", base)
        store.persist("outcome", outcome)  # full: no base given
        reopened = SnapshotStore(tmp_path / "store")
        for sid, view in (("base", base), ("outcome", outcome)):
            loaded = reopened.load(sid)
            # Each segment names its rule, and a rule is one callable.
            assert loaded.ranking.score is ranking.score
            ingested = io.database_from_dict(io.database_to_dict(loaded.db))
            assert loaded.db.xtuples == ingested.xtuples == view.db.xtuples
            assert repr(loaded.db.xtuples) == repr(ingested.xtuples)
            assert list(loaded.db) == list(ingested)
            assert loaded.order == RankedDatabase(ingested, ranking).order
            for l, other in enumerate(ingested.xtuples):
                assert loaded.db.xtuple(other.xid) is loaded.db.xtuples[l]
                for t in other:
                    assert loaded.db.tuple(t.tid) == t
            again = pickle.loads(pickle.dumps(loaded.db))
            assert again.xtuples == ingested.xtuples
            assert again.content_hash() == ingested.content_hash()


def live_objects() -> Tuple[int, int]:
    """How many ``XTuple`` and ``ProbabilisticTuple`` objects are alive."""
    objects = gc.get_objects()
    return (
        sum(1 for o in objects if type(o) is XTuple),
        sum(1 for o in objects if type(o) is ProbabilisticTuple),
    )


# ---------------------------------------------------------------------------
# Schema 1 and schema 2 in one store
# ---------------------------------------------------------------------------


class TestMixedSchemaStore:
    @pytest.mark.parametrize("name", FIXTURE_STORES)
    def test_v1_fixture_under_v2_outcomes_opens_and_replays(self, tmp_path, name):
        root = tmp_path / name
        shutil.copytree(FIXTURES / name, root)
        (record,) = SnapshotStore(root, mode="readonly").pending_cleanings()
        spec = record["spec"]
        # The first open replays the fixture's cleaning and persists
        # its outcome, a delta segment (schema 3) on the schema-1 base;
        # one more durable clean on top then "crashes" before its
        # segment lands.
        service = TopKService(store_dir=root)
        for seed in range(10):
            result = service.clean(
                record["outcome"],
                CleaningSpec(
                    k=spec["k"], budget=spec["budget"], planner=spec["planner"],
                    adaptive=spec["adaptive"], seed=seed,
                ),
            )
            newest = result.payload["new_snapshot_id"]
            if newest != record["outcome"]:
                break
        else:
            pytest.fail("no cleaning changed the replayed outcome")
        newest_hash = service.pool.database(newest).content_hash()
        (root / "segments" / (newest + SEGMENT_SUFFIX)).unlink()

        service = TopKService(store_dir=root)  # replays from a v2 base
        store = service.store
        assert store.recovery.quarantined == ()
        assert store.pending_cleanings() == []
        schemas = {
            sid: segment_header(root / "segments" / (sid + SEGMENT_SUFFIX))["schema"]
            for sid in store.snapshots()
        }
        assert schemas == {record["base"]: 1, record["outcome"]: 3, newest: 3}
        assert service.pool.database(newest).content_hash() == newest_hash
        outcome = service.pool.database(record["outcome"])
        assert outcome.content_hash() == record["outcome_hash"]


# ---------------------------------------------------------------------------
# The checkpoint's segment check
# ---------------------------------------------------------------------------


@pytest.fixture
def structure_loads(monkeypatch):
    """Records every ``json.loads`` whose input is a whole structure
    JSON or a column table (it starts like one); everything else parses
    as usual."""
    calls: List[bytes] = []
    original = json.loads

    def loads(data, *args, **kwargs):
        if isinstance(data, (bytes, bytearray)) and bytes(data).startswith(
            (b'{"format":"repro.probabilistic_database"', b"[")
        ):
            calls.append(bytes(data))
        return original(data, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    return calls


def journaled_outcome(store: SnapshotStore, ranked: RankedDatabase) -> None:
    """Persist a base, then journal and persist ``ranked`` as its
    cleaning outcome "s1"."""
    store.persist("base", ranked_db(seed=4))
    store.journal_clean("base", {"k": 5}, "s1", ranked.db.content_hash())
    store.persist("s1", ranked)


class TestCheckpointVerification:
    def test_held_outcome_is_dropped_without_a_parse(self, tmp_path, structure_loads):
        store = SnapshotStore(tmp_path / "store")
        journaled_outcome(store, ranked_db())
        report = store.checkpoint()
        assert report["dropped"] == 1 and report["records_after"] == 0
        assert structure_loads == []

    def test_held_schema4_outcome_is_dropped_without_a_parse(
        self, tmp_path, structure_loads
    ):
        # The held outcome's file rewritten as schema 4, as a writer
        # before schema 5 wrote it: its content hash names the held
        # snapshot, so its id tables are not parsed.
        root = tmp_path / "store"
        store = SnapshotStore(root)
        ranked = ranked_db()
        journaled_outcome(store, ranked)
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(encoded_segment("s1", ranked, schema=4))
        report = store.checkpoint()
        assert report["dropped"] == 1
        assert structure_loads == []

    def test_outcome_another_handle_wrote_is_parsed(self, tmp_path, structure_loads):
        # A schema-4 outcome (as a writer before schema 5 left it): its
        # id tables are parsed.
        root = tmp_path / "store"
        writer = SnapshotStore(root)
        checker = SnapshotStore(root)
        ranked = ranked_db()
        journaled_outcome(writer, ranked)
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(encoded_segment("s1", ranked, schema=4))
        assert not checker.has_segment("s1")
        report = checker.checkpoint()
        assert report["dropped"] == 1
        columns = reference_columns(io.database_to_dict(ranked.db))
        assert structure_loads == [columns["xids"][1], columns["tids"][1]]

    @pytest.mark.parametrize("forged", [False, True])
    def test_outcome_another_handle_wrote_is_hashed(
        self, tmp_path, structure_loads, monkeypatch, forged
    ):
        # A schema-5 outcome: its records are hashed against its content
        # hash, not parsed.  Records that do not hash to it (every
        # other byte verifies) keep the record.
        root = tmp_path / "store"
        writer = SnapshotStore(root)
        checker = SnapshotStore(root)
        ranked = ranked_db()
        journaled_outcome(writer, ranked)
        if forged:
            path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
            other = reference_records(io.database_to_dict(ranked_db(seed=5).db))
            path.write_bytes(encoded_segment("s1", ranked, records=other))
        hashed: List[bytes] = []
        sha256 = hashlib.sha256

        def hashing(data=b""):
            hashed.append(bytes(data))
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", hashing)
        report = checker.checkpoint()
        assert report["dropped"] == (0 if forged else 1)
        assert structure_loads == []
        records = decode_segment(
            (root / "segments" / ("s1" + SEGMENT_SUFFIX)).read_bytes()
        ).columns["records"]
        assert records in hashed

    @pytest.mark.parametrize("parses", [True, False])
    def test_held_outcome_with_other_bytes_is_parsed(
        self, tmp_path, structure_loads, parses
    ):
        # Same id, same snapshot, but the structure on disk is not the
        # held canonical encoding: whitespace after one fragment (still
        # JSON), or a fragment that is not JSON at all.
        root = tmp_path / "store"
        store = SnapshotStore(root)
        ranked = ranked_db()
        journaled_outcome(store, ranked)
        fragments = canonical_fragments(ranked.db)
        fragments[0] = fragments[0] + b" " if parses else b"{not json}"
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(refragmented(ranked, fragments, snapshot_id="s1"))
        report = store.checkpoint()
        assert report["dropped"] == (1 if parses else 0)
        assert len(structure_loads) == 1
        assert structure_loads[0] != reference_structure_json(ranked.db)

    def test_bit_flipped_outcome_keeps_its_record(self, tmp_path, structure_loads):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        journaled_outcome(store, ranked_db())
        path = root / "segments" / ("s1" + SEGMENT_SUFFIX)
        path.write_bytes(flip_one_bit(path.read_bytes()))
        report = store.checkpoint()
        assert report["dropped"] == 0 and report["records_after"] == 1
        assert store.journal_records()[0]["outcome"] == "s1"


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
