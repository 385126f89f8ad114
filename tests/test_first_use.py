"""An open checks bytes; a snapshot's first use rebuilds and checks it.

Opening a store reads every segment file and checks its framing, CRCs,
whole-file digest and header id, quarantining a byte-level fault at
once.  The semantic checks -- the content hash of a schema-5 segment's
records, the ids, sizes, probabilities and masses of the columns they
parse into (or of a schema-4 segment's typed columns), a cold re-rank
against the stored ranked columns, a delta's splice -- run when a
snapshot is first used: a lease, a replay's base, ``persist``'s base
check, ``snapshots()`` or ``repro store verify``.  A failure there
quarantines the segment (an exclusive handle) or only refuses it (a
read-only one), and the snapshot is never served.

The records parse two ways, a float parse when they are plain and one
``json.loads`` per record otherwise; on records JSON reads, both must
give the same columns, bit for bit, with the same Python types and the
same content hash.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pool import SessionPool, snapshot_id_of
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec
from repro.cli import main
from repro.core import lockcheck
from repro.datasets.synthetic import generate_synthetic
from repro.db import io
from repro.db.database import (
    CANONICAL_COLUMNS,
    ProbabilisticDatabase,
    RankedDatabase,
    change_set,
    column_array,
    object_array,
)
from repro.db.ranking import by_value, ranking_descriptor
from repro.db.tuples import make_xtuple
from repro.exceptions import CorruptSnapshotError
from repro.store import SEGMENT_SUFFIX, SnapshotStore
from repro.store.format import (
    MAGIC,
    SCHEMA4_COLUMNS,
    SEGMENT_COLUMNS,
    encode_segment,
)
from repro.testing import flip_one_bit

from reference_encoding import ENCODING_CASES, reference_columns, reference_v4_segment
from strategies import databases

Columns = Dict[str, Tuple[str, bytes]]


def ranked_db(seed: int = 3, num_xtuples: int = 12) -> RankedDatabase:
    return RankedDatabase(
        generate_synthetic(num_xtuples=num_xtuples, seed=seed, completion=0.9),
        by_value(),
    )


def ranked_columns(ranked: RankedDatabase) -> Columns:
    """The ranked view's five canonical columns, as a segment holds them."""
    return {
        name: (
            getattr(ranked, name).dtype.str,
            np.ascontiguousarray(getattr(ranked, name)).tobytes(),
        )
        for name in CANONICAL_COLUMNS
    }


def segment_columns(ranked: RankedDatabase) -> Columns:
    """The ten columns a schema-4 segment of ``ranked`` holds."""
    return {
        **reference_columns(io.database_to_dict(ranked.db)),
        **ranked_columns(ranked),
    }


def encoded(snapshot_id: str, ranked: RankedDatabase, columns: Columns) -> bytes:
    """A schema-4 segment of ``columns`` whose CRCs and digest verify."""
    return reference_v4_segment(
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
    """A store holding a good snapshot and a "bad" schema-4 one whose
    columns carry ``fault``, re-framed with valid CRCs and digest."""
    SnapshotStore(root).persist("good", ranked_db())
    ranked = ranked_db(seed=4)
    columns = segment_columns(ranked)
    change, _ = COLUMN_FAULTS[fault]
    change(columns)
    (root / "segments" / ("bad" + SEGMENT_SUFFIX)).write_bytes(
        encoded("bad", ranked, columns)
    )


def assert_first_use_quarantines(root: Path, reason: str) -> None:
    """The "bad" snapshot's bytes verify at open; its first use raises
    with ``reason`` and quarantines it, and "good" is served."""
    reopened = SnapshotStore(root)
    # Every byte verifies: the open indexes the segment.
    assert reopened.recovery.loaded == ("bad", "good")
    assert reopened.recovery.quarantined == ()
    with pytest.raises(CorruptSnapshotError) as failure:
        reopened.load("bad")
    assert reason in str(failure.value)
    assert (root / "quarantine" / ("bad" + SEGMENT_SUFFIX)).exists()
    assert not (root / "segments" / ("bad" + SEGMENT_SUFFIX)).exists()
    with pytest.raises(CorruptSnapshotError):
        reopened.load("bad")
    assert sorted(reopened.snapshots()) == ["good"]
    assert reopened.snapshot_ids() == ["good"]


def assert_read_only_refuses(root: Path, reason: str) -> None:
    """A read-only pool refuses "bad" with ``reason``, moves nothing
    and serves "good"."""
    pool = SessionPool(store=SnapshotStore(root, mode="readonly"))
    with pytest.raises(CorruptSnapshotError, match=re.escape(reason)):
        pool.ranked("bad")
    assert "bad" not in pool
    assert (root / "segments" / ("bad" + SEGMENT_SUFFIX)).exists()
    assert os.listdir(root / "quarantine") == []
    assert sorted(pool.store.snapshots()) == ["good"]


class TestColumnarCorruption:
    """Schema 4: faults in the typed structure columns."""

    @pytest.mark.parametrize("fault", sorted(COLUMN_FAULTS))
    def test_first_use_quarantines_and_never_serves(self, tmp_path, fault):
        root = tmp_path / "store"
        store_with_fault(root, fault)
        assert_first_use_quarantines(root, COLUMN_FAULTS[fault][1])

    @pytest.mark.parametrize("fault", sorted(COLUMN_FAULTS))
    def test_read_only_handle_refuses_and_moves_nothing(self, tmp_path, fault):
        root = tmp_path / "store"
        store_with_fault(root, fault)
        assert_read_only_refuses(root, COLUMN_FAULTS[fault][1])

    @pytest.mark.parametrize("column", SCHEMA4_COLUMNS)
    @pytest.mark.parametrize("redigest", [False, True], ids=["digest", "crc"])
    def test_a_bit_flip_in_any_column_is_quarantined_at_open(
        self, tmp_path, column, redigest
    ):
        ranked = ranked_db(seed=4)
        assert_bit_flip_quarantined_at_open(
            tmp_path, encoded("bad", ranked, segment_columns(ranked)), column, redigest
        )


def assert_bit_flip_quarantined_at_open(
    tmp_path: Path, segment: bytes, column: str, redigest: bool
) -> None:
    """``segment`` (snapshot "bad") with one bit of ``column`` flipped,
    and with the digest recomputed if ``redigest``, is quarantined at
    open with the reason of the check that catches it."""
    root = tmp_path / "store"
    SnapshotStore(root).persist("good", ranked_db())
    data = bytearray(segment)
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


# ---------------------------------------------------------------------------
# Schema 5: the records
# ---------------------------------------------------------------------------


def _dumps(item: Any) -> bytes:
    return json.dumps(item, sort_keys=True, separators=(",", ":")).encode()


def parsed_records(db: ProbabilisticDatabase) -> List[Any]:
    """``db``'s records, each parsed: ``[xid, [[tid, value, p], ...]]``."""
    return [json.loads(record[:-1]) for record in db.content_records()]


def joined(records: List[Any]) -> bytes:
    """A records column of ``records``: each one's canonical JSON (or
    the bytes themselves) and a NUL."""
    return b"".join(
        (record if isinstance(record, bytes) else _dumps(record)) + b"\0"
        for record in records
    )


def record_rows(records: List[Any]) -> List[List[Any]]:
    """Every row of ``records``, in order (the lists themselves)."""
    return [row for record in records for row in record[1]]


RecordChange = Callable[[List[Any], Columns], None]


def _row_probability(value: Any) -> RecordChange:
    def change(records: List[Any], columns: Columns) -> None:
        record_rows(records)[3][2] = value

    return change


def _record_mass_above_one(records: List[Any], columns: Columns) -> None:
    rows = next(record[1] for record in records if len(record[1]) >= 2)
    for row in rows:
        row[2] = (1.0 + 2e-9) / len(rows)


def _record_field(
    index: int, field: int, value: Callable[[List[Any]], Any]
) -> RecordChange:
    def change(records: List[Any], columns: Columns) -> None:
        records[index][field] = value(records)

    return change


def _last_tid_is_the_first(records: List[Any], columns: Columns) -> None:
    rows = record_rows(records)
    rows[-1][0] = rows[0][0]


def _record_without_rows(records: List[Any], columns: Columns) -> None:
    records[1][1] = records[0][1] + records[1][1]
    records[0][1] = []


def _no_record_has_rows(records: List[Any], columns: Columns) -> None:
    for record in records:
        record[1] = []


def _record(index: int, replacement: Any) -> RecordChange:
    def change(records: List[Any], columns: Columns) -> None:
        records[index] = replacement(records[index])

    return change


def _value_changed(records: List[Any], columns: Columns) -> None:
    record_rows(records)[0][1] += 1.0


def _number_outside_its_slot(records: List[Any], columns: Columns) -> None:
    # ["x"V,[["t",,P],...]]: every number-free byte where canonical JSON
    # puts it, the value moved out of its slot.
    xid, rows = records[0]
    tid, value, probability = rows[0]
    rest = b"".join(b"," + _dumps(row) for row in rows[1:])
    records[0] = (
        b"[" + _dumps(xid) + _dumps(value) + b",[[" + _dumps(tid) + b",,"
        + _dumps(probability) + b"]" + rest + b"]]"
    )


def _number_outside_any_slot(records: List[Any], columns: Columns) -> None:
    # ["x"5.0,[...]]: one number more than the rows have slots for.
    records[0] = b"[" + _dumps(records[0][0]) + b"5.0," + _dumps(records[0][1]) + b"]"


def _raw_control_byte(records: List[Any], columns: Columns) -> None:
    # JSON escapes a control character; a raw one is not JSON.
    records[1] = _dumps(records[1]).replace(b'",', b'\x01",', 1)


#: fault -> (change to a valid schema-5 segment's records and ranked
#: columns, the check it fails, whether the header's content hash is
#: re-cut from the changed records).  Every COLUMN_FAULTS fault but
#: sizes that miss the tuple count (the records hold no sizes) is here,
#: with the reason it has in a schema-4 segment.
RECORD_FAULTS: Dict[str, Tuple[RecordChange, str, bool]] = {
    **{
        fault: (change, COLUMN_FAULTS[fault][1], True)
        for fault, change in (
            ("nan_probability", _row_probability(math.nan)),
            ("zero_probability", _row_probability(0.0)),
            ("probability_above_one", _row_probability(1.5)),
            ("bool_probability_in_json", _row_probability(True)),
            ("mass_above_one", _record_mass_above_one),
            ("duplicate_xtuple_id", _record_field(1, 0, lambda records: records[0][0])),
            ("tuple_id_in_two_xtuples", _last_tid_is_the_first),
            ("empty_id", _record_field(2, 0, lambda records: "")),
            ("zero_size", _record_without_rows),
            (
                "ranked_column_one_ulp_off",
                lambda records, columns: _ranked_one_ulp_off(columns),
            ),
        )
    },
    # An int is read as an int, as JSON reads it, not as a float: the
    # reason quotes 2, not 2.0.
    "int_literal_where_a_float_was": (
        _row_probability(2), "probability must lie in (0, 1], got 2)", True
    ),
    # No row to parse at all: refused as an x-tuple without alternatives,
    # not as a tuple id.
    "no_record_has_rows": (_no_record_has_rows, "has no alternatives", True),
    "record_is_not_xid_and_rows": (
        _record(1, lambda record: [record[0]]),
        "record #1 is not [xid, [[tid, value, probability], ...]]",
        True,
    ),
    "record_is_not_json": (
        _record(2, lambda record: b'["x",[["t",1.0,0.5]]'),
        "record #2 is not valid JSON",
        True,
    ),
    "number_outside_its_slot": (
        _number_outside_its_slot, "record #0 is not valid JSON", True
    ),
    "number_outside_any_slot": (
        _number_outside_any_slot, "record #0 is not valid JSON", True
    ),
    "raw_control_byte_in_an_id": (
        _raw_control_byte, "record #1 is not valid JSON", True
    ),
    "records_do_not_hash_to_the_header": (
        _value_changed, "content hash of the records does not match the header", False
    ),
}


def records_segment(
    snapshot_id: str,
    ranked: RankedDatabase,
    records: bytes,
    columns: Columns,
    content_hash: str,
) -> bytes:
    """A schema-5 segment of ``records`` and ranked ``columns`` whose
    CRCs and digest verify."""
    return encode_segment(
        snapshot_id=snapshot_id,
        content_hash=content_hash,
        name=ranked.db.name,
        ranking=ranking_descriptor(ranked.ranking),
        columns={"records": ("records", records), **columns},
    )


def store_with_record_fault(root: Path, fault: str) -> None:
    """A store holding a good snapshot and a "bad" schema-5 one whose
    records or ranked columns carry ``fault``, re-framed with valid
    CRCs and digest."""
    SnapshotStore(root).persist("good", ranked_db())
    ranked = ranked_db(seed=4)
    records, columns = parsed_records(ranked.db), ranked_columns(ranked)
    change, _, rehash = RECORD_FAULTS[fault]
    change(records, columns)
    blob = joined(records)
    content_hash = (
        hashlib.sha256(blob).hexdigest() if rehash else ranked.db.content_hash()
    )
    (root / "segments" / ("bad" + SEGMENT_SUFFIX)).write_bytes(
        records_segment("bad", ranked, blob, columns, content_hash)
    )


class TestRecordCorruption:
    """Schema 5: faults in the records (re-hashed, so that only the
    parse and its checks can catch them) and in the ranked columns."""

    def test_every_column_fault_records_can_hold_is_covered(self):
        assert set(COLUMN_FAULTS) - set(RECORD_FAULTS) == {"sizes_miss_the_tuple_count"}

    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    def test_first_use_quarantines_and_never_serves(self, tmp_path, fault):
        root = tmp_path / "store"
        store_with_record_fault(root, fault)
        assert_first_use_quarantines(root, RECORD_FAULTS[fault][1])

    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    def test_read_only_handle_refuses_and_moves_nothing(self, tmp_path, fault):
        root = tmp_path / "store"
        store_with_record_fault(root, fault)
        assert_read_only_refuses(root, RECORD_FAULTS[fault][1])

    @pytest.mark.parametrize("column", SEGMENT_COLUMNS)
    @pytest.mark.parametrize("redigest", [False, True], ids=["digest", "crc"])
    def test_a_bit_flip_in_any_column_is_quarantined_at_open(
        self, tmp_path, column, redigest
    ):
        ranked = ranked_db(seed=4)
        segment = records_segment(
            "bad",
            ranked,
            b"".join(ranked.db.content_records()),
            ranked_columns(ranked),
            ranked.db.content_hash(),
        )
        assert_bit_flip_quarantined_at_open(tmp_path, segment, column, redigest)


def both_parses(db: ProbabilisticDatabase) -> Tuple[bytes, Any, Any]:
    """``db``'s records, their float parse (``None`` when they are not
    plain) and their JSON parse."""
    blob = b"".join(db.content_records())
    pieces = blob.split(b"\0")[:-1]
    return blob, io._float_records(blob, pieces), io._json_records(pieces)


def hash_of_columns(name: str, parsed: Any) -> str:
    """The content hash of a database holding ``parsed``'s columns,
    its records formatted from them afresh."""
    xids, tids, sizes, values, probabilities = parsed
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    columns = [
        column if isinstance(column, np.ndarray) else column_array(column)
        for column in (values, probabilities)
    ]
    return ProbabilisticDatabase._from_columns(
        name, list(xids), object_array(tids), columns[0], columns[1], offsets
    ).content_hash()


def assert_parses_agree(db: ProbabilisticDatabase) -> None:
    """The float parse and the JSON parse of ``db``'s plain records give
    the same columns bit for bit, with the same Python types, and both
    format back to the records' content hash."""
    blob, fast, slow = both_parses(db)
    assert fast is not None, "plain records took the JSON parse"
    for got, want in zip(fast[:2], slow[:2]):
        assert got == want and set(map(type, got)) <= {str}
    assert fast[2].dtype == slow[2].dtype == np.int64
    assert fast[2].tolist() == slow[2].tolist()
    for got, want in zip(fast[3:], slow[3:]):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert set(map(type, want)) <= {float}
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    digest = hashlib.sha256(blob).hexdigest()
    assert hash_of_columns(db.name, fast) == hash_of_columns(db.name, slow) == digest
    assert digest == db.content_hash()


#: Values whose reprs cover every shape a float takes: signed zeros,
#: exponents with and without a fraction, subnormals, the largest.
EDGE_FLOATS = (
    -0.0, 0.0, 1e-05, 1.5e-07, 1e16, 1e22, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -123456789.123, 0.30000000000000004,
)


def edge_float_database() -> ProbabilisticDatabase:
    return ProbabilisticDatabase(
        [
            make_xtuple(f"x{i}", [(f"t{i}", value, min(1.0, 1e-300 + i / 11))])
            for i, value in enumerate(EDGE_FLOATS)
        ],
        name="edges",
    )


#: Plain ids made of the bytes a record's structure and numbers are
#: spelled with: brackets, commas, digits, signs, exponent letters.
EDGE_IDS = ("[", "]]]", ",[[", "a,b", "1.5e-05", " ", "x y", "}{:", "-0.0", "''")


def edge_id_database() -> ProbabilisticDatabase:
    return ProbabilisticDatabase(
        [
            make_xtuple(f"x{ident}", [(f"t{ident}", 1.0 + i, 0.5), (ident, 0.5, 0.25)])
            for i, ident in enumerate(EDGE_IDS)
        ],
        name="ids",
    )


@st.composite
def float_databases(draw) -> ProbabilisticDatabase:
    """One-row x-tuples with any finite float value and probability."""
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8
        )
    )
    probabilities = draw(
        st.lists(
            st.floats(min_value=5e-324, max_value=1.0),
            min_size=len(values),
            max_size=len(values),
        )
    )
    return ProbabilisticDatabase(
        [
            make_xtuple(f"x{i}", [(f"t{i}", value, p)])
            for i, (value, p) in enumerate(zip(values, probabilities))
        ],
        name="floats",
    )


class TestRecordParse:
    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_encoding_cases_parse_alike(self, name):
        db = ENCODING_CASES[name][0]()
        blob, fast, slow = both_parses(db)
        if name in ("mov", "non_ascii"):  # mappings, escaped strings
            assert fast is None
            assert hash_of_columns(db.name, slow) == db.content_hash()
        else:
            assert_parses_agree(db)

    def test_edge_floats_parse_alike(self):
        db = edge_float_database()
        assert_parses_agree(db)
        _, fast, _ = both_parses(db)
        assert np.signbit(fast[3][0]) and not np.signbit(fast[3][1])

    def test_ids_made_of_structure_bytes_parse_alike(self):
        assert_parses_agree(edge_id_database())

    def test_escaped_ids_take_the_json_parse(self):
        ids = ('q"uote', "back\\slash", "new\nline", "ünï", "\x7f")
        db = ProbabilisticDatabase(
            [
                make_xtuple(f"x{ident}", [(f"t{ident}", 1.0 + i, 0.5)])
                for i, ident in enumerate(ids)
            ]
        )
        blob, fast, slow = both_parses(db)
        assert b"\\" in blob and fast is None
        assert slow[0] == db.xids and slow[1] == db.tids.tolist()
        assert hash_of_columns(db.name, slow) == db.content_hash()

    @settings(max_examples=40)
    @given(databases(max_xtuples=6, max_alternatives=4))
    def test_random_databases_parse_alike(self, db):
        assert_parses_agree(db)

    @settings(max_examples=40)
    @given(float_databases())
    def test_random_floats_parse_alike(self, db):
        assert_parses_agree(db)

    @settings(max_examples=20)
    @given(databases(values="int"))
    def test_ints_take_the_json_parse(self, db):
        blob, fast, slow = both_parses(db)
        assert fast is None
        assert {type(v) for v in slow[3]} == {int}
        assert hash_of_columns(db.name, slow) == db.content_hash()

    def test_the_parse_is_chosen_from_the_records(self, monkeypatch):
        plain = ENCODING_CASES["synthetic_incomplete"][0]()
        mov = ENCODING_CASES["mov"][0]()
        taken: List[str] = []
        json_records = io._json_records

        def recording(pieces):
            taken.append("json")
            return json_records(pieces)

        monkeypatch.setattr(io, "_json_records", recording)
        for db in (plain, mov):
            records = b"".join(db.content_records())
            rebuilt = io.database_from_records(
                db.name, records, hashlib.sha256(records).hexdigest()
            )
            assert rebuilt.content_records() == db.content_records()
        assert taken == ["json"]  # the MOV database's mappings only


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
