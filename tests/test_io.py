"""Round-trip tests for database serialization (repro.db.io)."""

import json

import pytest
from hypothesis import given, settings

from repro.db import io
from repro.db.database import ProbabilisticDatabase, hash_record, hash_records
from repro.db.tuples import make_xtuple

from reference_encoding import (
    ENCODING_CASES,
    reference_columns,
    reference_content_hash,
    reference_frames,
    reference_structure_json,
)
from strategies import databases


def _assert_equal_databases(a: ProbabilisticDatabase, b: ProbabilisticDatabase):
    assert a.num_xtuples == b.num_xtuples
    assert a.num_tuples == b.num_tuples
    for xa, xb in zip(a.xtuples, b.xtuples):
        assert xa.xid == xb.xid
        assert len(xa) == len(xb)
        for ta, tb in zip(xa.alternatives, xb.alternatives):
            assert ta.tid == tb.tid
            assert ta.value == tb.value
            assert ta.probability == tb.probability


class TestDictRoundTrip:
    def test_udb1(self, udb1):
        payload = io.database_to_dict(udb1)
        restored = io.database_from_dict(payload)
        _assert_equal_databases(udb1, restored)
        assert restored.name == "udb1"

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            io.database_from_dict({"format": "something-else"})

    @settings(max_examples=25)
    @given(databases())
    def test_random_databases(self, db):
        _assert_equal_databases(db, io.database_from_dict(io.database_to_dict(db)))


class TestStructureJson:
    """A schema-1 or -2 segment's structure JSON reads back through
    ingest, as a rebuild reads it."""

    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_matches_reference_encoder(self, name):
        # The head a schema-2 frame table tiles the rest after
        # (repro.store.format checks it byte for byte), for every name.
        db = ENCODING_CASES[name][0]()
        structure, lengths = reference_frames(io.database_to_dict(db))
        assert structure == reference_structure_json(db)
        head = io.structure_head(db.name)
        assert structure.startswith(head)
        assert len(head) + sum(lengths) + len(lengths) - 1 + 2 == len(structure)

    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_round_trips_with_the_same_hash(self, name):
        db = ENCODING_CASES[name][0]()
        restored = io.database_from_dict(json.loads(reference_structure_json(db)))
        _assert_equal_databases(db, restored)
        assert restored.name == db.name
        assert restored.content_hash() == reference_content_hash(db)
        assert reference_structure_json(restored) == reference_structure_json(db)

    @settings(max_examples=25)
    @given(databases())
    def test_random_databases_match_reference(self, db):
        restored = io.database_from_dict(json.loads(reference_structure_json(db)))
        _assert_equal_databases(db, restored)
        assert db.content_hash() == reference_content_hash(db)
        assert restored.content_hash() == reference_content_hash(db)

    def test_empty_database(self):
        db = ProbabilisticDatabase([], name="")
        restored = io.database_from_dict(json.loads(reference_structure_json(db)))
        assert restored.num_xtuples == 0
        assert restored.content_hash() == db.content_hash()


class TestColumns:
    """A columnar segment's structure columns, written from the
    x-tuples' memos and read back with the checks ingest makes."""

    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_round_trips_with_the_same_hash(self, name):
        db = ENCODING_CASES[name][0]()
        columns = io.encode_structure(db)
        assert columns == reference_columns(io.database_to_dict(db))
        restored = io.database_from_columns(db.name, columns)
        _assert_equal_databases(db, restored)
        assert restored.name == db.name
        assert restored.content_hash() == reference_content_hash(db)

    @settings(max_examples=25)
    @given(databases())
    def test_random_databases_round_trip(self, db):
        restored = io.database_from_columns(db.name, io.encode_structure(db))
        _assert_equal_databases(db, restored)
        assert restored.content_hash() == reference_content_hash(db)

    def test_an_int_probability_keeps_its_hash_record(self):
        # Its record holds 1, not 1.0, so the column falls back to JSON.
        db = ProbabilisticDatabase(
            [make_xtuple("x1", [("t1", 2.5, 1)]), make_xtuple("x2", [("t2", 1.5, 0.5)])]
        )
        columns = io.encode_structure(db)
        assert columns["probabilities"] == ("json", b"[1,0.5]")
        assert columns["values"][0] == "<f8"
        restored = io.database_from_columns("", columns)
        assert type(restored.xtuple("x1").alternatives[0].probability) is int
        assert restored.content_hash() == reference_content_hash(db)

    def test_assembled_records_match_json(self):
        xids = ["Straße-1", "Ω", 'x"q\\', "日本"]
        tids = ["tü1", "t☃", "a\nb", 't"4', "t5", "t6", "t7"]
        values = [1e22, -0.0, 5e-324, 0.1, 1.0, 123456789.123, 2.5]
        probabilities = [0.5, 0.25, 1.0, 1e-300, 0.3, 0.7, 0.0001]
        starts = [0, 2, 3, 5, 7]
        expected = [
            hash_record(x, list(zip(tids[a:b], values[a:b], probabilities[a:b])))
            for x, a, b in zip(xids, starts, starts[1:])
        ]
        assert hash_records(xids, tids, values, probabilities, starts) == expected
        values[3] = float("nan")  # not JSON's spelling: the per-x-tuple path
        expected[2] = hash_record(
            xids[2], list(zip(tids[3:5], values[3:5], probabilities[3:5]))
        )
        assert hash_records(xids, tids, values, probabilities, starts) == expected


class TestJsonRoundTrip:
    def test_udb1(self, udb1, tmp_path):
        path = tmp_path / "udb1.json"
        io.save_json(udb1, path)
        restored = io.load_json(path)
        _assert_equal_databases(udb1, restored)

    def test_mapping_values(self, tmp_path):
        db = ProbabilisticDatabase(
            [
                make_xtuple(
                    "m1",
                    [("a", {"date": 0.5, "rating": 0.75}, 0.6)],
                )
            ]
        )
        path = tmp_path / "mov.json"
        io.save_json(db, path)
        restored = io.load_json(path)
        assert restored.tuple("a").value == {"date": 0.5, "rating": 0.75}


class TestCsvRoundTrip:
    def test_udb1(self, udb1, tmp_path):
        path = tmp_path / "udb1.csv"
        io.save_csv(udb1, path)
        restored = io.load_csv(path, name="udb1")
        _assert_equal_databases(udb1, restored)

    def test_probability_precision_survives(self, tmp_path):
        p = 1.0 / 3.0
        db = ProbabilisticDatabase([make_xtuple("x", [("t", 1.0, p)])])
        path = tmp_path / "p.csv"
        io.save_csv(db, path)
        assert io.load_csv(path).tuple("t").probability == p

    def test_mapping_values(self, tmp_path):
        db = ProbabilisticDatabase(
            [make_xtuple("m1", [("a", {"date": 0.5, "rating": 1.0}, 0.6)])]
        )
        path = tmp_path / "mov.csv"
        io.save_csv(db, path)
        restored = io.load_csv(path)
        assert restored.tuple("a").value == {"date": 0.5, "rating": 1.0}

    def test_grouping_preserves_xtuple_membership(self, udb2, tmp_path):
        path = tmp_path / "udb2.csv"
        io.save_csv(udb2, path)
        restored = io.load_csv(path)
        assert restored.xtuple("S3").alternatives[0].tid == "t5"
        assert restored.num_xtuples == 4
