"""Round-trip tests for database serialization (repro.db.io)."""

import json

import pytest
from hypothesis import given, settings

from repro.db import io
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import make_xtuple

from reference_encoding import (
    ENCODING_CASES,
    reference_content_hash,
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
    """The segment structure bytes, assembled from per-x-tuple fragments."""

    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_matches_reference_encoder(self, name):
        db = ENCODING_CASES[name][0]()
        expected = reference_structure_json(db)
        assert io.database_structure_json(db) == expected  # cold memo
        assert io.database_structure_json(db) == expected  # filled memo
        renamed = ProbabilisticDatabase(db.xtuples, name="renamed ☃")
        assert io.database_structure_json(renamed) == reference_structure_json(
            renamed
        )

    @pytest.mark.parametrize("name", sorted(ENCODING_CASES))
    def test_round_trips_with_the_same_hash(self, name):
        db = ENCODING_CASES[name][0]()
        restored = io.database_from_dict(json.loads(io.database_structure_json(db)))
        _assert_equal_databases(db, restored)
        assert restored.name == db.name
        assert restored.content_hash() == reference_content_hash(db)
        assert io.database_structure_json(restored) == reference_structure_json(db)

    @settings(max_examples=25)
    @given(databases())
    def test_random_databases_match_reference(self, db):
        assert io.database_structure_json(db) == reference_structure_json(db)
        assert db.content_hash() == reference_content_hash(db)

    def test_empty_database(self):
        db = ProbabilisticDatabase([], name="")
        assert io.database_structure_json(db) == reference_structure_json(db)


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
