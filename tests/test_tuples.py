"""Unit tests for the tuple-level data model (repro.db.tuples)."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.database import ProbabilisticDatabase, RankedDatabase
from repro.db.io import encode_structure
from repro.db.ranking import by_key, custom
from repro.db.tuples import ProbabilisticTuple, XTuple, make_xtuple
from repro.exceptions import InvalidDatabaseError


class TestProbabilisticTuple:
    def test_valid_construction(self):
        t = ProbabilisticTuple("t0", "S1", 21.0, 0.6)
        assert t.tid == "t0"
        assert t.xtuple_id == "S1"
        assert t.value == 21.0
        assert t.probability == 0.6

    def test_probability_one_is_allowed(self):
        t = ProbabilisticTuple("t", "x", 1.0, 1.0)
        assert t.probability == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001, 2.0, float("nan")])
    def test_invalid_probability_rejected(self, bad):
        with pytest.raises(InvalidDatabaseError):
            ProbabilisticTuple("t", "x", 1.0, bad)

    def test_boolean_probability_rejected(self):
        with pytest.raises(InvalidDatabaseError):
            ProbabilisticTuple("t", "x", 1.0, True)

    @pytest.mark.parametrize("bad_id", ["", None, 7])
    def test_invalid_tid_rejected(self, bad_id):
        with pytest.raises(InvalidDatabaseError):
            ProbabilisticTuple(bad_id, "x", 1.0, 0.5)

    @pytest.mark.parametrize("bad_id", ["", None, 7])
    def test_invalid_xtuple_id_rejected(self, bad_id):
        with pytest.raises(InvalidDatabaseError):
            ProbabilisticTuple("t", bad_id, 1.0, 0.5)

    def test_frozen(self):
        t = ProbabilisticTuple("t0", "S1", 21.0, 0.6)
        with pytest.raises(AttributeError):
            t.probability = 0.7

    def test_non_numeric_probability_rejected(self):
        with pytest.raises(InvalidDatabaseError):
            ProbabilisticTuple("t", "x", 1.0, "0.5")


class TestXTuple:
    def test_iteration_and_len(self):
        xt = make_xtuple("S1", [("t0", 21.0, 0.6), ("t1", 32.0, 0.4)])
        assert len(xt) == 2
        assert [t.tid for t in xt] == ["t0", "t1"]

    def test_completion_probability_complete(self):
        xt = make_xtuple("S1", [("t0", 21.0, 0.6), ("t1", 32.0, 0.4)])
        assert xt.completion_probability == pytest.approx(1.0)
        assert xt.null_probability == 0.0
        assert xt.is_complete

    def test_completion_probability_incomplete(self):
        xt = make_xtuple("S1", [("t0", 21.0, 0.3), ("t1", 32.0, 0.4)])
        assert xt.completion_probability == pytest.approx(0.7)
        assert xt.null_probability == pytest.approx(0.3)
        assert not xt.is_complete

    def test_sum_above_one_rejected(self):
        with pytest.raises(InvalidDatabaseError):
            make_xtuple("S1", [("t0", 1.0, 0.7), ("t1", 2.0, 0.4)])

    def test_sum_to_one_with_roundoff_accepted(self):
        # 10 x 0.1 sums to just above 1.0 in binary floating point.
        xt = make_xtuple("S", [(f"t{i}", float(i), 0.1) for i in range(10)])
        assert xt.is_complete

    def test_empty_rejected(self):
        with pytest.raises(InvalidDatabaseError):
            XTuple(xid="S1", alternatives=())

    def test_duplicate_tid_rejected(self):
        with pytest.raises(InvalidDatabaseError):
            make_xtuple("S1", [("t0", 1.0, 0.3), ("t0", 2.0, 0.3)])

    def test_mismatched_member_xid_rejected(self):
        stray = ProbabilisticTuple("t0", "OTHER", 1.0, 0.5)
        with pytest.raises(InvalidDatabaseError):
            XTuple(xid="S1", alternatives=(stray,))

    def test_non_tuple_member_rejected(self):
        with pytest.raises(InvalidDatabaseError):
            XTuple(xid="S1", alternatives=("not a tuple",))

    def test_is_certain(self):
        certain = make_xtuple("S4", [("t6", 26.0, 1.0)])
        assert certain.is_certain
        uncertain = make_xtuple("S1", [("t0", 21.0, 0.6), ("t1", 32.0, 0.4)])
        assert not uncertain.is_certain
        single_incomplete = make_xtuple("S5", [("t7", 1.0, 0.5)])
        assert not single_incomplete.is_certain

    def test_collapsed_to_matches_paper_definition(self):
        # Table I S3 cleaned to t5 must equal Table II's S3.
        s3 = make_xtuple("S3", [("t4", 25.0, 0.4), ("t5", 27.0, 0.6)])
        collapsed = s3.collapsed_to("t5")
        assert collapsed.is_certain
        only = collapsed.alternatives[0]
        assert only.tid == "t5"
        assert only.value == 27.0
        assert only.probability == 1.0
        assert collapsed.xid == "S3"

    def test_collapsed_to_unknown_tid_rejected(self):
        s3 = make_xtuple("S3", [("t4", 25.0, 0.4), ("t5", 27.0, 0.6)])
        with pytest.raises(InvalidDatabaseError):
            s3.collapsed_to("nope")


    def test_filled_memo_is_invisible_to_the_dataclass(self):
        alternatives = [("t4", 25.0, 0.4), ("t5", 27.0, 0.6)]
        filled = make_xtuple("S3", alternatives)
        db = ProbabilisticDatabase([filled])
        db.content_hash()
        encode_structure(db)
        assert len(vars(filled)) > len(dataclasses.fields(XTuple))
        plain = make_xtuple("S3", alternatives)
        assert filled == plain and hash(filled) == hash(plain)
        assert repr(filled) == repr(plain)
        assert [f.name for f in dataclasses.fields(filled)] == [
            "xid",
            "alternatives",
        ]
        assert dataclasses.astuple(filled) == dataclasses.astuple(plain)
        # replace builds a new object: no cached bytes ride along.
        swapped = dataclasses.replace(filled, alternatives=plain.alternatives[:1])
        assert swapped == make_xtuple("S3", alternatives[:1])
        assert len(vars(swapped)) == len(dataclasses.fields(XTuple))
        assert dataclasses.replace(filled) == plain

    def test_pickles_without_its_memos(self):
        # The score memo of a by_key or lambda ranking holds a callable
        # pickle cannot serialize; an x-tuple pickles as its fields.
        xt = make_xtuple("S1", [("t0", {"a": 2.0}, 0.6), ("t1", {"a": 1.0}, 0.4)])
        db = ProbabilisticDatabase([xt])
        for ranking in (by_key("a"), custom(lambda t: -t.value["a"])):
            ranked = RankedDatabase(db, ranking)
            db.content_hash()
            loaded = pickle.loads(pickle.dumps(xt))
            assert loaded == xt
            assert len(vars(loaded)) == len(dataclasses.fields(XTuple))
            again = pickle.loads(pickle.dumps(db))
            assert RankedDatabase(again, ranking).order == ranked.order

    def test_memo_is_filled_once(self):
        xt = make_xtuple("S1", [("t0", 21.0, 0.6)])
        calls = []

        def encode(x):
            calls.append(x.xid)
            return b"bytes"

        assert xt.encoded("_probe", encode) == b"bytes"
        assert xt.encoded("_probe", encode) == b"bytes"
        assert calls == ["S1"]


class TestXTupleProperties:
    @given(
        st.lists(
            st.integers(1, 10), min_size=1, max_size=6
        ).flatmap(
            lambda ws: st.just(ws)
        )
    )
    def test_completion_never_exceeds_one(self, weights):
        total = sum(weights) + 1
        xt = make_xtuple(
            "x", [(f"t{i}", float(i), w / total) for i, w in enumerate(weights)]
        )
        assert 0.0 < xt.completion_probability <= 1.0
        assert 0.0 <= xt.null_probability < 1.0
        assert math.isclose(
            xt.completion_probability + xt.null_probability, 1.0
        )

    @given(st.integers(1, 6))
    def test_collapse_preserves_identity_for_all_members(self, count):
        xt = make_xtuple(
            "x", [(f"t{i}", float(i), 1.0 / count) for i in range(count)]
        )
        for t in xt.alternatives:
            collapsed = xt.collapsed_to(t.tid)
            assert collapsed.is_certain
            assert collapsed.alternatives[0].tid == t.tid
            assert collapsed.alternatives[0].value == t.value
