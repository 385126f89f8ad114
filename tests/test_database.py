"""Unit tests for ProbabilisticDatabase and RankedDatabase."""

import pytest
from hypothesis import given

from repro.db.database import ProbabilisticDatabase
from repro.db.ranking import custom
from repro.db.tuples import make_xtuple
from repro.exceptions import InvalidDatabaseError
from repro.queries.psr import compute_rank_probabilities

from strategies import databases


class TestProbabilisticDatabase:
    def test_basic_counts(self, udb1):
        assert udb1.num_xtuples == 4
        assert udb1.num_tuples == 7
        assert len(udb1) == 7

    def test_iteration_order_is_insertion_order(self, udb1):
        assert [t.tid for t in udb1] == [f"t{i}" for i in range(7)]

    def test_lookup(self, udb1):
        assert udb1.tuple("t4").value == 25.0
        assert udb1.xtuple("S3").xid == "S3"
        assert "t4" in udb1
        assert "missing" not in udb1
        assert udb1.has_xtuple("S3")
        assert not udb1.has_xtuple("S9")

    def test_unknown_lookups_raise(self, udb1):
        with pytest.raises(InvalidDatabaseError):
            udb1.tuple("nope")
        with pytest.raises(InvalidDatabaseError):
            udb1.xtuple("nope")

    def test_duplicate_xtuple_id_rejected(self):
        xt = make_xtuple("S1", [("t0", 1.0, 0.5)])
        xt2 = make_xtuple("S1", [("t1", 2.0, 0.5)])
        with pytest.raises(InvalidDatabaseError):
            ProbabilisticDatabase([xt, xt2])

    def test_duplicate_tid_across_xtuples_rejected(self):
        xt = make_xtuple("S1", [("t0", 1.0, 0.5)])
        xt2 = make_xtuple("S2", [("t0", 2.0, 0.5)])
        with pytest.raises(InvalidDatabaseError):
            ProbabilisticDatabase([xt, xt2])

    @pytest.mark.parametrize(
        "xtuples, message",
        [
            (
                [("S1", ["t0"]), ("S2", ["t1"]), ("S1", ["t2"])],
                "duplicate x-tuple id 'S1'",
            ),
            (
                [("S1", ["t0", "t1"]), ("S2", ["t2", "t1"])],
                "duplicate tuple id 't1' across x-tuples",
            ),
            # Both kinds: the first offender in insertion order is named.
            (
                [("S1", ["t0"]), ("S2", ["t0"]), ("S1", ["t1"])],
                "duplicate tuple id 't0' across x-tuples",
            ),
            (
                [("S1", ["t0"]), ("S1", ["t1"]), ("S2", ["t0"])],
                "duplicate x-tuple id 'S1'",
            ),
            # One x-tuple repeats both ids: its x-tuple id is checked first.
            (
                [("S1", ["t0"]), ("S1", ["t0"])],
                "duplicate x-tuple id 'S1'",
            ),
        ],
        ids=["xid", "tid", "tid-first", "xid-first", "both-in-one"],
    )
    def test_duplicate_id_error_names_the_first_offender(self, xtuples, message):
        built = [
            make_xtuple(xid, [(tid, 1.0, 0.5 / len(tids)) for tid in tids])
            for xid, tids in xtuples
        ]
        with pytest.raises(InvalidDatabaseError) as excinfo:
            ProbabilisticDatabase(built)
        assert str(excinfo.value) == message

    @given(databases(max_xtuples=6))
    def test_lookups_answer_from_insertion_order(self, db):
        tuples = list(db)
        for index, t in enumerate(tuples):
            assert t.tid in db
            assert db.tuple(t.tid) is t
            assert db.insertion_index(t.tid) == index
        for xt in db.xtuples:
            assert db.has_xtuple(xt.xid)
            assert db.xtuple(xt.xid) is xt
        assert "missing" not in db
        assert not db.has_xtuple("missing")
        assert db.num_tuples == len(tuples)

    def test_is_complete(self, udb1):
        assert udb1.is_complete
        incomplete = ProbabilisticDatabase(
            [make_xtuple("S1", [("t0", 1.0, 0.5)])]
        )
        assert not incomplete.is_complete

    def test_num_possible_worlds_complete(self, udb1):
        # 2 * 2 * 2 * 1 choices, no null outcomes.
        assert udb1.num_possible_worlds() == 8

    def test_num_possible_worlds_with_nulls(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 1.0, 0.5)]),  # +null -> 2
                make_xtuple("b", [("t1", 1.0, 0.6), ("t2", 2.0, 0.4)]),  # 2
            ]
        )
        assert db.num_possible_worlds() == 4

    def test_with_xtuple_replaced_builds_udb2(self, udb1, udb2):
        s3 = udb1.xtuple("S3")
        cleaned = udb1.with_xtuple_replaced("S3", s3.collapsed_to("t5"))
        assert cleaned.num_tuples == udb2.num_tuples
        assert cleaned.xtuple("S3").is_certain
        assert cleaned.xtuple("S3").alternatives[0].tid == "t5"
        # Other x-tuples untouched; original unmodified.  The cleaned
        # database holds columns spliced from udb1's and builds its own
        # objects on demand, equal to udb1's.
        assert cleaned.xtuple("S1") == udb1.xtuple("S1")
        assert udb1.xtuple("S3") is s3

    def test_with_xtuple_replaced_validates(self, udb1):
        s3 = udb1.xtuple("S3")
        with pytest.raises(InvalidDatabaseError):
            udb1.with_xtuple_replaced("S9", s3)
        with pytest.raises(InvalidDatabaseError):
            udb1.with_xtuple_replaced("S1", s3)  # id mismatch

    def test_insertion_index(self, udb1):
        assert udb1.insertion_index("t0") == 0
        assert udb1.insertion_index("t6") == 6


class TestRankedDatabase:
    def test_paper_rank_order(self, udb1):
        ranked = udb1.ranked()
        # Descending temperature: t1(32) t2(30) t5(27) t6(26) t4(25) t3(22) t0(21)
        assert [t.tid for t in ranked.order] == [
            "t1", "t2", "t5", "t6", "t4", "t3", "t0",
        ]
        assert ranked.rank_of("t1") == 0
        assert ranked.rank_of("t0") == 6

    def test_scores_are_descending(self, udb1):
        ranked = udb1.ranked()
        scores = ranked.scores_array.tolist()
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_insertion_index(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 5.0, 0.5)]),
                make_xtuple("b", [("t1", 5.0, 0.5)]),
                make_xtuple("c", [("t2", 5.0, 0.5)]),
            ]
        )
        ranked = db.ranked()
        # Equal values: smaller insertion index ranks higher (paper Sec. VI).
        assert [t.tid for t in ranked.order] == ["t0", "t1", "t2"]

    def test_parallel_arrays_consistent(self, udb1):
        ranked = udb1.ranked()
        for i, t in enumerate(ranked.order):
            assert ranked.probabilities_array[i] == t.probability
            xid = ranked.xtuple_ids[ranked.xtuple_indices_array[i]]
            assert xid == t.xtuple_id

    def test_unknown_tid_raises_typed_error(self, udb1):
        # Typed like ``ProbabilisticDatabase.tuple``, on a cold and on a
        # patched view, and through the rank-probability lookups.
        ranked = udb1.ranked()
        xt = udb1.xtuple("S3")
        patched, _ = ranked.with_xtuple_replaced(
            "S3", xt.collapsed_to(xt.alternatives[0].tid)
        )
        for view in (ranked, patched):
            with pytest.raises(
                InvalidDatabaseError, match="unknown tuple id 'nope'"
            ):
                view.rank_of("nope")
            rp = compute_rank_probabilities(view, 2)
            for lookup in (
                rp.rho,
                rp.topk_probability,
                lambda tid: rp.rank_probability(tid, 1),
            ):
                with pytest.raises(
                    InvalidDatabaseError, match="unknown tuple id 'nope'"
                ):
                    lookup("nope")

    def test_custom_ranking(self, udb1):
        # Rank ascending by value instead.
        ranking = custom(lambda t: -float(t.value), name="ascending")
        ranked = udb1.ranked(ranking)
        assert [t.tid for t in ranked.order][:2] == ["t0", "t3"]

    def test_top(self, udb1):
        ranked = udb1.ranked()
        assert [t.tid for t in ranked.top(2)] == ["t1", "t2"]

    def test_min_real_tuples_probability_complete(self, udb1):
        ranked = udb1.ranked()
        for k in range(1, 5):
            assert ranked.min_real_tuples_probability(k) == pytest.approx(1.0)
        assert ranked.min_real_tuples_probability(5) == 0.0

    def test_min_real_tuples_probability_incomplete(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 1.0, 0.5)]),
                make_xtuple("b", [("t1", 2.0, 0.5)]),
            ]
        )
        ranked = db.ranked()
        # P[>=1 real] = 1 - 0.25, P[>=2] = 0.25.
        assert ranked.min_real_tuples_probability(1) == pytest.approx(0.75)
        assert ranked.min_real_tuples_probability(2) == pytest.approx(0.25)
        assert ranked.min_real_tuples_probability(0) == 1.0


class TestRankedDatabaseProperties:
    @given(databases())
    def test_ranked_view_is_a_permutation(self, db):
        ranked = db.ranked()
        assert sorted(t.tid for t in ranked.order) == sorted(
            t.tid for t in db
        )

    @given(databases())
    def test_rank_positions_invert_order(self, db):
        ranked = db.ranked()
        for i, t in enumerate(ranked.order):
            assert ranked.rank_of(t.tid) == i

    @given(databases())
    def test_ranking_respects_scores_with_stable_ties(self, db):
        ranked = db.ranked()
        for earlier, later in zip(ranked.order, ranked.order[1:]):
            ev, lv = float(earlier.value), float(later.value)
            assert ev >= lv
            if ev == lv:
                assert db.insertion_index(earlier.tid) < db.insertion_index(
                    later.tid
                )
