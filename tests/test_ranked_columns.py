"""The memoized cold rank against the per-tuple reference.

A :class:`~repro.db.database.RankedDatabase` is built from per-x-tuple
memos -- tids, probabilities, completion and the scores under one score
callable -- rather than tuple by tuple.  Its five canonical columns and
its ``order`` must equal :func:`reference_rank.reference_rank` bit for
bit on every database and ranking, and a memo must never serve one
ranking's scores to another or keep anything from a score that raised.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import tuples as tuples_module
from repro.db.database import CANONICAL_COLUMNS, ProbabilisticDatabase, RankedDatabase
from repro.db.ranking import RankingFunction, by_key, by_sum_of_keys, by_value, custom
from repro.db.tuples import make_xtuple

from reference_rank import reference_rank
from strategies import databases


def assert_matches_reference(
    ranked: RankedDatabase, db: ProbabilisticDatabase, ranking: RankingFunction
) -> None:
    columns, order = reference_rank(db, ranking)
    for name in CANONICAL_COLUMNS:
        got, want = getattr(ranked, name), columns[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert len(ranked.order) == len(order)
    assert all(a is b for a, b in zip(ranked.order, order))


#: case -> (value kind of the drawn database, ranking factory).
RANKINGS = {
    "by_value-float": ("float", by_value),
    "by_value-int": ("int", by_value),
    "custom-float": ("float", lambda: custom(lambda t: -float(t.value), name="asc")),
    # Returns ints: the column converts them exactly as before.
    "custom-int": ("int", lambda: custom(lambda t: 12 - t.value, name="rev")),
    "by_key-mapping": ("mapping", lambda: by_key("a")),
    "by_sum_of_keys-mapping": ("mapping", lambda: by_sum_of_keys("a", "b")),
    "custom-mapping": (
        "mapping",
        lambda: custom(lambda t: t.value["b"] - t.value["a"], name="diff"),
    ),
}


class TestReferenceRank:
    @pytest.mark.parametrize("case", sorted(RANKINGS))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_columns_and_order_match_reference(self, case, data):
        # Values in 0..12 force score ties, broken by insertion index.
        kind, make_ranking = RANKINGS[case]
        complete = data.draw(st.sampled_from([True, False, None]))
        db = data.draw(
            databases(
                max_xtuples=6, max_alternatives=4, complete=complete, values=kind
            )
        )
        ranking = make_ranking()
        assert_matches_reference(RankedDatabase(db, ranking), db, ranking)
        # A second rank of the same x-tuples is served from the memos.
        assert_matches_reference(RankedDatabase(db, ranking), db, ranking)

    @settings(max_examples=40)
    @given(db=databases(max_xtuples=6, max_alternatives=4, values="mapping"))
    def test_shared_xtuples_ranked_alternately(self, db):
        # Two databases over the same XTuple objects, each ranked under
        # two rules in turn: every rank switches the memos.
        other = ProbabilisticDatabase(db.xtuples[::-1], name="reversed")
        by_a, by_sum = by_key("a"), by_sum_of_keys("a", "b")
        for database, ranking in [
            (db, by_a),
            (other, by_sum),
            (db, by_sum),
            (other, by_a),
            (db, by_a),
        ]:
            assert_matches_reference(
                RankedDatabase(database, ranking), database, ranking
            )


class TestScoreMemo:
    def test_raising_score_leaves_no_memo(self):
        calls = []

        def score(t):
            calls.append(t.tid)
            return float(t.value)

        ranking = custom(score, name="counting")
        good = make_xtuple("x1", [("t0", 1.0, 0.5)])
        bad = make_xtuple("x2", [("t1", 2.0, 0.3), ("t2", "abc", 0.3)])
        db = ProbabilisticDatabase([good, bad])
        with pytest.raises(ValueError):
            RankedDatabase(db, ranking)
        assert calls == ["t0", "t1", "t2"]
        assert tuples_module._SCORES not in bad.__dict__
        # The next rank scores the failed x-tuple again, from its first
        # alternative, and fails the same way; the good one is a hit.
        with pytest.raises(ValueError):
            RankedDatabase(db, ranking)
        assert calls == ["t0", "t1", "t2", "t1", "t2"]
        assert tuples_module._SCORES not in bad.__dict__

    def test_raising_score_keeps_another_rankings_memo(self):
        xt = make_xtuple("x1", [("t0", {"a": 1.0}, 0.5), ("t1", {"b": 2.0}, 0.5)])
        by_a = by_key("a")
        with pytest.raises(KeyError):
            RankedDatabase(ProbabilisticDatabase([xt]), by_a)
        total = custom(lambda t: sum(t.value.values()), name="total")
        assert xt.scores(total.score) == (1.0, 2.0)
        with pytest.raises(KeyError):
            xt.scores(by_a.score)
        assert xt.__dict__[tuples_module._SCORES][0] is total.score

    def test_same_name_custom_rankings_never_share_scores(self, udb1):
        up = custom(lambda t: float(t.value), name="mine")
        down = custom(lambda t: -float(t.value), name="mine")
        views = []
        for ranking in (up, down, up, down):
            ranked = RankedDatabase(udb1, ranking)
            assert_matches_reference(ranked, udb1, ranking)
            views.append(ranked)
        assert views[0].scores_array.tolist() == sorted(
            (-s for s in views[1].scores_array.tolist()), reverse=True
        )
        assert [t.tid for t in views[0].order] != [t.tid for t in views[1].order]

    def test_factory_rankings_share_one_memo(self):
        xt = make_xtuple("x1", [("t0", {"a": 1.0, "b": 2.0}, 1.0)])
        db = ProbabilisticDatabase([xt])
        RankedDatabase(db, by_sum_of_keys("a", "b"))
        memo = xt.__dict__[tuples_module._SCORES]
        RankedDatabase(db, by_sum_of_keys("a", "b"))
        assert xt.__dict__[tuples_module._SCORES] is memo
