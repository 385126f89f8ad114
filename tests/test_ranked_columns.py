"""The columnar cold rank against the per-tuple reference.

A :class:`~repro.db.database.RankedDatabase` is built from its
database's columns -- the by-value rule's scores read off the value
column, the probabilities, sizes and completion -- rather than tuple by
tuple.  Its five canonical columns and its ``order`` must equal
:func:`reference_rank.reference_rank` bit for bit on every database and
ranking, whether the database was built from x-tuples or rebuilt from
a segment's columns, and a score that raises must leave nothing behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import io
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
        # A second rank reads the same columns.
        assert_matches_reference(RankedDatabase(db, ranking), db, ranking)
        # So does a database rebuilt from a segment's columns, which
        # builds its tuple objects on demand.
        rebuilt = io.database_from_columns(db.name, io.encode_structure(db))
        assert_matches_reference(RankedDatabase(rebuilt, ranking), rebuilt, ranking)

    @settings(max_examples=40)
    @given(db=databases(max_xtuples=6, max_alternatives=4, values="mapping"))
    def test_shared_xtuples_ranked_alternately(self, db):
        # Two databases over the same XTuple objects, each ranked under
        # two rules in turn.
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


class TestScoring:
    def test_raising_score_raises_on_every_rank(self):
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
        # Nothing is kept from the failed rank: the next one scores
        # every tuple again, from the first, and fails the same way.
        with pytest.raises(ValueError):
            RankedDatabase(db, ranking)
        assert calls == ["t0", "t1", "t2"] * 2

    def test_raising_score_leaves_other_rankings_working(self):
        xt = make_xtuple("x1", [("t0", {"a": 1.0}, 0.5), ("t1", {"b": 2.0}, 0.5)])
        db = ProbabilisticDatabase([xt])
        with pytest.raises(KeyError):
            RankedDatabase(db, by_key("a"))
        total = custom(lambda t: sum(t.value.values()), name="total")
        assert RankedDatabase(db, total).scores_array.tolist() == [2.0, 1.0]
        with pytest.raises(KeyError):
            RankedDatabase(db, by_key("a"))

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

    @pytest.mark.parametrize("values", [[3.5, 1.0, 3.5, -0.0, 0.0], [3, 1, 3, 0, 2]])
    def test_by_value_reads_the_value_column(self, values):
        # Floats: the column is the score column; ints: float() of each.
        # Either way bitwise the rank that scores tuple objects.
        db = ProbabilisticDatabase(
            [make_xtuple(f"x{i}", [(f"t{i}", v, 0.5)]) for i, v in enumerate(values)]
        )
        by_tuple = custom(lambda t: float(t.value), name="by tuple")
        ranked = RankedDatabase(db, by_value())
        assert ranked.scores_array.tolist() == sorted(map(float, values), reverse=True)
        other = RankedDatabase(db, by_tuple)
        for name in CANONICAL_COLUMNS:
            assert getattr(ranked, name).tobytes() == getattr(other, name).tobytes()
        # A rebuilt database ranks by value without building an object.
        rebuilt = io.database_from_columns("", io.encode_structure(db))
        assert RankedDatabase(rebuilt, by_value()).scores_array.tobytes() == (
            ranked.scores_array.tobytes()
        )
        assert rebuilt._xtuples is None and not rebuilt._built
