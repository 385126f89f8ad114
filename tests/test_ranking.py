"""Unit tests for ranking functions (repro.db.ranking)."""

import pytest

from repro.db.ranking import (
    by_key,
    by_sum_of_keys,
    by_value,
    custom,
    ranking_descriptor,
    ranking_from_descriptor,
    rankings_equivalent,
)
from repro.db.tuples import ProbabilisticTuple


def _tuple(value):
    return ProbabilisticTuple("t", "x", value, 0.5)


class TestByValue:
    def test_scores_numeric_value(self):
        assert by_value()(_tuple(21.0)) == 21.0

    def test_coerces_ints(self):
        assert by_value()(_tuple(3)) == 3.0

    def test_name(self):
        assert by_value().name == "by_value"


class TestByKey:
    def test_extracts_mapping_entry(self):
        t = _tuple({"rating": 0.75, "date": 0.5})
        assert by_key("rating")(t) == 0.75

    def test_missing_key_raises(self):
        t = _tuple({"rating": 0.75})
        with pytest.raises(KeyError):
            by_key("date")(t)


class TestBySumOfKeys:
    def test_mov_score(self):
        t = _tuple({"rating": 0.75, "date": 0.5, "movie_id": 3})
        assert by_sum_of_keys("date", "rating")(t) == pytest.approx(1.25)

    def test_name_lists_keys(self):
        assert "date" in by_sum_of_keys("date", "rating").name


class TestCustom:
    def test_wraps_callable(self):
        ranking = custom(lambda t: -float(t.value), name="neg")
        assert ranking(_tuple(4.0)) == -4.0
        assert ranking.name == "neg"


class TestFactoryIdentity:
    """One score callable per rule, so x-tuple score memos hit across
    every ranking built for that rule."""

    @pytest.mark.parametrize(
        "make",
        [by_value, lambda: by_key("date"), lambda: by_sum_of_keys("date", "rating")],
        ids=["by_value", "by_key", "by_sum_of_keys"],
    )
    def test_one_callable_per_rule(self, make):
        ranking = make()
        assert make().score is ranking.score
        rebuilt = ranking_from_descriptor(ranking_descriptor(ranking))
        assert rebuilt.score is ranking.score
        assert rebuilt.name == ranking.name

    def test_distinct_rules_keep_distinct_callables(self):
        assert by_key("date").score is not by_key("rating").score
        assert (
            by_sum_of_keys("date", "rating").score
            is not by_sum_of_keys("rating", "date").score
        )
        assert by_sum_of_keys("date").score is not by_key("date").score


def _neg(t):
    return -float(t.value)


def _pos(t):
    return float(t.value)


class TestRankingsEquivalent:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (None, None, True),
            (None, by_value(), True),
            (by_key("date"), by_key("date"), True),
            (by_key("date"), by_key("rating"), False),
            (by_sum_of_keys("date", "rating"), by_sum_of_keys("date", "rating"), True),
            (by_sum_of_keys("date", "rating"), by_sum_of_keys("rating", "date"), False),
            (by_key("date"), by_sum_of_keys("date"), False),
            (custom(_neg), custom(_neg), True),
            (custom(_neg), custom(_pos), False),
            (custom(_neg, name="asc"), custom(_pos, name="asc"), True),
            (by_key("date"), custom(_pos, name="by_key(date)"), True),
            (by_value(), custom(_pos), False),
        ],
    )
    def test_answers(self, a, b, expected):
        assert rankings_equivalent(a, b) is expected
        assert rankings_equivalent(b, a) is expected
