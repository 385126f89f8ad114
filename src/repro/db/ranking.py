"""Ranking functions and tie-breaking for deterministic top-k.

The paper assumes a ranking function ``f`` that assigns a *unique* rank
to every tuple (Section III-B): ties are broken deterministically so
that ``t1 =f t2`` iff the tuples are identical.  The paper's synthetic
workload ranks a tuple higher when its value is larger, breaking ties in
favour of the tuple with the smaller index (Section VI); the MOV
workload ranks by ``normalized(date) + normalized(rating)``.

A :class:`RankingFunction` wraps a score callable; tuples are ranked in
*descending* score order, and equal scores are broken by the order the
tuples were inserted into the database (smaller insertion index ranks
higher), matching the paper.  A ranking *is* its score callable: the
factories build one callable per rule, and persistence
(:func:`ranking_descriptor`) and equivalence
(:func:`rankings_equivalent`) go by that callable, never by the name.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.db.tuples import ProbabilisticTuple

ScoreFunction = Callable[[ProbabilisticTuple], float]


class RankingFunction:
    """Assigns every tuple a score; higher scores rank higher.

    Parameters
    ----------
    score:
        Callable mapping a :class:`ProbabilisticTuple` to a float score.
        Defaults to the tuple's ``value`` attribute (which therefore must
        be numeric).  It must be a pure function of the tuple: a ranked
        view scores a changed x-tuple's rows alone, and reads the scores
        of the by-value rule straight off a database's value column
        (:func:`scores_by_value`).
    name:
        Human-readable name used in reprs and benchmark tables.  It
        carries no identity: two rankings are the same rule only when
        they share ``score``.
    """

    def __init__(self, score: Optional[ScoreFunction] = None, name: str = "") -> None:
        self._score = score if score is not None else _value_score
        self.name = name or getattr(self._score, "__name__", "score")

    @property
    def score(self) -> ScoreFunction:
        """The score callable this ranking wraps."""
        return self._score

    def __call__(self, t: ProbabilisticTuple) -> float:
        return self._score(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankingFunction({self.name})"


def _value_score(t: ProbabilisticTuple) -> float:
    """Default score: the tuple's (numeric) value itself."""
    return float(t.value)


#: The persistable rule of each factory score callable, keyed by the
#: callable itself: a ranking's rule is whatever its score computes,
#: never what its name says.
_RULES: Dict[ScoreFunction, Dict[str, Any]] = {_value_score: {"kind": "value"}}


def by_value() -> RankingFunction:
    """Rank tuples by their numeric ``value``, larger is higher.

    This is the ranking the paper uses on the sensor example (Table I)
    and on the synthetic workload.
    """
    return RankingFunction(_value_score, name="by_value")


# One score callable per rule, so every ranking built for a rule -- one
# per segment when a store opens -- is the same rule by identity.
@lru_cache(maxsize=None)
def _key_score(key: str) -> ScoreFunction:
    def score(t: ProbabilisticTuple) -> float:
        return float(t.value[key])

    _RULES[score] = {"kind": "key", "key": key}
    return score


@lru_cache(maxsize=None)
def _sum_of_keys_score(keys: Tuple[str, ...]) -> ScoreFunction:
    def score(t: ProbabilisticTuple) -> float:
        return float(sum(t.value[k] for k in keys))

    _RULES[score] = {"kind": "sum_of_keys", "keys": list(keys)}
    return score


def by_key(key: str) -> RankingFunction:
    """Rank tuples by one entry of a mapping-valued ``value``."""
    return RankingFunction(_key_score(key), name=f"by_key({key})")


def by_sum_of_keys(*keys: str) -> RankingFunction:
    """Rank tuples by the sum of several entries of a mapping value.

    The MOV workload uses ``by_sum_of_keys("date", "rating")`` on
    normalized attributes (Section VI).
    """
    return RankingFunction(
        _sum_of_keys_score(keys), name=f"by_sum_of_keys({','.join(keys)})"
    )


def scores_by_value(ranking: RankingFunction) -> bool:
    """Whether ``ranking`` is the by-value rule, whose score of a tuple
    is ``float(t.value)``: a ranked view then reads its scores off the
    value column instead of scoring tuple objects, and a value column of
    Python floats is its own score column."""
    return ranking.score is _value_score


def custom(score: ScoreFunction, name: str = "custom") -> RankingFunction:
    """Wrap an arbitrary score callable into a :class:`RankingFunction`."""
    return RankingFunction(score, name=name)


def ranking_descriptor(
    ranking: Optional[RankingFunction],
) -> Optional[Dict[str, Any]]:
    """A JSON-serializable description of a factory-built ranking.

    The durable snapshot store persists rankings *by rule*, not by
    code object: each factory (:func:`by_value`, :func:`by_key`,
    :func:`by_sum_of_keys`) builds one score callable per rule and
    records the rule against it, so the rule round-trips through a
    plain dict and :func:`ranking_from_descriptor` rebuilds the same
    callable in a fresh process.  ``None`` (the by-value default)
    descriptors as by-value.  Returns ``None`` for any other score
    callable (``custom`` / lambdas), whatever the ranking's name --
    such snapshots cannot be persisted, and the store refuses them
    with a typed error instead of silently re-ranking under another
    order.
    """
    score = ranking.score if ranking is not None else _value_score
    rule = _RULES.get(score)
    return copy.deepcopy(rule) if rule is not None else None


def ranking_from_descriptor(payload: Mapping[str, Any]) -> RankingFunction:
    """Rebuild a factory ranking from :func:`ranking_descriptor` output.

    Raises ``ValueError`` on an unknown or malformed descriptor -- the
    store treats that as segment corruption, never as a reason to fall
    back to a default ordering.
    """
    kind = payload.get("kind") if isinstance(payload, Mapping) else None
    if kind == "value":
        return by_value()
    if kind == "key":
        key = payload.get("key")
        if not isinstance(key, str) or not key:
            raise ValueError(f"malformed key ranking descriptor: {payload!r}")
        return by_key(key)
    if kind == "sum_of_keys":
        keys = payload.get("keys")
        if (
            not isinstance(keys, (list, tuple))
            or not keys
            or not all(isinstance(k, str) and k for k in keys)
        ):
            raise ValueError(
                f"malformed sum_of_keys ranking descriptor: {payload!r}"
            )
        return by_sum_of_keys(*keys)
    raise ValueError(f"unknown ranking descriptor {payload!r}")


def rankings_equivalent(a: Optional[RankingFunction], b: Optional[RankingFunction]) -> bool:
    """Whether two ranking functions demonstrably order tuples the same.

    ``None`` stands for the by-value default.  Equivalence means the
    rankings share one score callable -- every factory ranking of one
    rule does (see :func:`ranking_descriptor`); names never count.
    Used by the snapshot registry to reject re-registration of one
    database under a conflicting ranking, so the check errs toward
    *false*: two semantically equal but unrelated callables are
    reported as different.
    """
    a_score = a.score if a is not None else _value_score
    b_score = b.score if b is not None else _value_score
    return a_score is b_score
