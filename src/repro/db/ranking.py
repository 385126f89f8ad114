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
higher), matching the paper.
"""

from __future__ import annotations

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
        view memoizes each x-tuple's scores under the callable's
        identity (:meth:`~repro.db.tuples.XTuple.scores`).
    name:
        Human-readable name used in reprs and benchmark tables.
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


def by_value() -> RankingFunction:
    """Rank tuples by their numeric ``value``, larger is higher.

    This is the ranking the paper uses on the sensor example (Table I)
    and on the synthetic workload.
    """
    return RankingFunction(_value_score, name="by_value")


# One score callable per rule, so every ranking built for a rule -- one
# per segment when a store opens -- hits the x-tuples' score memos.
@lru_cache(maxsize=None)
def _key_score(key: str) -> ScoreFunction:
    def score(t: ProbabilisticTuple) -> float:
        return float(t.value[key])

    return score


@lru_cache(maxsize=None)
def _sum_of_keys_score(keys: Tuple[str, ...]) -> ScoreFunction:
    def score(t: ProbabilisticTuple) -> float:
        return float(sum(t.value[k] for k in keys))

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


def custom(score: ScoreFunction, name: str = "custom") -> RankingFunction:
    """Wrap an arbitrary score callable into a :class:`RankingFunction`."""
    return RankingFunction(score, name=name)


def ranking_descriptor(
    ranking: Optional[RankingFunction],
) -> Optional[Dict[str, Any]]:
    """A JSON-serializable description of a factory-built ranking.

    The durable snapshot store persists rankings *by rule*, not by
    code object: the factory rankings (:func:`by_value`,
    :func:`by_key`, :func:`by_sum_of_keys`) encode their scoring rule
    in their name, so the rule round-trips through a plain dict and
    :func:`ranking_from_descriptor` rebuilds an equivalent function in
    a fresh process.  ``None`` (the by-value default) descriptors as
    by-value.  Returns ``None`` for rankings whose rule is *not*
    recoverable from their name (``custom`` / lambdas) -- such
    snapshots cannot be persisted, and the store refuses them with a
    typed error instead of silently re-ranking under the wrong order.
    """
    ranking = ranking if ranking is not None else by_value()
    name = ranking.name
    if name == "by_value":
        return {"kind": "value"}
    if name.startswith("by_key(") and name.endswith(")"):
        return {"kind": "key", "key": name[len("by_key(") : -1]}
    if name.startswith("by_sum_of_keys(") and name.endswith(")"):
        keys = name[len("by_sum_of_keys(") : -1]
        return {"kind": "sum_of_keys", "keys": keys.split(",")}
    return None


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


#: Names that carry no identity (the constructor defaults) -- two
#: rankings sharing one of these must not be treated as equivalent.
_ANONYMOUS_NAMES = frozenset({"", "score", "custom", "<lambda>"})


def rankings_equivalent(a: Optional[RankingFunction], b: Optional[RankingFunction]) -> bool:
    """Whether two ranking functions demonstrably order tuples the same.

    ``None`` stands for the by-value default.  Equivalence is
    establishable two ways: the rankings share the same underlying
    score callable, or they carry the same *descriptive* name (the
    factory-assigned ones -- ``by_value``, ``by_key(date)``, ... --
    which encode the scoring rule; anonymous defaults like
    ``"custom"`` or ``"<lambda>"`` never match).  Used by the snapshot
    registry to reject re-registration of one database under a
    conflicting ranking, so the check errs toward *false*: two
    semantically equal but unrelated callables are reported as
    different.
    """
    a = a if a is not None else by_value()
    b = b if b is not None else by_value()
    if a is b or a._score is b._score:
        return True
    return a.name == b.name and a.name not in _ANONYMOUS_NAMES
