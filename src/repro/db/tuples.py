"""Tuple-level building blocks of the x-tuple probabilistic data model.

The paper (Section III-A) models a probabilistic database ``D`` as a set
of *x-tuples*.  Each x-tuple groups mutually exclusive alternatives
(*tuples*); tuples from different x-tuples are independent.  A tuple
``t_i`` is the quadruple ``(ID_i, x_i, v_i, e_i)``: a unique key, the
x-tuple it belongs to, its attribute value(s), and its existential
probability.

This module defines the two value classes used everywhere else:

* :class:`ProbabilisticTuple` -- one alternative reading of an entity.
* :class:`XTuple` -- one entity, i.e. a set of mutually exclusive
  alternatives whose probabilities sum to at most one.  When the sum is
  strictly below one, the remainder is the probability that the entity
  produces *no* tuple at all (the paper's implicit "null" tuple, which
  is ranked below every real tuple and never materialized here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    overload,
)

from repro.exceptions import InvalidDatabaseError

#: Tolerance used when checking that probabilities inside an x-tuple sum
#: to at most one.  Generated data routinely carries float round-off.
PROBABILITY_SUM_TOLERANCE = 1e-9

#: An x-tuple whose alternatives sum to at least this much is treated as
#: *complete*: it always produces a real tuple in every possible world.
COMPLETENESS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ProbabilisticTuple:
    """One alternative reading of an uncertain entity.

    Attributes
    ----------
    tid:
        The tuple key ``ID_i``.  Must be unique across the database.
    xtuple_id:
        Identifier of the x-tuple (entity) this tuple belongs to.
    value:
        The attribute value(s) ``v_i`` consumed by the ranking function.
        For the paper's sensor example this is a single temperature; for
        the MOV workload it is a ``(date, rating)`` mapping.
    probability:
        The existential probability ``e_i`` -- the chance that this
        alternative is the entity's real value.  Must lie in ``(0, 1]``.
    """

    tid: str
    xtuple_id: str
    value: Any
    probability: float

    def __post_init__(self) -> None:
        if not isinstance(self.tid, str) or not self.tid:
            raise InvalidDatabaseError(
                f"tuple id must be a non-empty string, got {self.tid!r}"
            )
        if not isinstance(self.xtuple_id, str) or not self.xtuple_id:
            raise InvalidDatabaseError(
                f"x-tuple id must be a non-empty string, got {self.xtuple_id!r}"
            )
        p = self.probability
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise InvalidDatabaseError(
                f"existential probability must be a number, got {p!r}"
            )
        if math.isnan(p) or p <= 0.0 or p > 1.0:
            raise InvalidDatabaseError(
                f"existential probability of tuple {self.tid!r} must lie in "
                f"(0, 1], got {p!r}"
            )


#: Memo key of an x-tuple's scores (see :meth:`XTuple.scores`).
_SCORES = "_scores"

_T = TypeVar("_T")


class _memo(Generic[_T]):
    """A read-only attribute computed on first read: the result lands in
    the instance ``__dict__``, which shadows this non-data descriptor
    from then on, so every later read is a plain attribute lookup.

    :func:`functools.cached_property` does the same, but before Python
    3.12 it takes a class-wide lock on every miss, which doubles the
    cost of a miss -- and a cold rank misses once per x-tuple.  Threads
    that race here compute, and store, equal values.
    """

    def __init__(self, method: Callable[[Any], _T]) -> None:
        self._method = method
        self._name = method.__name__
        self.__doc__ = method.__doc__

    @overload
    def __get__(self, instance: None, owner: Optional[type] = None) -> _memo[_T]: ...

    @overload
    def __get__(self, instance: object, owner: Optional[type] = None) -> _T: ...

    def __get__(
        self, instance: Optional[object], owner: Optional[type] = None
    ) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self._name] = self._method(instance)
        return value


@dataclass(frozen=True)
class XTuple:
    """An uncertain entity: mutually exclusive alternatives.

    Immutability also backs the x-tuple's memos, each computed on first
    use and kept on the object, outside its dataclass fields, so
    equality, ``repr``, :func:`dataclasses.fields` and
    :func:`dataclasses.replace` never see them:

    * its canonical encoding (:meth:`encoded`): the content-hash
      record;
    * the per-alternative columns a ranked view and a columnar segment
      are built from: :attr:`tids`, :attr:`values`,
      :attr:`probabilities`, :attr:`completion_probability`;
    * the alternatives' scores under the last score callable asked
      (:meth:`scores`).

    A value must therefore not be mutated after construction -- MOV's
    ``{date, rating}`` dicts included -- or the cached bytes and scores
    go stale.  Two threads filling the same memo (the session pool's)
    race harmlessly: both compute, and store, the same result.

    Attributes
    ----------
    xid:
        The x-tuple identifier (e.g. a sensor id such as ``"S1"``).
    alternatives:
        The member tuples, each carrying its existential probability.
        Their probabilities must sum to at most one (within
        :data:`PROBABILITY_SUM_TOLERANCE`).
    """

    xid: str
    alternatives: Tuple[ProbabilisticTuple, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.xid, str) or not self.xid:
            raise InvalidDatabaseError(
                f"x-tuple id must be a non-empty string, got {self.xid!r}"
            )
        alts = tuple(self.alternatives)
        object.__setattr__(self, "alternatives", alts)
        if not alts:
            raise InvalidDatabaseError(
                f"x-tuple {self.xid!r} must contain at least one alternative"
            )
        seen = set()
        total = 0.0
        for t in alts:
            if not isinstance(t, ProbabilisticTuple):
                raise InvalidDatabaseError(
                    f"x-tuple {self.xid!r} contains a non-tuple member: {t!r}"
                )
            if t.xtuple_id != self.xid:
                raise InvalidDatabaseError(
                    f"tuple {t.tid!r} declares x-tuple {t.xtuple_id!r} but was "
                    f"placed in x-tuple {self.xid!r}"
                )
            if t.tid in seen:
                raise InvalidDatabaseError(
                    f"duplicate tuple id {t.tid!r} inside x-tuple {self.xid!r}"
                )
            seen.add(t.tid)
            total += t.probability
        if total > 1.0 + PROBABILITY_SUM_TOLERANCE:
            raise InvalidDatabaseError(
                f"existential probabilities in x-tuple {self.xid!r} sum to "
                f"{total!r} > 1"
            )

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the fields only: memos are rebuilt on use, and the
        score memo may hold a callable that cannot be pickled."""
        return {"xid": self.xid, "alternatives": self.alternatives}

    def encoded(self, key: str, encode: Callable[["XTuple"], bytes]) -> bytes:
        """``encode(self)``, computed on first use and cached under ``key``.

        The encoding's owner supplies the key and encoder:
        :mod:`repro.db.database` the content-hash record.  A snapshot
        derived by swapping one x-tuple shares every other ``XTuple``
        object with its base, and with them their cached bytes.
        """
        cached: Optional[bytes] = self.__dict__.get(key)
        if cached is None:
            cached = self.__dict__[key] = encode(self)
        return cached

    def scores(self, score: Callable[[ProbabilisticTuple], Any]) -> Tuple[Any, ...]:
        """``score(t)`` for each alternative ``t``, in order.

        Memoized under the identity of ``score``, one callable at a
        time: asking with another callable recomputes and replaces the
        memo, so it never serves one ranking's scores to another.  A
        score callable must be a pure function of the tuple, as the
        factory rankings are.  A callable that raises stores nothing.
        """
        memo: Optional[Tuple[Any, Tuple[Any, ...]]] = self.__dict__.get(_SCORES)
        if memo is not None and memo[0] is score:
            return memo[1]
        values = tuple(map(score, self.alternatives))
        self.__dict__[_SCORES] = (score, values)
        return values

    @_memo
    def tids(self) -> Tuple[str, ...]:
        """The alternatives' tuple ids, in order."""
        return tuple([t.tid for t in self.alternatives])

    @_memo
    def probabilities(self) -> Tuple[float, ...]:
        """The alternatives' existential probabilities, in order."""
        return tuple([t.probability for t in self.alternatives])

    @_memo
    def values(self) -> Tuple[Any, ...]:
        """The alternatives' values, in order."""
        return tuple([t.value for t in self.alternatives])

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        return iter(self.alternatives)

    def __len__(self) -> int:
        return len(self.alternatives)

    @_memo
    def completion_probability(self) -> float:
        """Probability ``s_l`` that the entity produces a real tuple.

        Equals the sum of the alternatives' existential probabilities,
        clamped to one to absorb float round-off.
        """
        return min(1.0, math.fsum(self.probabilities))

    @property
    def null_probability(self) -> float:
        """Probability that the entity produces *no* tuple (``1 - s_l``)."""
        return max(0.0, 1.0 - self.completion_probability)

    @property
    def is_complete(self) -> bool:
        """``True`` when the entity always produces a real tuple."""
        return self.null_probability <= COMPLETENESS_TOLERANCE

    @property
    def is_certain(self) -> bool:
        """``True`` when the entity has a single alternative with
        probability one -- i.e. it carries no uncertainty at all.  This
        is the state a successful cleaning operation leaves behind."""
        return len(self.alternatives) == 1 and self.is_complete

    def collapsed_to(self, tid: str) -> "XTuple":
        """Return the x-tuple a *successful* cleaning produces.

        Per Definition 5, a successful ``pclean`` replaces the x-tuple by
        a single certain tuple ``{ID_i, l, v_i, 1}`` keeping the chosen
        alternative's identifier and value.

        Parameters
        ----------
        tid:
            Identifier of the alternative revealed as the real value.
        """
        for t in self.alternatives:
            if t.tid == tid:
                certain = ProbabilisticTuple(
                    tid=t.tid,
                    xtuple_id=self.xid,
                    value=t.value,
                    probability=1.0,
                )
                return XTuple(xid=self.xid, alternatives=(certain,))
        raise InvalidDatabaseError(
            f"x-tuple {self.xid!r} has no alternative with id {tid!r}"
        )


def checked_xtuple(
    xid: str,
    tids: Tuple[str, ...],
    values: Tuple[Any, ...],
    probabilities: Tuple[float, ...],
) -> XTuple:
    """An x-tuple built from columns that already passed every check
    :class:`ProbabilisticTuple` and :class:`XTuple` make, without
    running them again.

    The caller vouches for the columns: non-empty string ids, unique
    tuple ids, probabilities that are numbers (not ``bool``), finite,
    in ``(0, 1]`` and summing to at most one within
    :data:`PROBABILITY_SUM_TOLERANCE` in the order ``__post_init__``
    sums them (:func:`repro.db.io.database_from_columns` checks a whole
    database's columns at once).  The ``tids``, ``values`` and
    ``probabilities`` memos start filled.
    """
    new = object.__new__
    alternatives = []
    for tid, value, probability in zip(tids, values, probabilities):
        t = new(ProbabilisticTuple)
        fields = t.__dict__
        fields["tid"] = tid
        fields["xtuple_id"] = xid
        fields["value"] = value
        fields["probability"] = probability
        alternatives.append(t)
    xt = new(XTuple)
    xt.__dict__.update(
        xid=xid,
        alternatives=tuple(alternatives),
        tids=tids,
        values=values,
        probabilities=probabilities,
    )
    return xt


def make_xtuple(
    xid: str,
    alternatives: Sequence[Tuple[str, Any, float]],
) -> XTuple:
    """Convenience constructor from ``(tid, value, probability)`` triples.

    Example
    -------
    >>> s1 = make_xtuple("S1", [("t0", 21.0, 0.6), ("t1", 32.0, 0.4)])
    >>> s1.completion_probability
    1.0
    """
    members = tuple(
        ProbabilisticTuple(tid=tid, xtuple_id=xid, value=value, probability=prob)
        for tid, value, prob in alternatives
    )
    return XTuple(xid=xid, alternatives=members)
