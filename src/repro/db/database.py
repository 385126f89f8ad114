"""The probabilistic database and its ranked (pre-sorted) view.

:class:`ProbabilisticDatabase` stores x-tuples (Section III-A of the
paper).  The quality and cleaning algorithms never consume the raw
database directly; they consume a :class:`RankedDatabase` -- the
database's tuples pre-sorted in descending rank order under a chosen
ranking function.  This mirrors the paper's standing assumption that
"tuples in D are arranged in descending order of ranks" (Section IV)
while paying the sort exactly once per (database, ranking) pair.

The database is its columns
---------------------------
A database holds its structure as five columns in x-tuple order:
``xids`` (a list of ``str``), ``tids`` (an object array of ``str``),
each x-tuple's number of alternatives (``sizes``, with the row
``offsets`` derived from it), and ``values`` and ``probabilities``.
The last two are float64 arrays when every entry is a Python
``float``, and otherwise object arrays that keep each entry's Python
type -- a MOV mapping value, an ``int`` probability, whose
content-hash record ``1`` differs from ``1.0``'s.  Next to them it
keeps its content-hash records once built.  These are a full snapshot
segment's structure columns, so a store rebuilds a database from them
without building an object (:func:`repro.db.io.database_from_columns`);
the public constructor gathers them from its x-tuples' memos.  Row
columns are arrays, not lists, so that a derivation splices them
at C speed and the garbage collector never walks them.  The completion
probabilities and the id maps derive from the columns on first use.
:class:`~repro.db.tuples.XTuple` and
:class:`~repro.db.tuples.ProbabilisticTuple` objects are built from
the columns only when a caller asks for them (``xtuples``,
``xtuple``, ``tuple``, iteration), without re-running their
validation, and cached.

The ranked view stores each column once, as a contiguous ``float64`` /
``int64`` NumPy array (``probabilities_array``,
``xtuple_indices_array``, ``scores_array``, ``completion_array``,
``insertion_array``) that the vectorized kernels consume directly.
Scalar code -- the pure-Python reference backend, the possible-world
enumerators -- takes ``tolist()`` of exactly the rows it walks.
``insertion_array`` is the one record of rank order: ranked row ``i``
is the database's row ``insertion_array[i]``, so an answer reads a
row's tuple id from the database's ``tids``
(:meth:`RankedDatabase.tids_at`), and :attr:`RankedDatabase.order`,
the tuple objects in rank order, is gathered on its first read.

Cold rank
---------
A cold :class:`RankedDatabase` reads the database's columns: its
scores (under the by-value rule, ``float(v)`` of each value, which for
a column of Python floats is the column itself; any other ranking
scores the tuples one by one), its probabilities, sizes and
completion probabilities.  Then one ``lexsort`` on ``(-score,
insertion index)``, ``np.repeat`` for the x-tuple indices, and a
gather by the sort permutation.  The columns are bitwise those of a
tuple-by-tuple construction.

Incremental derivation
----------------------
A cleaning round replaces or removes a few x-tuples -- one per
successful probe -- so the ranked view supports *patched* derivation:
:meth:`RankedDatabase.with_xtuples_changed` splices the changed
x-tuples' rows out of / into the columnar arrays in O(n) (a boolean
gather plus a ``np.searchsorted`` insert that replicates the full
sort's exact ``(-score, insertion index)`` tie-breaking) instead of
re-sorting, and returns one :class:`RankDelta` for the whole change
set.  The database's columns and content-hash records are spliced the
same way: Python work per changed x-tuple, list slices and NumPy over
the rest.  The query engine
(:meth:`repro.queries.engine.QuerySession.derive`) reads its first
changed row to decide which cached PSR passes still hold for the
patched view.

A cleaning's probes, and durable state, describe an outcome as its
base plus a *change set*, ``{xid: revealed tid, or None for a revealed
null}``: :func:`change_set` extracts it from a base and an outcome,
and :meth:`RankedDatabase.derive` (the view and its
:class:`RankDelta`; :meth:`RankedDatabase.with_change_set` the view
alone) applies it through the same splice, reading each revealed row
off the base's columns.
"""

from __future__ import annotations

import hashlib
import json
import json.encoder
import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.db.ranking import RankingFunction, by_value, scores_by_value
from repro.db.tuples import (
    COMPLETENESS_TOLERANCE,
    ProbabilisticTuple,
    XTuple,
    checked_xtuple,
)
from repro.exceptions import InvalidDatabaseError

#: Mirror of :data:`repro.queries.psr.SATURATION_EPSILON` (the queries
#: layer imports this one, so the two can never drift apart).  A factor
#: whose cumulative mass reaches ``1 - ε`` behaves as a certain
#: higher-ranked tuple in the PSR scan.
SATURATION_EPSILON = 1e-12

#: Memo key of an x-tuple's content-hash record (see :meth:`XTuple.encoded`).
_HASH_RECORD = "_hash_record"


def hash_record(xid: str, rows: Sequence[Sequence[object]]) -> bytes:
    """The share of :meth:`ProbabilisticDatabase.content_hash` of an
    x-tuple ``xid`` whose alternatives are ``rows`` of ``(tid, value,
    probability)``: canonical JSON of ``[xid, rows]`` plus a NUL."""
    canonical = json.dumps([xid, rows], sort_keys=True, separators=(",", ":"))
    return canonical.encode() + b"\x00"


def hash_records(
    xids: Sequence[str],
    tids: Sequence[str],
    values: Sequence[Any],
    probabilities: Sequence[Any],
    starts: Sequence[int],
) -> List[bytes]:
    """:func:`hash_record` of each x-tuple of a database held as
    columns: x-tuple ``l`` is ``xids[l]`` with the rows ``starts[l]``
    up to ``starts[l + 1]`` of ``tids``, ``values`` and
    ``probabilities``.

    When every value and probability is a finite Python ``float``, the
    records are assembled from per-item JSON at C speed -- each string
    encoded as :func:`json.dumps` encodes it, each float as its
    ``repr``, which is what :func:`json.dumps` writes for a finite
    float -- instead of one :func:`json.dumps` per x-tuple: every step
    is a ``map`` over a C callable, so no Python code runs per row or
    per x-tuple.  The bytes are the same either way.
    """
    if not all(
        set(map(type, column)) <= {float} and all(map(math.isfinite, column))
        for column in (values, probabilities)
    ):
        return [
            hash_record(
                xid,
                list(
                    zip(
                        tids[lo:hi], values[lo:hi], probabilities[lo:hi]
                    )
                ),
            )
            for xid, lo, hi in zip(xids, starts, starts[1:])
        ]
    encode = json.encoder.encode_basestring_ascii
    rows = list(
        map(
            "[{},{},{}]".format,
            map(encode, tids),
            map(repr, values),
            map(repr, probabilities),
        )
    )
    rows_of: Callable[[slice], List[str]] = rows.__getitem__
    joined = map(",".join, map(rows_of, map(slice, starts, starts[1:])))
    return list(map(str.encode, map("[{},[{}]]\0".format, map(encode, xids), joined)))


def _hash_record(xt: XTuple) -> bytes:
    """One x-tuple's share of :meth:`ProbabilisticDatabase.content_hash`."""
    return hash_record(
        xt.xid, [[t.tid, t.value, t.probability] for t in xt.alternatives]
    )


def _raise_first_duplicate(xtuples: Sequence[XTuple]) -> None:
    """Raise the duplicate-id error of the first offender in insertion
    order: an x-tuple id, or a tuple id an earlier x-tuple holds."""
    xids: Set[str] = set()
    tids: Set[str] = set()
    for xt in xtuples:
        if xt.xid in xids:
            raise InvalidDatabaseError(f"duplicate x-tuple id {xt.xid!r}")
        xids.add(xt.xid)
        for t in xt.alternatives:
            if t.tid in tids:
                raise InvalidDatabaseError(
                    f"duplicate tuple id {t.tid!r} across x-tuples"
                )
            tids.add(t.tid)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, write-protected: columns are shared between snapshots."""
    array.setflags(write=False)
    return array


def object_array(items: Sequence[Any]) -> np.ndarray:
    """An object array holding each of ``items`` as it is (a list or a
    mapping stays one entry).  ``np.fromiter`` takes ``dtype=object``
    from NumPy 1.23, the floor ``pyproject.toml`` declares."""
    return np.fromiter(items, dtype=object, count=len(items))


def column_array(items: Sequence[Any]) -> np.ndarray:
    """Values or probabilities as a column: float64 when every entry is
    a Python ``float``, which the array holds exactly, else an object
    array that keeps each entry's type."""
    if set(map(type, items)) <= {float}:
        return np.array(items, dtype=np.float64)
    return object_array(items)


def _splice(
    column: np.ndarray, edits: Iterable[Tuple[int, int, np.ndarray]]
) -> np.ndarray:
    """``column`` with each ``(lo, hi, items)`` of ``edits``, in
    ascending order, replacing the entries ``lo`` up to ``hi`` by
    ``items``: Python work per edit, one C-speed concatenation for the
    rest.  A float64 column spliced with object entries becomes an
    object column of the same Python values."""
    pieces: List[np.ndarray] = []
    at = 0
    for lo, hi, items in edits:
        pieces += (column[at:lo], items)
        at = hi
    pieces.append(column[at:])
    return np.concatenate(pieces)


class _Rows(NamedTuple):
    """The alternatives one x-tuple gets in a derivation, as columns."""

    tids: Sequence[str]
    values: Sequence[Any]
    probabilities: Sequence[Any]
    #: Their content-hash record, when a replacement x-tuple's memo
    #: already holds it.
    record: Optional[bytes] = None


class ProbabilisticDatabase:
    """An x-tuple probabilistic database.

    The database is immutable by convention: cleaning produces *new*
    databases via :meth:`with_xtuples_changed` rather than mutating in
    place, so that quality scores computed against one snapshot stay
    meaningful.  Its state is its columns (see the module docstring,
    "The database is its columns"), held as plain attributes.

    Parameters
    ----------
    xtuples:
        The entities of the database, in insertion order.  Insertion
        order of their member tuples defines the tie-breaking order of
        the ranking (smaller index ranks higher on equal scores).  They
        become the database's objects, and their memos its columns and
        its content-hash records.
    name:
        Optional label used in reprs and benchmark output.
    """

    def __init__(self, xtuples: Iterable[XTuple], name: str = "") -> None:
        given = tuple(xtuples)
        xids = [xt.xid for xt in given]
        memos = [xt.tids for xt in given]
        tids = list(chain.from_iterable(memos))
        if len(set(xids)) < len(xids) or len(set(tids)) < len(tids):
            _raise_first_duplicate(given)
        self._adopt(
            name,
            xids,
            object_array(tids),
            column_array(list(chain.from_iterable([xt.values for xt in given]))),
            column_array(list(chain.from_iterable([xt.probabilities for xt in given]))),
            np.array([0, *accumulate(map(len, memos))], dtype=np.int64),
        )
        self._xtuples = given

    def _adopt(
        self,
        name: str,
        xids: List[str],
        tids: np.ndarray,
        values: np.ndarray,
        probabilities: np.ndarray,
        offsets: np.ndarray,
        records: Optional[List[bytes]] = None,
        tid_slots: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        #: The columns (see the module docstring): x-tuple ``l`` is
        #: ``xids[l]``, its alternatives the rows ``offsets[l]`` up to
        #: ``offsets[l + 1]`` of :attr:`tids`, ``values`` and
        #: ``probabilities``, and ``sizes[l]`` counts them.  Derived
        #: databases share them: never mutate one.
        self.xids = xids
        self.values = _frozen(values)
        self.probabilities = _frozen(probabilities)
        self.offsets = _frozen(offsets)
        self.sizes = _frozen(np.diff(offsets))
        #: The tuple ids are ``tids`` itself, or, given ``tid_slots``
        #: (int64, one per row), ``tids[tid_slots]``: a derivation
        #: splices the slots and shares the table of ids, where a splice
        #: of the ids themselves would touch every ``str`` object.  Only
        #: a derivation whose rows all hold a slot -- collapses and
        #: removals, which keep or drop ids -- shares the table; one that
        #: brings a fresh id splices the ids and starts a new table.  So
        #: a table never holds more ids than the database that started
        #: it, and its descendants carry at most the ids they dropped.
        self._tid_table = _frozen(tids)
        self._tid_slots = None if tid_slots is None else _frozen(tid_slots)
        self._tids = self._tid_table if tid_slots is None else None
        self._hash_records = records
        self._content_hash: Optional[str] = None
        #: An object column found to hold Python floats only (a splice
        #: can collapse the last ``int`` probability to ``1.0``) -> its
        #: float64 array, or ``None``; filled on use.
        self._floats: Dict[str, Optional[np.ndarray]] = {}
        self._completion: Optional[np.ndarray] = None
        self._xid_index: Optional[Dict[str, int]] = None
        self._tid_index: Optional[Dict[str, int]] = None
        self._xtuples: Optional[Tuple[XTuple, ...]] = None
        self._built: Dict[int, XTuple] = {}

    @classmethod
    def _from_columns(
        cls,
        name: str,
        xids: List[str],
        tids: np.ndarray,
        values: np.ndarray,
        probabilities: np.ndarray,
        offsets: np.ndarray,
        records: Optional[List[bytes]] = None,
        tid_slots: Optional[np.ndarray] = None,
    ) -> "ProbabilisticDatabase":
        """Trusted constructor of a database held as columns (see
        :meth:`_adopt`) that already passed every check the public
        constructor and the x-tuples' own make
        (:func:`repro.db.io.database_from_columns` checks a segment's
        over whole columns; a derivation checks its edits).
        ``records``, when given, are the x-tuples' content-hash
        records in order; ``tid_slots`` makes ``tids`` a table (see
        :meth:`_adopt`).  Internal use only -- arbitrary columns must
        go through ``__init__``.
        """
        db = cls.__new__(cls)
        db._adopt(name, xids, tids, values, probabilities, offsets, records, tid_slots)
        return db

    def _edits(
        self, changes: Mapping[str, Optional[XTuple]]
    ) -> Tuple[Dict[int, _Rows], List[int]]:
        """``changes`` (x-tuple id -> replacement, or ``None`` for a
        removal) as replacement rows and removals by x-tuple index,
        checked as the constructor checks a database: every id is
        known, a replacement keeps its x-tuple's id, and no tuple id
        is held twice.

        A tid one of the changed x-tuples held -- a collapse keeps its
        revealed alternative's -- cannot clash with an unchanged
        x-tuple, so only fresh tids consult the tuple map.
        """
        replaced: Dict[int, XTuple] = {}
        removed: List[int] = []
        for xid, replacement in changes.items():
            l = self.xtuple_index(xid)
            if replacement is None:
                removed.append(l)
            elif replacement.xid != xid:
                raise InvalidDatabaseError(
                    f"replacement x-tuple has id {replacement.xid!r}, "
                    f"expected {xid!r}"
                )
            else:
                replaced[l] = replacement
        own = set(chain.from_iterable(map(self._tids_at, chain(replaced, removed))))
        seen: Set[str] = set()
        for tid in chain.from_iterable([xt.tids for xt in replaced.values()]):
            if tid in seen or (tid not in own and tid in self):
                raise InvalidDatabaseError(
                    f"duplicate tuple id {tid!r} across x-tuples"
                )
            seen.add(tid)
        return {
            l: _Rows(xt.tids, xt.values, xt.probabilities, xt.__dict__.get(_HASH_RECORD))
            for l, xt in replaced.items()
        }, removed

    def _change_edits(
        self, changes: Mapping[str, Optional[str]]
    ) -> Tuple[Dict[int, _Rows], List[int]]:
        """A change set (see :meth:`RankedDatabase.derive`) as
        replacement rows and removals by x-tuple index, each collapse
        read off the columns (:meth:`_collapsed`).  An unknown x-tuple
        or tuple id, or a value that is neither a string nor ``None``,
        raises :class:`~repro.exceptions.InvalidDatabaseError`."""
        if not isinstance(changes, Mapping):
            raise InvalidDatabaseError(
                f"a change set must be a mapping, got {type(changes).__name__}"
            )
        replaced: Dict[int, _Rows] = {}
        removed: List[int] = []
        for xid, tid in changes.items():
            if tid is not None and not isinstance(tid, str):
                raise InvalidDatabaseError(
                    f"change of x-tuple {xid!r} must be a tuple id or null, "
                    f"got {tid!r}"
                )
            l = self.xtuple_index(xid)
            if tid is None:
                removed.append(l)
            else:
                replaced[l] = self._collapsed(l, tid)
        return replaced, removed

    def _collapsed(self, l: int, tid: str) -> _Rows:
        """The rows x-tuple ``l`` keeps when a cleaning reveals its
        alternative ``tid``: that alternative alone, with probability
        1.0, as :meth:`~repro.db.tuples.XTuple.collapsed_to` builds it
        (paper Definition 5)."""
        tids = self._tids_at(l)
        if tid not in tids:
            raise InvalidDatabaseError(
                f"x-tuple {self.xids[l]!r} has no alternative with id {tid!r}"
            )
        row = int(self.offsets[l]) + tids.index(tid)
        return _Rows((tid,), self.values[row : row + 1].tolist(), (1.0,))

    def _spliced(
        self,
        replaced: Mapping[int, _Rows],
        removed: Sequence[int],
        completion: Optional[np.ndarray] = None,
    ) -> "ProbabilisticDatabase":
        """Trusted constructor of a cleaning derivation: this database
        with the x-tuples at the ``replaced`` indices given their new
        rows and those at the ``removed`` indices dropped.  The caller
        has checked the edits (:meth:`_edits`, or a change set's own
        alternatives).

        The columns are spliced with Python work per edit and NumPy
        over the rest; the tuple ids as slots of this database's id
        table, which the derived one shares, unless an edit brings a
        fresh id (see :meth:`_adopt`).  The content-hash records
        are spliced from this database's, when it has built them, at C
        speed: one list copy plus the changed entries.  ``completion``
        is the derived database's completion column, when the caller
        has computed it; everything else derives on first use.
        Internal use only.
        """
        offsets = self.offsets
        gone = _Rows((), (), ())
        edits = sorted([*replaced.items(), *zip(removed, repeat(gone))])
        spans = [(offsets[l], offsets[l + 1], rows) for l, rows in edits]
        # Each new row takes the slot its tid held in the changed
        # x-tuple (a collapse keeps its revealed alternative's).  A
        # fresh tid holds no slot: then the ids themselves are spliced
        # and start a new table (see _adopt).
        table = self._tid_table
        slots = (
            np.arange(len(table), dtype=np.int64)
            if self._tid_slots is None
            else self._tid_slots
        )

        def held_slots(lo: int, hi: int, rows: _Rows) -> List[Optional[int]]:
            held = dict(zip(self._tids_of_rows(slice(lo, hi)), slots[lo:hi].tolist()))
            return [held.get(tid) for tid in rows.tids]

        new_slots = [held_slots(lo, hi, rows) for lo, hi, rows in spans]
        tid_slots: Optional[np.ndarray] = None
        if any(None in held for held in new_slots):
            table = _splice(
                self.tids, [(lo, hi, object_array(r.tids)) for lo, hi, r in spans]
            )
        else:
            tid_slots = _splice(
                slots,
                [
                    (lo, hi, np.array(held, dtype=np.int64))
                    for (lo, hi, _), held in zip(spans, new_slots)
                ],
            )
        values = _splice(self.values, [(lo, hi, column_array(r.values)) for lo, hi, r in spans])
        probabilities = _splice(
            self.probabilities, [(lo, hi, column_array(r.probabilities)) for lo, hi, r in spans]
        )
        sizes = self.sizes.copy()
        for l, rows in replaced.items():
            sizes[l] = len(rows.tids)
        xids = self.xids
        records = self._hash_records
        if records is not None:
            records = records.copy()
            for l, rows in replaced.items():
                records[l] = rows.record or hash_record(
                    xids[l], list(zip(rows.tids, rows.values, rows.probabilities))
                )
        if removed:
            xids = list(xids)
            for l in sorted(removed, reverse=True):
                del xids[l]
                if records is not None:
                    del records[l]
            sizes = np.delete(sizes, removed)
        derived = ProbabilisticDatabase._from_columns(
            self.name,
            xids,
            table,
            values,
            probabilities,
            np.concatenate(([0], np.cumsum(sizes))),
            records,
            tid_slots,
        )
        derived._completion = completion
        if not removed:
            derived._xid_index = self._xid_index
        return derived

    def _xid_map(self) -> Dict[str, int]:
        index = self._xid_index
        if index is None:
            index = self._xid_index = dict(zip(self.xids, range(len(self.xids))))
        return index

    def _tid_map(self) -> Dict[str, int]:
        index = self._tid_index
        if index is None:
            index = self._tid_index = dict(
                zip(self.tids.tolist(), range(self.num_tuples))
            )
        return index

    def _tids_of_rows(self, rows: Any) -> List[str]:
        """The tuple ids of ``rows`` (an index array or a slice), in
        O(rows) whether or not :attr:`tids` has been gathered."""
        if self._tid_slots is not None:
            rows = self._tid_slots[rows]
        tids: List[str] = self._tid_table[rows].tolist()
        return tids

    def _tids_at(self, l: int) -> List[str]:
        """The tuple ids of x-tuple ``l``'s alternatives."""
        return self._tids_of_rows(slice(self.offsets[l], self.offsets[l + 1]))

    # ------------------------------------------------------------------
    # Columns derived on first use
    # ------------------------------------------------------------------
    @property
    def tids(self) -> np.ndarray:
        """The tuple ids in insertion order, an object array of ``str``
        (a derived database gathers it from its table on first use)."""
        tids = self._tids
        if tids is None:
            assert self._tid_slots is not None
            tids = self._tids = _frozen(self._tid_table[self._tid_slots])
        return tids

    def float_column(self, name: str) -> Optional[np.ndarray]:
        """The ``"values"`` or ``"probabilities"`` column as a float64
        array when every entry is a Python ``float``, else ``None``."""
        column: np.ndarray = getattr(self, name)
        if column.dtype != object:
            return column
        if name not in self._floats:
            array = column_array(column.tolist())
            self._floats[name] = _frozen(array) if array.dtype != object else None
        return self._floats[name]

    @property
    def completion(self) -> np.ndarray:
        """``s_l`` of each x-tuple (float64, computed on first use): the
        sum of its probabilities clamped to one, bit for bit as
        :attr:`~repro.db.tuples.XTuple.completion_probability` computes
        it -- ``min(1.0, math.fsum(...))`` -- mapped over its rows
        without running Python code per x-tuple."""
        completion = self._completion
        if completion is None:
            probabilities = self.probabilities.tolist()
            offsets = self.offsets.tolist()
            sums = map(
                math.fsum,
                map(probabilities.__getitem__, map(slice, offsets, offsets[1:])),
            )
            # np.minimum(1.0, s) is min(1.0, s) for every finite s.
            completion = self._completion = _frozen(
                np.minimum(
                    1.0, np.fromiter(sums, dtype=np.float64, count=len(self.xids))
                )
            )
        return completion

    # ------------------------------------------------------------------
    # Objects, built on demand
    # ------------------------------------------------------------------
    def _xtuple_at(self, l: int) -> XTuple:
        """X-tuple ``l`` as an object: built from the columns, without
        re-running its validation, on first use, and cached."""
        if self._xtuples is not None:
            return self._xtuples[l]
        xt = self._built.get(l)
        if xt is None:
            lo, hi = self.offsets[l], self.offsets[l + 1]
            xt = checked_xtuple(
                self.xids[l],
                tuple(self._tids_at(l)),
                tuple(self.values[lo:hi].tolist()),
                tuple(self.probabilities[lo:hi].tolist()),
            )
            if self._hash_records is not None:
                xt.__dict__[_HASH_RECORD] = self._hash_records[l]
            xt = self._built.setdefault(l, xt)
        return xt

    @property
    def xtuples(self) -> Tuple[XTuple, ...]:
        """The entities in insertion order (built on first read)."""
        xtuples = self._xtuples
        if xtuples is None:
            xtuples = self._xtuples = tuple(
                map(self._xtuple_at, range(len(self.xids)))
            )
        return xtuples

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_xtuples(self) -> int:
        """Number of entities ``m``."""
        return len(self.xids)

    @property
    def num_tuples(self) -> int:
        """Total number of alternatives ``n`` across all entities."""
        return len(self.values)

    def __len__(self) -> int:
        return self.num_tuples

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        """Iterate over all tuples in insertion order."""
        for xt in self.xtuples:
            yield from xt.alternatives

    def __contains__(self, tid: str) -> bool:
        return tid in self._tid_map()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ProbabilisticDatabase{label}: {self.num_xtuples} x-tuples, "
            f"{self.num_tuples} tuples>"
        )

    def xtuple_index(self, xid: str) -> int:
        """Position of the x-tuple ``xid`` in insertion order."""
        try:
            return self._xid_map()[xid]
        except KeyError:
            raise InvalidDatabaseError(f"unknown x-tuple id {xid!r}") from None

    def xtuple(self, xid: str) -> XTuple:
        """Return the x-tuple with identifier ``xid``."""
        return self._xtuple_at(self.xtuple_index(xid))

    def tids_of(self, xid: str) -> List[str]:
        """The tuple ids of the x-tuple ``xid``'s alternatives, in order."""
        return self._tids_at(self.xtuple_index(xid))

    def rows_of(self, xid: str) -> Tuple[List[str], List[Any], List[Any]]:
        """The tuple ids, values and probabilities of the x-tuple
        ``xid``'s alternatives, in order, read off the columns."""
        l = self.xtuple_index(xid)
        lo, hi = self.offsets[l], self.offsets[l + 1]
        return (
            self._tids_at(l),
            self.values[lo:hi].tolist(),
            self.probabilities[lo:hi].tolist(),
        )

    def tuple(self, tid: str) -> ProbabilisticTuple:
        """Return the tuple with identifier ``tid``."""
        try:
            row = self._tid_map()[tid]
        except KeyError:
            raise InvalidDatabaseError(f"unknown tuple id {tid!r}") from None
        l = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return self._xtuple_at(l).alternatives[row - int(self.offsets[l])]

    def has_xtuple(self, xid: str) -> bool:
        """Whether an x-tuple with identifier ``xid`` exists."""
        return xid in self._xid_map()

    def insertion_index(self, tid: str) -> int:
        """Position of ``tid`` in the database's insertion order.

        Used as the deterministic tie-breaker of the ranking function.
        """
        return self._tid_map()[tid]

    def _incomplete(self) -> np.ndarray:
        """Whether each x-tuple can produce no tuple: its null
        probability, ``max(0, 1 - s_l)``, exceeds
        :data:`~repro.db.tuples.COMPLETENESS_TOLERANCE`."""
        return np.maximum(0.0, 1.0 - self.completion) > COMPLETENESS_TOLERANCE

    @property
    def is_complete(self) -> bool:
        """``True`` when every x-tuple always produces a real tuple."""
        return not self._incomplete().any()

    def num_possible_worlds(self) -> int:
        """Exact count of possible worlds (null choices included)."""
        return int(math.prod((self.sizes + self._incomplete()).tolist()))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Deterministic SHA-256 of the database's logical content.

        Two databases with the same x-tuples (ids, alternatives, values,
        probabilities, order) hash identically regardless of how they
        were constructed -- cold load, :meth:`with_xtuples_changed`
        derivation, or deserialization.  The name is deliberately
        excluded: snapshot identity is content identity.  The service
        layer (:mod:`repro.api`) uses this as the snapshot id under
        which immutable databases are registered, so repeated
        registration of equal content is idempotent.  Computed once and
        cached (the database is immutable by convention).

        The digest is one SHA-256 over the x-tuples' records joined in
        order.  Each record is canonical JSON of ``[xid, [[tid, value,
        probability], ...]]`` plus a NUL separator.  A database built
        from x-tuples takes each record from its x-tuple's memo
        (:meth:`~repro.db.tuples.XTuple.encoded`), so databases sharing
        x-tuples encode each once; any other database encodes its
        columns (:func:`hash_records`).  Once a database has hashed it
        keeps the list of its records (one reference per x-tuple; no
        bytes are copied).  A snapshot derived from it by
        :meth:`RankedDatabase.with_xtuples_changed` or
        :meth:`RankedDatabase.with_change_set` builds its own list from
        that one, changed records replaced and removed ones dropped, at
        C speed.  Hashing a cleaning outcome therefore encodes only the
        x-tuples the cleaning changed, then pays one join and one
        SHA-256 over the whole database.
        """
        cached = self._content_hash
        if cached is not None:
            return cached
        records = self._hash_records
        if records is None:
            if self._xtuples is not None:
                records = [
                    xt.encoded(_HASH_RECORD, _hash_record) for xt in self._xtuples
                ]
            else:
                records = hash_records(
                    self.xids,
                    self.tids.tolist(),
                    self.values.tolist(),
                    self.probabilities.tolist(),
                    self.offsets.tolist(),
                )
            self._hash_records = records
        digest = hashlib.sha256(b"".join(records)).hexdigest()
        self._content_hash = digest
        return digest

    def with_xtuples_changed(
        self, changes: Mapping[str, Optional[XTuple]]
    ) -> "ProbabilisticDatabase":
        """Return a copy with some x-tuples replaced or removed.

        ``changes`` maps x-tuple ids to a replacement, or to ``None``
        for an x-tuple to delete -- a cleaning round's outcomes: a
        successful ``pclean(τ_l)`` replaces ``τ_l`` by a certain x-tuple
        (paper Definition 5 -- compare Tables I and II, where cleaning
        ``S3`` turns ``udb1`` into ``udb2``), and a revealed null
        removes it.  Returns ``self`` when ``changes`` is empty.  The
        copy's columns are spliced from this database's.
        """
        if not changes:
            return self
        return self._spliced(*self._edits(changes))

    def with_change_set(
        self, changes: Mapping[str, Optional[str]]
    ) -> "ProbabilisticDatabase":
        """Return a copy with a change set applied (see
        :meth:`RankedDatabase.derive`), spliced from this database's
        columns without a tuple object; ``self`` when ``changes`` is
        empty."""
        replaced, removed = self._change_edits(changes)
        if not (replaced or removed):
            return self
        return self._spliced(replaced, removed)

    def with_xtuple_replaced(self, xid: str, replacement: XTuple) -> "ProbabilisticDatabase":
        """Return a copy of the database with one x-tuple swapped out."""
        return self.with_xtuples_changed({xid: replacement})

    def ranked(self, ranking: Optional[RankingFunction] = None) -> "RankedDatabase":
        """Pre-sort the database under ``ranking`` (default: by value)."""
        return RankedDatabase(self, ranking or by_value())


def _insertion_scores(db: ProbabilisticDatabase, ranking: RankingFunction) -> np.ndarray:
    """The score of each of ``db``'s rows under ``ranking``, in
    insertion order: read off the value column for the by-value rule
    (``float(v)`` is ``v`` for a Python float), scored tuple by tuple
    for any other ranking."""
    if scores_by_value(ranking):
        values = db.float_column("values")
        if values is not None:
            return values
        return np.fromiter(map(float, db.values), dtype=np.float64, count=len(db))
    return np.fromiter(map(ranking.score, db), dtype=np.float64, count=len(db))


#: A cleaning outcome relative to its base: x-tuple id -> the revealed
#: tuple id it collapsed to, or ``None`` for a revealed null (removed).
ChangeSet = Dict[str, Optional[str]]


def same_content(a: XTuple, b: XTuple) -> bool:
    """Whether two x-tuples hash as one: identity, else equal records.

    Each record is memoized on its x-tuple, so the check costs at most
    one encoding per x-tuple.
    """
    return a is b or a.encoded(_HASH_RECORD, _hash_record) == b.encoded(
        _HASH_RECORD, _hash_record
    )


def change_set(
    base: ProbabilisticDatabase, outcome: ProbabilisticDatabase
) -> Optional[ChangeSet]:
    """``outcome`` as its ``base`` plus a change set, or ``None``.

    The change set exists when ``outcome`` is ``base`` with some
    x-tuples collapsed to one of their alternatives (paper Definition
    5) or removed (a revealed null), every other x-tuple kept in base
    order -- what any executed cleaning produces.  One O(m) walk of
    both x-tuple sequences; a kept x-tuple is matched by identity
    first, then by its content-hash record, so ``base.ranked(r)
    .with_change_set(changes)`` hashes exactly as ``outcome``.
    """
    changes: ChangeSet = {}
    kept = outcome.xtuples
    j = 0
    for xt in base.xtuples:
        other = kept[j] if j < len(kept) else None
        if other is None or other.xid != xt.xid:
            changes[xt.xid] = None
            continue
        j += 1
        if same_content(other, xt):
            continue
        tid = other.alternatives[0].tid
        if len(other.alternatives) != 1 or tid not in xt.tids:
            return None
        if not same_content(other, xt.collapsed_to(tid)):
            return None
        changes[xt.xid] = tid
    return changes if j == len(kept) else None


@dataclass(frozen=True, eq=False)
class RankDelta:
    """Where one change set -- a cleaning round's replaced and removed
    x-tuples -- first moved the ranked view's rows.

    Produced by :meth:`RankedDatabase.derive` and
    :meth:`RankedDatabase.with_xtuples_changed`; consumed by
    :meth:`repro.queries.engine.QuerySession.derive`.

    Attributes
    ----------
    old_ranked / new_ranked:
        The view the delta was derived from and the patched view.
    window_start:
        The first changed row: rows above it are bitwise identical
        between the views (the old row count when nothing changed).
    """

    old_ranked: "RankedDatabase"
    new_ranked: "RankedDatabase"
    window_start: int


#: Attribute names of the ranked view's canonical columnar arrays.
#: Every array listed here is write-protected at rest; patched views
#: build fresh arrays instead of writing into these.
CANONICAL_COLUMNS = (
    "scores_array",
    "insertion_array",
    "xtuple_indices_array",
    "probabilities_array",
    "completion_array",
)


class RankedDatabase:
    """A database pre-sorted in descending rank order.

    All the paper's algorithms assume this view.  Canonical storage is
    columnar -- contiguous NumPy arrays consumed by the vectorized
    kernels:

    ``probabilities_array[i]`` (float64)
        existential probability ``e_i`` of the i-th ranked tuple;
    ``xtuple_indices_array[i]`` (int64)
        dense integer index of that tuple's x-tuple (``0 .. m-1``);
    ``scores_array[i]`` (float64)
        the ranking score (descending, ties broken by insertion index);
    ``completion_array[l]`` (float64)
        ``s_l`` -- the probability that x-tuple ``l`` produces a real
        tuple;
    ``insertion_array[i]`` (int64)
        the i-th ranked tuple's index in the database's insertion
        order -- the sort's tie-break key and the one record of rank
        order: the database row ranked row ``i`` reads.

    Scalar consumers (and the reference backend) take ``tolist()`` of
    the rows they walk.

    Construction reads the database's columns (see the module
    docstring, "Cold rank"); a ranking other than by-value scores
    tuple objects, so its score callable must be a pure function of
    the tuple.
    """

    def __init__(self, db: ProbabilisticDatabase, ranking: RankingFunction) -> None:
        self.db = db
        self.ranking = ranking
        n = db.num_tuples
        raw_scores = _insertion_scores(db, ranking)
        raw_probabilities = db.probabilities.astype(np.float64, copy=False)
        # Descending score, insertion order as the deterministic
        # tie-break: lexsort's last key dominates.
        perm = np.lexsort((np.arange(n, dtype=np.int64), -raw_scores))
        self.scores_array: np.ndarray = raw_scores[perm]
        #: Insertion index of each ranked row -- the sort's tie-break
        #: key, which patched derivations replicate exactly, and the
        #: database row each ranked row reads.
        self.insertion_array: np.ndarray = perm
        self.xtuple_indices_array: np.ndarray = np.repeat(
            np.arange(db.num_xtuples, dtype=np.int64), db.sizes
        )[perm]
        self.probabilities_array: np.ndarray = raw_probabilities[perm]
        self.completion_array: np.ndarray = db.completion
        self._position: Optional[Dict[str, int]] = None
        self._order: Optional[List[ProbabilisticTuple]] = None
        self._freeze_columns()

    @classmethod
    def _patched(
        cls,
        db: ProbabilisticDatabase,
        ranking: RankingFunction,
        scores: np.ndarray,
        insertion: np.ndarray,
        xtuple_indices: np.ndarray,
        probabilities: np.ndarray,
        completion: np.ndarray,
    ) -> "RankedDatabase":
        """Assemble a ranked view directly from patched columnar arrays."""
        self = cls.__new__(cls)
        self.db = db
        self.ranking = ranking
        self.scores_array = scores
        self.insertion_array = insertion
        self.xtuple_indices_array = xtuple_indices
        self.probabilities_array = probabilities
        self.completion_array = completion
        self._position = None
        self._order = None
        self._freeze_columns()
        return self

    def _freeze_columns(self) -> None:
        """Write-protect the canonical arrays (shared-state armor).

        Sessions and the numpy kernel alias these
        arrays, so a stray in-place write would silently corrupt every
        cached result derived from the view.  With the flag cleared,
        such a write raises ``ValueError: assignment destination is
        read-only`` at the offending line instead.
        """
        for column in CANONICAL_COLUMNS:
            getattr(self, column).setflags(write=False)

    def psr_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy export of the PSR scan's input columns.

        Returns ``(probabilities_array, xtuple_indices_array)`` -- the
        canonical arrays themselves, not copies, which the numpy
        kernel (:mod:`repro.queries.psr_numpy`) scans; callers must
        treat the arrays as read-only.
        """
        return self.probabilities_array, self.xtuple_indices_array

    # ------------------------------------------------------------------
    # Tuples in rank order
    # ------------------------------------------------------------------
    def tids_at(self, rows: Any) -> List[str]:
        """The tuple ids of the ranked ``rows`` (an index array or a
        slice of ``insertion_array``): ``db.tids[insertion_array[i]]``
        for each row ``i``.  Costs O(rows) and builds no object, so an
        answer's few rows never pay for the whole view."""
        return self.db._tids_of_rows(self.insertion_array[rows])

    @property
    def order(self) -> List[ProbabilisticTuple]:
        """The ranked tuple objects: the database's tuples, built on
        demand, gathered by ``insertion_array`` on first read."""
        order = self._order
        if order is None:
            tuples = list(self.db)
            order = self._order = list(
                map(tuples.__getitem__, self.insertion_array.tolist())
            )
        return order

    @property
    def position(self) -> Dict[str, int]:
        """``tid -> rank position`` (built lazily, from the columns)."""
        if self._position is None:
            self._position = dict(
                zip(self.tids_at(slice(None)), range(self.num_tuples))
            )
        return self._position

    @property
    def xtuple_ids(self) -> List[str]:
        """The x-tuple ids by dense index: the database's ``xids``."""
        return self.db.xids

    @property
    def num_tuples(self) -> int:
        return len(self.scores_array)

    @property
    def num_xtuples(self) -> int:
        return self.db.num_xtuples

    def __len__(self) -> int:
        return self.num_tuples

    def rank_of(self, tid: str) -> int:
        """Zero-based rank position of tuple ``tid`` (0 = highest)."""
        try:
            return self.position[tid]
        except KeyError:
            raise InvalidDatabaseError(f"unknown tuple id {tid!r}") from None

    def xtuple_index_of(self, xid: str) -> int:
        """Dense index of the x-tuple ``xid`` (O(1))."""
        return self.db.xtuple_index(xid)

    def top(self, count: int) -> Sequence[ProbabilisticTuple]:
        """The ``count`` highest-ranked tuples of the whole database."""
        return self.order[:count]

    def min_real_tuples_probability(self, k: int) -> float:
        """Probability that a possible world holds at least ``k`` real tuples.

        Theorem 1 (the TP algorithm) assumes every possible world yields
        a full-length top-k result.  This check computes
        ``Pr[#real tuples >= k]`` exactly as a Poisson-binomial over the
        x-tuples' completion probabilities, so callers can verify the
        assumption cheaply (``O(m·k)``).
        """
        if k <= 0:
            return 1.0
        m = self.num_xtuples
        if k > m:
            return 0.0
        # dp[j] = Pr[j incomplete entities produce no tuple], capped at
        # the interesting range: we need Pr[#real >= k], i.e. the chance
        # that at most m-k entities are null.
        max_nulls = m - k
        dp = [1.0] + [0.0] * max_nulls
        for s in self.completion_array.tolist():
            q = 1.0 - s
            if q <= 0.0:
                continue
            for j in range(max_nulls, 0, -1):
                dp[j] = dp[j] * (1.0 - q) + dp[j - 1] * q
            dp[0] *= 1.0 - q
        return math.fsum(dp)

    # ------------------------------------------------------------------
    # Incremental derivation (array patching; no re-sort)
    # ------------------------------------------------------------------
    def _insert_positions(
        self,
        kept_scores: np.ndarray,
        kept_insertion: np.ndarray,
        scores: np.ndarray,
        insertion: np.ndarray,
    ) -> np.ndarray:
        """Where each new member lands among the surviving rows.

        Survivors are already sorted by the canonical ``(-score,
        insertion)`` key, so a binary search on the negated scores
        narrows each insert to its score-tie block and a second search
        on the insertion indices places it inside the block -- exactly
        where a full ``lexsort`` would put it.
        """
        negated = -kept_scores
        positions = np.searchsorted(negated, -scores, side="left")
        ends = np.searchsorted(negated, -scores, side="right")
        for j in np.flatnonzero(ends > positions).tolist():
            lo, hi = int(positions[j]), int(ends[j])
            positions[j] = lo + int(
                np.searchsorted(kept_insertion[lo:hi], insertion[j])
            )
        return positions

    def _row_scores(self, xid: str, rows: _Rows) -> List[float]:
        """A replacement's scores under this view's ranking, as a cold
        rank scores the same rows: ``float(v)`` of each value under the
        by-value rule, else the score of each row as a tuple object."""
        if scores_by_value(self.ranking):
            return list(map(float, rows.values))
        return [
            self.ranking.score(ProbabilisticTuple(tid, xid, value, probability))
            for tid, value, probability in zip(rows.tids, rows.values, rows.probabilities)
        ]

    def _derived(
        self, replaced: Mapping[int, _Rows], removed: List[int]
    ) -> Tuple["RankedDatabase", "RankDelta"]:
        """The view with the x-tuples at the ``replaced`` indices given
        their new rows and those at the ``removed`` indices dropped,
        and its :class:`RankDelta`; the caller has checked the edits.

        The columnar arrays are patched in O(n) instead of re-ranked:
        the changed x-tuples' rows are dropped, the replacements' rows
        binary-searched in (replicating the full sort's ``(-score,
        insertion index)`` order), and the dense indices above each
        removed x-tuple shift down.  The database is spliced alongside
        (:meth:`ProbabilisticDatabase._spliced`).
        """
        db = self.db
        m = db.num_xtuples
        # Rows of every changed x-tuple leave; the others survive in
        # their relative order.
        changed = np.zeros(m, dtype=bool)
        changed[list(replaced) + removed] = True
        row_changed = changed[self.xtuple_indices_array]
        removed_rows = np.flatnonzero(row_changed)
        survivors = np.flatnonzero(~row_changed)

        # Insertion offsets and dense indices before and after, indexed
        # by old dense index (a removed x-tuple's new size is zero).
        sizes = db.sizes
        new_sizes = sizes.copy()
        for l, rows in replaced.items():
            new_sizes[l] = len(rows.tids)
        new_sizes[removed] = 0
        offsets = np.cumsum(sizes) - sizes
        new_offsets = np.cumsum(new_sizes) - new_sizes
        is_removed = np.zeros(m, dtype=bool)
        is_removed[removed] = True
        new_index = np.arange(m, dtype=np.int64) - np.cumsum(is_removed)

        # The replacements' members in canonical (-score, insertion)
        # order, as (-score, insertion, dense index, probability).
        xids = db.xids
        entries = sorted(
            (
                -float(score),
                int(new_offsets[l]) + j,
                int(new_index[l]),
                probability,
            )
            for l, rows in replaced.items()
            for j, (score, probability) in enumerate(
                zip(self._row_scores(xids[l], rows), rows.probabilities)
            )
        )
        new_scores = np.array([-e[0] for e in entries], dtype=np.float64)
        new_ins = np.array([e[1] for e in entries], dtype=np.int64)

        kept_ins = self.insertion_array[survivors] + (new_offsets - offsets)[
            self.xtuple_indices_array[survivors]
        ]
        positions = self._insert_positions(
            self.scores_array[survivors], kept_ins, new_scores, new_ins
        )
        inserted_rows = positions + np.arange(len(entries), dtype=np.int64)

        # One source-index gather per column: new row i takes old row
        # source[i], with the inserted rows scattered on top.
        source = np.insert(survivors, positions, 0)
        scores = self.scores_array[source]
        scores[inserted_rows] = new_scores
        probabilities = self.probabilities_array[source]
        probabilities[inserted_rows] = [e[3] for e in entries]
        xtuple_indices = new_index[self.xtuple_indices_array[source]]
        xtuple_indices[inserted_rows] = [e[2] for e in entries]
        insertion = np.insert(kept_ins, positions, new_ins)

        completion = self.completion_array.copy()
        for l, rows in replaced.items():
            completion[l] = min(1.0, math.fsum(rows.probabilities))
        if removed:
            completion = np.delete(completion, removed)
        new_ranked = RankedDatabase._patched(
            db=db._spliced(replaced, removed, completion),
            ranking=self.ranking,
            scores=scores,
            insertion=insertion,
            xtuple_indices=xtuple_indices,
            probabilities=probabilities,
            completion=completion,
        )
        firsts = [
            int(rows[0]) for rows in (removed_rows, inserted_rows) if rows.size
        ]
        delta = RankDelta(
            old_ranked=self,
            new_ranked=new_ranked,
            window_start=min(firsts, default=len(self.scores_array)),
        )
        return new_ranked, delta

    def with_xtuples_changed(
        self, changes: Mapping[str, Optional[XTuple]]
    ) -> Tuple["RankedDatabase", "RankDelta"]:
        """Derive the ranked view with a set of x-tuples replaced or removed.

        ``changes`` maps x-tuple ids to a replacement x-tuple, or to
        ``None`` to delete the x-tuple outright -- one cleaning round's
        probe outcomes (a collapse to the revealed alternative, or a
        revealed null).  The replacements' rows are read from the
        x-tuples given, checked as :class:`ProbabilisticDatabase`
        checks its x-tuples' ids, and spliced in (see
        :meth:`_derived`).  The patched view is bitwise the view a cold
        ``RankedDatabase`` over the changed database builds; the
        :class:`RankDelta` names the first row that changed.
        """
        return self._derived(*self.db._edits(changes))

    def derive(
        self, changes: Mapping[str, Optional[str]]
    ) -> Tuple["RankedDatabase", "RankDelta"]:
        """The ranked view of this base with a change set applied, and
        its :class:`RankDelta`.

        ``changes`` maps x-tuple ids to the revealed tuple id (the
        x-tuple collapses to it) or to ``None`` (it is removed), as a
        cleaning's probes reveal them, :func:`change_set` returns them
        and durable state stores them.  Each collapse reads its
        revealed row off the database's columns and keeps it with
        probability 1.0 -- also a collapse that leaves the x-tuple as
        it was -- and the view and the database are spliced as
        :meth:`with_xtuples_changed` splices them (:meth:`_derived`);
        no tuple object is built.  An unknown x-tuple or tuple id, or a
        value that is neither a string nor ``None``, raises
        :class:`~repro.exceptions.InvalidDatabaseError`.
        """
        return self._derived(*self.db._change_edits(changes))

    def with_change_set(self, changes: Mapping[str, Optional[str]]) -> "RankedDatabase":
        """The ranked view of this base with a change set applied: the
        view :meth:`derive` returns, or this view when ``changes`` is
        empty."""
        replaced, removed = self.db._change_edits(changes)
        if not (replaced or removed):
            return self
        return self._derived(replaced, removed)[0]

    def with_xtuple_replaced(
        self, xid: str, replacement: XTuple
    ) -> Tuple["RankedDatabase", "RankDelta"]:
        """Derive the ranked view with one x-tuple swapped out: the
        one-entry case of :meth:`with_xtuples_changed`."""
        return self.with_xtuples_changed({xid: replacement})

    def with_xtuple_removed(
        self, xid: str
    ) -> Tuple["RankedDatabase", "RankDelta"]:
        """Derive the ranked view with one x-tuple deleted outright (a
        revealed null): the one-entry case of
        :meth:`with_xtuples_changed`."""
        return self.with_xtuples_changed({xid: None})
