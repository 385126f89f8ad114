"""The probabilistic database and its ranked (pre-sorted) view.

:class:`ProbabilisticDatabase` stores x-tuples (Section III-A of the
paper).  The quality and cleaning algorithms never consume the raw
database directly; they consume a :class:`RankedDatabase` -- the
database's tuples pre-sorted in descending rank order under a chosen
ranking function.  This mirrors the paper's standing assumption that
"tuples in D are arranged in descending order of ranks" (Section IV)
while paying the sort exactly once per (database, ranking) pair.

The ranked view's canonical storage is *columnar*: contiguous
``float64`` / ``int64`` NumPy arrays (``probabilities_array``,
``xtuple_indices_array``, ``scores_array``, ``completion_array``) that
the vectorized kernels consume directly.  The historical list
attributes (``probabilities``, ``xtuple_indices``, ``scores``,
``completion``) survive as lazily materialized views of those arrays,
so scalar code -- including the pure-Python reference backend -- keeps
working unchanged.

Cold rank
---------
A cold :class:`RankedDatabase` reads its inputs from per-x-tuple memos
on :class:`~repro.db.tuples.XTuple` -- ``tids``, ``probabilities``,
``completion_probability`` and the ``scores`` under one score callable
-- instead of visiting every tuple in Python: one ``np.fromiter`` per
column, one ``lexsort`` on ``(-score, insertion index)``, ``np.repeat``
for the x-tuple indices, then a gather by the sort permutation.
Snapshots that share ``XTuple`` objects (a cleaning chain, the segments
of one store open) score each shared x-tuple once.  The columns and
``order`` are bitwise those of a tuple-by-tuple construction.  A
:class:`ProbabilisticDatabase` checks its ids the same way, with set
operations over the memoized tids, and builds its per-tuple lookup maps
on first use.

Incremental derivation
----------------------
A cleaning round replaces or removes a few x-tuples -- one per
successful probe -- so the ranked view supports *patched* derivation:
:meth:`RankedDatabase.with_xtuples_changed` splices the changed
x-tuples' rows out of / into the columnar arrays in O(n) (a boolean
gather plus a ``np.searchsorted`` insert that replicates the full
sort's exact ``(-score, insertion index)`` tie-breaking) instead of
re-sorting, and returns one :class:`RankDelta` for the whole change
set.  The query engine (:meth:`repro.queries.engine.QuerySession.derive`)
reads its first changed row to decide which cached PSR passes still
hold for the patched view.

Durable state stores a cleaning outcome as its base plus a *change
set*, ``{xid: revealed tid, or None for a revealed null}``:
:func:`change_set` extracts it from a base and an outcome, and
:meth:`RankedDatabase.with_change_set` applies it through the same
splice.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.db.ranking import RankingFunction, by_value
from repro.db.tuples import ProbabilisticTuple, XTuple
from repro.exceptions import InvalidDatabaseError

#: Mirror of :data:`repro.queries.psr.SATURATION_EPSILON` (the queries
#: layer imports this one, so the two can never drift apart).  A factor
#: whose cumulative mass reaches ``1 - ε`` behaves as a certain
#: higher-ranked tuple in the PSR scan.
SATURATION_EPSILON = 1e-12

#: Memo key of an x-tuple's content-hash record (see :meth:`XTuple.encoded`).
_HASH_RECORD = "_hash_record"


def _hash_record(xt: XTuple) -> bytes:
    """One x-tuple's share of :meth:`ProbabilisticDatabase.content_hash`."""
    record = [xt.xid, [[t.tid, t.value, t.probability] for t in xt.alternatives]]
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return canonical.encode() + b"\x00"


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


class ProbabilisticDatabase:
    """An x-tuple probabilistic database.

    The database is immutable by convention: cleaning produces *new*
    databases via :meth:`with_xtuples_changed` rather than mutating in
    place, so that quality scores computed against one snapshot stay
    meaningful.

    Parameters
    ----------
    xtuples:
        The entities of the database, in insertion order.  Insertion
        order of their member tuples defines the tie-breaking order of
        the ranking (smaller index ranks higher on equal scores).
    name:
        Optional label used in reprs and benchmark output.
    """

    def __init__(self, xtuples: Iterable[XTuple], name: str = "") -> None:
        self._xtuples: Tuple[XTuple, ...] = tuple(xtuples)
        self.name = name
        by_xid = {xt.xid: xt for xt in self._xtuples}
        tids = list(chain.from_iterable([xt.tids for xt in self._xtuples]))
        if len(by_xid) < len(self._xtuples) or len(set(tids)) < len(tids):
            _raise_first_duplicate(self._xtuples)
        self._by_xid: Optional[Dict[str, XTuple]] = by_xid
        self._tid_maps: Optional[
            Tuple[Dict[str, ProbabilisticTuple], Dict[str, int]]
        ] = None
        self._num_tuples = len(tids)

    @classmethod
    def _derived(
        cls, xtuples: Tuple[XTuple, ...], name: str, num_tuples: int
    ) -> "ProbabilisticDatabase":
        """Trusted fast-path constructor for cleaning derivations.

        :meth:`RankedDatabase.with_xtuples_changed` has already checked
        the replacements' ids against the database, so the duplicate
        check is skipped and the O(m) x-tuple map is deferred to first
        use (:meth:`xtuple`), like the per-tuple maps every database
        builds lazily.  Internal use only -- arbitrary
        x-tuple collections must go through ``__init__``.
        """
        self = cls.__new__(cls)
        self._xtuples = tuple(xtuples)
        self.name = name
        self._by_xid = None
        self._tid_maps = None
        self._num_tuples = num_tuples
        return self

    def _xid_map(self) -> Dict[str, XTuple]:
        if self._by_xid is None:
            self._by_xid = {xt.xid: xt for xt in self._xtuples}
        return self._by_xid

    def _tuple_maps(
        self,
    ) -> Tuple[Dict[str, ProbabilisticTuple], Dict[str, int]]:
        """The per-tuple lookup maps ``tid -> tuple`` and ``tid ->
        insertion index``, built on first use.

        Both land in one attribute, so a thread never sees one map
        without the other.
        """
        maps = self._tid_maps
        if maps is None:
            tids = list(chain.from_iterable([xt.tids for xt in self._xtuples]))
            alternatives = chain.from_iterable(
                [xt.alternatives for xt in self._xtuples]
            )
            maps = self._tid_maps = (
                dict(zip(tids, alternatives)),
                dict(zip(tids, range(len(tids)))),
            )
        return maps

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def xtuples(self) -> Tuple[XTuple, ...]:
        """The entities in insertion order."""
        return self._xtuples

    @property
    def num_xtuples(self) -> int:
        """Number of entities ``m``."""
        return len(self._xtuples)

    @property
    def num_tuples(self) -> int:
        """Total number of alternatives ``n`` across all entities."""
        return self._num_tuples

    def __len__(self) -> int:
        return self.num_tuples

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        """Iterate over all tuples in insertion order."""
        for xt in self._xtuples:
            yield from xt.alternatives

    def __contains__(self, tid: str) -> bool:
        return tid in self._tuple_maps()[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ProbabilisticDatabase{label}: {self.num_xtuples} x-tuples, "
            f"{self.num_tuples} tuples>"
        )

    def xtuple(self, xid: str) -> XTuple:
        """Return the x-tuple with identifier ``xid``."""
        try:
            return self._xid_map()[xid]
        except KeyError:
            raise InvalidDatabaseError(f"unknown x-tuple id {xid!r}") from None

    def tuple(self, tid: str) -> ProbabilisticTuple:
        """Return the tuple with identifier ``tid``."""
        try:
            return self._tuple_maps()[0][tid]
        except KeyError:
            raise InvalidDatabaseError(f"unknown tuple id {tid!r}") from None

    def has_xtuple(self, xid: str) -> bool:
        """Whether an x-tuple with identifier ``xid`` exists."""
        return xid in self._xid_map()

    def insertion_index(self, tid: str) -> int:
        """Position of ``tid`` in the database's insertion order.

        Used as the deterministic tie-breaker of the ranking function.
        """
        return self._tuple_maps()[1][tid]

    @property
    def is_complete(self) -> bool:
        """``True`` when every x-tuple always produces a real tuple."""
        return all(xt.is_complete for xt in self._xtuples)

    def num_possible_worlds(self) -> int:
        """Exact count of possible worlds (null choices included)."""
        count = 1
        for xt in self._xtuples:
            count *= len(xt.alternatives) + (0 if xt.is_complete else 1)
        return count

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
        order.  Each record -- canonical JSON of ``[xid, [[tid, value,
        probability], ...]]`` plus a NUL separator -- is itself cached
        on its :class:`~repro.db.tuples.XTuple`, and a derived snapshot
        (:meth:`RankedDatabase.with_xtuples_changed`) shares every
        unchanged ``XTuple`` with its base.  Hashing a cleaning outcome
        therefore encodes only the x-tuples the cleaning changed, then
        pays one join and one SHA-256 over the whole database.
        """
        cached = getattr(self, "_content_hash", None)
        if cached is not None:
            return cached
        records = b"".join(
            [xt.encoded(_HASH_RECORD, _hash_record) for xt in self._xtuples]
        )
        digest = hashlib.sha256(records).hexdigest()
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
        removes it.  Returns ``self`` when ``changes`` is empty.
        """
        if not changes:
            return self
        for xid, replacement in changes.items():
            if xid not in self._xid_map():
                raise InvalidDatabaseError(f"unknown x-tuple id {xid!r}")
            if replacement is not None and replacement.xid != xid:
                raise InvalidDatabaseError(
                    f"replacement x-tuple has id {replacement.xid!r}, "
                    f"expected {xid!r}"
                )
        kept = [changes.get(xt.xid, xt) for xt in self._xtuples]
        return ProbabilisticDatabase(
            [xt for xt in kept if xt is not None], name=self.name
        )

    def with_xtuple_replaced(self, xid: str, replacement: XTuple) -> "ProbabilisticDatabase":
        """Return a copy of the database with one x-tuple swapped out."""
        return self.with_xtuples_changed({xid: replacement})

    def ranked(self, ranking: Optional[RankingFunction] = None) -> "RankedDatabase":
        """Pre-sort the database under ``ranking`` (default: by value)."""
        return RankedDatabase(self, ranking or by_value())


#: A cleaning outcome relative to its base: x-tuple id -> the revealed
#: tuple id it collapsed to, or ``None`` for a revealed null (removed).
ChangeSet = Dict[str, Optional[str]]


def _same_content(a: XTuple, b: XTuple) -> bool:
    """Whether two x-tuples hash as one: identity, else equal records."""
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
        if _same_content(other, xt):
            continue
        tid = other.alternatives[0].tid
        if len(other.alternatives) != 1 or tid not in xt.tids:
            return None
        if not _same_content(other, xt.collapsed_to(tid)):
            return None
        changes[xt.xid] = tid
    return changes if j == len(kept) else None


@dataclass(frozen=True, eq=False)
class RankDelta:
    """Where one change set -- a cleaning round's replaced and removed
    x-tuples -- first moved the ranked view's rows.

    Produced by :meth:`RankedDatabase.with_xtuples_changed`; consumed by
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


def _splice_list(items: List, removed: np.ndarray, positions: np.ndarray, values: List) -> List:
    """``items`` with rows ``removed`` dropped and ``values`` inserted.

    ``positions`` are insertion points relative to the survivor list
    (``np.insert`` semantics).  Slice-level copying keeps the whole
    splice at C speed.
    """
    out: List = []
    prev = 0
    for r in removed.tolist():
        out.extend(items[prev:r])
        prev = r + 1
    out.extend(items[prev:])
    for offset, (pos, value) in enumerate(zip(positions.tolist(), values)):
        out.insert(pos + offset, value)
    return out


class _OrderPatch:
    """A deferred splice of a ranked ``order`` list.

    The tuple-object list is the one column nothing on the cleaning hot
    path reads -- the kernels consume the numeric arrays -- so a patched
    view records its change set's splice and materializes only when
    (and if) someone asks for ``order`` / ``position``; reading the
    view's length does not.  Holds the *parent's order
    state* (a list, or another pending patch), never the parent view
    itself, so dropped intermediate snapshots stay collectable.
    """

    __slots__ = ("parent", "removed", "positions", "values")

    def __init__(
        self,
        parent: Union["_OrderPatch", List[ProbabilisticTuple]],
        removed: np.ndarray,
        positions: np.ndarray,
        values: List[ProbabilisticTuple],
    ) -> None:
        self.parent = parent
        self.removed = removed
        self.positions = positions
        self.values = values

    def materialize(self) -> List[ProbabilisticTuple]:
        # Collapse the whole pending chain iteratively (chains grow one
        # link per cleaning round; recursion would hit limits on long
        # runs).
        chain = [self]
        parent = self.parent
        while isinstance(parent, _OrderPatch):
            chain.append(parent)
            parent = parent.parent
        items = parent
        for patch in reversed(chain):
            items = _splice_list(
                items, patch.removed, patch.positions, patch.values
            )
        return items


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
        tuple.

    The list attributes ``probabilities`` / ``xtuple_indices`` /
    ``scores`` / ``completion`` are lazily built plain-Python views of
    those arrays, kept for scalar consumers (and the reference
    backend).

    Construction scores through :meth:`~repro.db.tuples.XTuple.scores`,
    memoized per x-tuple under the ranking's score callable, so that
    callable must be a pure function of the tuple (see the module
    docstring, "Cold rank").
    """

    def __init__(self, db: ProbabilisticDatabase, ranking: RankingFunction) -> None:
        self.db = db
        self.ranking = ranking
        xtuples = db.xtuples
        n, m = db.num_tuples, len(xtuples)
        # Insertion-order columns, read from each x-tuple's memos: an
        # x-tuple shared with other snapshots is scored once per score
        # callable, not once per snapshot.
        score = ranking.score
        raw_scores = np.fromiter(
            chain.from_iterable([xt.scores(score) for xt in xtuples]),
            dtype=np.float64,
            count=n,
        )
        raw_probabilities = np.fromiter(
            chain.from_iterable([xt.probabilities for xt in xtuples]),
            dtype=np.float64,
            count=n,
        )
        sizes = np.fromiter(
            [len(xt.alternatives) for xt in xtuples], dtype=np.int64, count=m
        )
        # Descending score, insertion order as the deterministic
        # tie-break: lexsort's last key dominates.
        insertion = np.arange(n, dtype=np.int64)
        perm = np.lexsort((insertion, -raw_scores))
        tuples = list(chain.from_iterable([xt.alternatives for xt in xtuples]))
        self._order_state: Union[List[ProbabilisticTuple], _OrderPatch] = list(
            map(tuples.__getitem__, perm.tolist())
        )
        self.scores_array: np.ndarray = raw_scores[perm]
        #: Insertion index of each ranked row -- the sort's tie-break
        #: key, kept so patched derivations can replicate it exactly.
        self.insertion_array: np.ndarray = perm
        self.xtuple_ids: List[str] = [xt.xid for xt in xtuples]
        self.xtuple_indices_array: np.ndarray = np.repeat(
            np.arange(m, dtype=np.int64), sizes
        )[perm]
        self.probabilities_array: np.ndarray = raw_probabilities[perm]
        self.completion_array: np.ndarray = np.fromiter(
            [xt.completion_probability for xt in xtuples],
            dtype=np.float64,
            count=m,
        )
        self._xid_to_index_map: Optional[Dict[str, int]] = None
        # Lazily materialized views (rebuilt on demand after patching).
        self._position: Optional[Dict[str, int]] = None
        self._scores_list: Optional[List[float]] = None
        self._xtuple_indices_list: Optional[List[int]] = None
        self._probabilities_list: Optional[List[float]] = None
        self._completion_list: Optional[List[float]] = None
        self._freeze_columns()

    @classmethod
    def _patched(
        cls,
        db: ProbabilisticDatabase,
        ranking: RankingFunction,
        order: List[ProbabilisticTuple],
        scores: np.ndarray,
        insertion: np.ndarray,
        xtuple_indices: np.ndarray,
        probabilities: np.ndarray,
        completion: np.ndarray,
        xtuple_ids: List[str],
        xid_to_index: Optional[Dict[str, int]],
    ) -> "RankedDatabase":
        """Assemble a ranked view directly from patched columnar arrays."""
        self = cls.__new__(cls)
        self.db = db
        self.ranking = ranking
        self._order_state = order
        self.scores_array = scores
        self.insertion_array = insertion
        self.xtuple_indices_array = xtuple_indices
        self.probabilities_array = probabilities
        self.completion_array = completion
        self.xtuple_ids = xtuple_ids
        self._xid_to_index_map = xid_to_index
        self._position = None
        self._scores_list = None
        self._xtuple_indices_list = None
        self._probabilities_list = None
        self._completion_list = None
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
    # List views (back-compat API over the canonical arrays)
    # ------------------------------------------------------------------
    @property
    def order(self) -> List[ProbabilisticTuple]:
        """The ranked tuple objects (materialized lazily after patches)."""
        if isinstance(self._order_state, _OrderPatch):
            self._order_state = self._order_state.materialize()
        return self._order_state

    @property
    def position(self) -> Dict[str, int]:
        """``tid -> rank position`` (built lazily)."""
        if self._position is None:
            self._position = {t.tid: i for i, t in enumerate(self.order)}
        return self._position

    @property
    def _xid_to_index(self) -> Dict[str, int]:
        if self._xid_to_index_map is None:
            self._xid_to_index_map = {
                xid: l for l, xid in enumerate(self.xtuple_ids)
            }
        return self._xid_to_index_map
    @property
    def scores(self) -> List[float]:
        """Ranking scores as a plain list (view of ``scores_array``)."""
        if self._scores_list is None:
            self._scores_list = self.scores_array.tolist()
        return self._scores_list

    @property
    def xtuple_indices(self) -> List[int]:
        """Dense x-tuple indices as a plain list."""
        if self._xtuple_indices_list is None:
            self._xtuple_indices_list = self.xtuple_indices_array.tolist()
        return self._xtuple_indices_list

    @property
    def probabilities(self) -> List[float]:
        """Existential probabilities as a plain list."""
        if self._probabilities_list is None:
            self._probabilities_list = self.probabilities_array.tolist()
        return self._probabilities_list

    @property
    def completion(self) -> List[float]:
        """Per-x-tuple completion probabilities as a plain list."""
        if self._completion_list is None:
            self._completion_list = self.completion_array.tolist()
        return self._completion_list

    @property
    def num_tuples(self) -> int:
        # Read a canonical column, not ``order``: that would materialize
        # a patched view's deferred splice.
        return len(self.scores_array)

    @property
    def num_xtuples(self) -> int:
        return len(self.xtuple_ids)

    def __len__(self) -> int:
        return self.num_tuples

    def rank_of(self, tid: str) -> int:
        """Zero-based rank position of tuple ``tid`` (0 = highest)."""
        return self.position[tid]

    def xtuple_index_of(self, xid: str) -> int:
        """Dense index of the x-tuple ``xid`` (O(1))."""
        try:
            return self._xid_to_index[xid]
        except KeyError:
            raise InvalidDatabaseError(f"unknown x-tuple id {xid!r}") from None

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
        for s in self.completion:
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

    def _check_tids(
        self, replacements: Iterable[XTuple], old: Iterable[XTuple]
    ) -> None:
        """Mirror :class:`ProbabilisticDatabase`'s duplicate-tid check
        for the replacements' members.

        A tid one of the ``old`` (changed) x-tuples held -- a collapse
        keeps its revealed alternative's -- cannot clash with an
        unchanged x-tuple, so only fresh tids consult the database's
        tuple map.
        """
        own = set(chain.from_iterable([xt.tids for xt in old]))
        seen: Set[str] = set()
        for tid in chain.from_iterable([xt.tids for xt in replacements]):
            if tid in seen or (tid not in own and tid in self.db):
                raise InvalidDatabaseError(
                    f"duplicate tuple id {tid!r} across x-tuples"
                )
            seen.add(tid)

    def with_xtuples_changed(
        self, changes: Mapping[str, Optional[XTuple]]
    ) -> Tuple["RankedDatabase", "RankDelta"]:
        """Derive the ranked view with a set of x-tuples replaced or removed.

        ``changes`` maps x-tuple ids to a replacement x-tuple, or to
        ``None`` to delete the x-tuple outright -- one cleaning round's
        probe outcomes (a collapse to the revealed alternative, or a
        revealed null).  The columnar arrays are patched in O(n) instead
        of re-ranked: the changed x-tuples' rows are dropped, the
        replacements' rows binary-searched in (replicating the full
        sort's ``(-score, insertion index)`` order), and the dense
        indices above each removed x-tuple shift down.  The patched view
        is bitwise the view a cold ``RankedDatabase`` over the changed
        database builds; the :class:`RankDelta` names the first row
        that changed.
        """
        xtuples = list(self.db.xtuples)
        replaced: Dict[int, XTuple] = {}
        removed: List[int] = []
        for xid, replacement in changes.items():
            l = self.xtuple_index_of(xid)
            if replacement is None:
                removed.append(l)
            elif replacement.xid != xid:
                raise InvalidDatabaseError(
                    f"replacement x-tuple has id {replacement.xid!r}, "
                    f"expected {xid!r}"
                )
            else:
                replaced[l] = replacement
        self._check_tids(
            replaced.values(), [xtuples[l] for l in chain(replaced, removed)]
        )

        # Rows of every changed x-tuple leave; the others survive in
        # their relative order.
        m = len(xtuples)
        changed = np.zeros(m, dtype=bool)
        changed[list(replaced) + removed] = True
        row_changed = changed[self.xtuple_indices_array]
        removed_rows = np.flatnonzero(row_changed)
        survivors = np.flatnonzero(~row_changed)

        # Insertion offsets and dense indices before and after, indexed
        # by old dense index (a removed x-tuple's new size is zero).
        sizes = np.bincount(self.xtuple_indices_array, minlength=m)
        new_sizes = sizes.copy()
        for l, replacement in replaced.items():
            new_sizes[l] = len(replacement.alternatives)
        new_sizes[removed] = 0
        offsets = np.cumsum(sizes) - sizes
        new_offsets = np.cumsum(new_sizes) - new_sizes
        is_removed = np.zeros(m, dtype=bool)
        is_removed[removed] = True
        new_index = np.arange(m, dtype=np.int64) - np.cumsum(is_removed)

        # The replacements' members in canonical (-score, insertion)
        # order, as (-score, insertion, dense index, tuple).
        score = self.ranking.score
        entries = sorted(
            (-float(value), int(new_offsets[l]) + j, int(new_index[l]), t)
            for l, xt in replaced.items()
            for j, (t, value) in enumerate(
                zip(xt.alternatives, xt.scores(score))
            )
        )
        members = [t for _, _, _, t in entries]
        new_scores = np.array([-e[0] for e in entries], dtype=np.float64)
        new_ins = np.array([e[1] for e in entries], dtype=np.int64)

        kept_ins = self.insertion_array[survivors] + (new_offsets - offsets)[
            self.xtuple_indices_array[survivors]
        ]
        positions = self._insert_positions(
            self.scores_array[survivors], kept_ins, new_scores, new_ins
        )
        inserted_rows = positions + np.arange(len(members), dtype=np.int64)

        # One source-index gather per column: new row i takes old row
        # source[i], with the inserted rows scattered on top.
        source = np.insert(survivors, positions, 0)
        scores = self.scores_array[source]
        scores[inserted_rows] = new_scores
        probabilities = self.probabilities_array[source]
        probabilities[inserted_rows] = [t.probability for t in members]
        xtuple_indices = new_index[self.xtuple_indices_array[source]]
        xtuple_indices[inserted_rows] = [e[2] for e in entries]
        insertion = np.insert(kept_ins, positions, new_ins)

        completion = self.completion_array.copy()
        for l, replacement in replaced.items():
            xtuples[l] = replacement
            completion[l] = replacement.completion_probability
        xtuple_ids = self.xtuple_ids
        xid_to_index = self._xid_to_index_map
        if removed:
            keep = np.flatnonzero(~is_removed).tolist()
            xtuples = [xtuples[l] for l in keep]
            xtuple_ids = [xtuple_ids[l] for l in keep]
            completion = completion[keep]
            xid_to_index = None
        new_ranked = RankedDatabase._patched(
            db=ProbabilisticDatabase._derived(
                tuple(xtuples), self.db.name, len(scores)
            ),
            ranking=self.ranking,
            order=_OrderPatch(self._order_state, removed_rows, positions, members),
            scores=scores,
            insertion=insertion,
            xtuple_indices=xtuple_indices,
            probabilities=probabilities,
            completion=completion,
            xtuple_ids=xtuple_ids,
            xid_to_index=xid_to_index,
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

    def with_change_set(self, changes: Mapping[str, Optional[str]]) -> "RankedDatabase":
        """The ranked view of this base with a change set applied.

        ``changes`` maps x-tuple ids to the revealed tuple id (the
        x-tuple collapses to it) or to ``None`` (it is removed), as
        :func:`change_set` returns and durable state stores it; the
        view derives through :meth:`with_xtuples_changed`.  An unknown
        x-tuple or tuple id, or a value that is neither a string nor
        ``None``, raises :class:`~repro.exceptions.InvalidDatabaseError`.
        """
        if not isinstance(changes, Mapping):
            raise InvalidDatabaseError(
                f"a change set must be a mapping, got {type(changes).__name__}"
            )
        replacements: Dict[str, Optional[XTuple]] = {}
        for xid, tid in changes.items():
            if tid is not None and not isinstance(tid, str):
                raise InvalidDatabaseError(
                    f"change of x-tuple {xid!r} must be a tuple id or null, "
                    f"got {tid!r}"
                )
            xt = self.db.xtuple(xid)
            replacements[xid] = None if tid is None else xt.collapsed_to(tid)
        if not replacements:
            return self
        return self.with_xtuples_changed(replacements)[0]

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
