"""Cleaning model: probing operations, budgets, plans (Section V-A).

A *cleaning operation* ``pclean(τ_l)`` probes entity ``τ_l`` (calls the
movie viewer, polls the sensor).  It costs ``c_l`` budget units and
succeeds with the entity's *sc-probability* ``P_l``; on success the
x-tuple collapses to one certain tuple (Definition 5), on failure
nothing changes.  Given a total budget ``C``, the *cleaning problem*
(Definition 7) picks a set of x-tuples ``X`` and per-x-tuple operation
counts ``M`` maximizing the expected quality improvement.

:class:`CleaningProblem` freezes everything the planners need -- the
per-x-tuple quality contributions ``g(l, D)`` from a TP run, costs,
sc-probabilities and the budget -- as dense arrays indexed by x-tuple
position.  :class:`CleaningPlan` is the planners' common output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Mapping, Sequence, TypeVar, Union

import numpy as np

from repro.core.tp import TPQualityResult
from repro.db.database import RankedDatabase
from repro.db.tuples import COMPLETENESS_TOLERANCE
from repro.exceptions import InvalidCleaningProblemError, UnknownXTupleError

#: |g(l, D)| below this is treated as zero: cleaning the x-tuple cannot
#: improve the quality (Lemma 5) and it is excluded from the candidate
#: set Z.
G_TOLERANCE = 1e-15

#: sc-probabilities below this are treated as zero (probing can never
#: succeed, so the x-tuple is excluded from Z).
SC_TOLERANCE = 1e-15


_T = TypeVar("_T")

#: A per-x-tuple column as the problem accepts it: a sequence of Python
#: numbers or a numpy array, in database x-tuple order.
Column = Union[Sequence[_T], np.ndarray]


@dataclass(frozen=True)
class CleaningProblem:
    """A fully specified instance of the paper's cleaning problem.

    All per-x-tuple arrays are indexed by the x-tuple's position in the
    database (the same indexing :class:`RankedDatabase` uses).  Each
    column may be given as a sequence or as a numpy array.  A numpy
    array is validated as an array -- its dtype and one vectorized
    range check, no per-element Python loop -- and every column lands
    twice: as a cached array (``g_array``, ``topk_mass_array``,
    ``costs_array``, ``sc_array``) for the vectorized planners, and as
    the tuple field of Python ints and floats that scalar readers such
    as ``problem.costs[l]`` index, so nothing read from a problem puts
    a numpy scalar into a JSON payload.

    Attributes
    ----------
    ranked:
        The ranked database the quality was computed on.
    k:
        The top-k parameter of the query being protected.
    g_by_xtuple:
        ``g(l, D) = Σ_{t_i∈τ_l} ω_i·p_i``; always <= 0; sums to the
        current quality score.
    topk_mass_by_xtuple:
        ``Σ_{t_i∈τ_l} p_i`` (drives the RandP heuristic; sums to ``k``
        on complete databases).
    costs:
        Integer probing costs ``c_l >= 1``.
    sc_probabilities:
        Success probabilities ``P_l`` in ``[0, 1]``.
    budget:
        Total budget ``C`` (a non-negative integer).
    """

    ranked: RankedDatabase
    k: int
    g_by_xtuple: Column[float]
    topk_mass_by_xtuple: Column[float]
    costs: Column[int]
    sc_probabilities: Column[float]
    budget: int

    def __post_init__(self) -> None:
        m = self.ranked.num_xtuples
        for label in (
            "g_by_xtuple",
            "topk_mass_by_xtuple",
            "costs",
            "sc_probabilities",
        ):
            size = len(getattr(self, label))
            if size != m:
                raise InvalidCleaningProblemError(
                    f"{label} has {size} entries for {m} x-tuples"
                )
        if not isinstance(self.budget, int) or isinstance(self.budget, bool):
            raise InvalidCleaningProblemError(
                f"budget must be an integer, got {self.budget!r}"
            )
        if self.budget < 0:
            raise InvalidCleaningProblemError(
                f"budget must be non-negative, got {self.budget}"
            )
        costs = self._costs_column()
        if costs.size and int(costs.min()) < 1:
            raise InvalidCleaningProblemError(
                f"costs must be positive integers, got {int(costs.min())!r}"
            )
        try:
            sc = np.asarray(self.sc_probabilities, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidCleaningProblemError(
                f"sc-probabilities must lie in [0, 1], got "
                f"{self.sc_probabilities!r}"
            ) from None
        in_range = (sc >= 0.0) & (sc <= 1.0)  # NaN fails both comparisons
        if not bool(in_range.all()):
            bad_sc = sc[np.flatnonzero(~in_range)[0]].item()
            raise InvalidCleaningProblemError(
                f"sc-probabilities must lie in [0, 1], got {bad_sc!r}"
            )
        g = np.asarray(self.g_by_xtuple, dtype=np.float64)
        if g.size and float(g.max()) > G_TOLERANCE:
            raise InvalidCleaningProblemError(
                f"g(l, D) values are weighted quality contributions and "
                f"must be <= 0, got {float(g.max())!r}"
            )
        topk_mass = np.asarray(self.topk_mass_by_xtuple, dtype=np.float64)
        for label, column, array in (
            ("g_by_xtuple", "g_array", g),
            ("topk_mass_by_xtuple", "topk_mass_array", topk_mass),
            ("costs", "costs_array", costs),
            ("sc_probabilities", "sc_array", sc),
        ):
            self.__dict__[column] = array
            values = getattr(self, label)
            if isinstance(values, np.ndarray):
                # ``tolist`` yields Python ints and floats, at C speed.
                object.__setattr__(self, label, tuple(array.tolist()))
            elif not isinstance(values, tuple):
                object.__setattr__(self, label, tuple(values))

    def _costs_column(self) -> np.ndarray:
        """The costs as an int64 array, or raise: an array by its dtype,
        a sequence also element by element (``True`` is no cost)."""
        costs = self.costs
        if isinstance(costs, np.ndarray):
            if costs.dtype.kind not in "iu":
                raise InvalidCleaningProblemError(
                    f"costs must be positive integers, got a {costs.dtype} "
                    f"array"
                )
            return costs.astype(np.int64, copy=False)
        array = np.asarray(costs, dtype=np.int64 if not costs else None)
        if costs and (
            array.dtype.kind != "i" or any(type(c) is bool for c in costs)
        ):
            # Pin down a scalar offender for the message; an oversized
            # int (object dtype, every element a true int) has none.
            bad = next(
                (
                    c
                    for c in costs
                    if not isinstance(c, int) or isinstance(c, bool)
                ),
                max(costs),
            )
            raise InvalidCleaningProblemError(
                f"costs must be positive integers, got {bad!r}"
            )
        return array.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    @property
    def num_xtuples(self) -> int:
        return self.ranked.num_xtuples

    @property
    def quality(self) -> float:
        """The current quality score ``S(D, Q) = Σ_l g(l, D)``."""
        return math.fsum(self.g_by_xtuple)

    def xtuple_id(self, l: int) -> str:
        """Identifier of the x-tuple at index ``l``."""
        return self.ranked.xtuple_ids[l]

    def xtuple_index(self, xid: str) -> int:
        """Dense index of the x-tuple with identifier ``xid`` (O(1))."""
        from repro.exceptions import InvalidDatabaseError

        try:
            return self.ranked.xtuple_index_of(xid)
        except InvalidDatabaseError:
            raise InvalidCleaningProblemError(f"unknown x-tuple id {xid!r}") from None

    # ------------------------------------------------------------------
    # Columnar views: set by ``__post_init__`` (a frozen dataclass may
    # still write its own ``__dict__``, as ``cached_property`` does)
    # ------------------------------------------------------------------
    @cached_property
    def g_array(self) -> np.ndarray:
        """``g(l, D)`` as a float64 array."""
        return np.array(self.g_by_xtuple, dtype=np.float64)

    @cached_property
    def topk_mass_array(self) -> np.ndarray:
        """The top-k masses as a float64 array."""
        return np.array(self.topk_mass_by_xtuple, dtype=np.float64)

    @cached_property
    def costs_array(self) -> np.ndarray:
        """Probing costs as an int64 array."""
        return np.array(self.costs, dtype=np.int64)

    @cached_property
    def sc_array(self) -> np.ndarray:
        """sc-probabilities as a float64 array."""
        return np.array(self.sc_probabilities, dtype=np.float64)

    @cached_property
    def probe_mask(self) -> np.ndarray:
        """The candidate set ``Z`` without its budget term: the
        x-tuples a probe can improve at all, whatever it costs.

        Excludes ``g(l, D) = 0`` (Lemma 5), a certain x-tuple (one
        alternative, completion 1: Definition 5 leaves it as it is,
        whatever float residue a fresh TP pass leaves in its g(l, D)),
        and zero sc-probability.
        """
        ranked = self.ranked
        sizes = np.bincount(
            ranked.xtuple_indices_array, minlength=ranked.num_xtuples
        )
        certain = (sizes == 1) & (
            1.0 - ranked.completion_array <= COMPLETENESS_TOLERANCE
        )
        return (
            (self.g_array < -G_TOLERANCE)
            & ~certain
            & (self.sc_array > SC_TOLERANCE)
        )

    def candidate_indices(self) -> List[int]:
        """The candidate set ``Z``: x-tuples worth probing at all.

        Excludes x-tuples whose cleaning provably cannot improve the
        expected quality (see :attr:`probe_mask`) and those whose cost
        exceeds the whole budget.
        """
        return np.flatnonzero(
            self.probe_mask & (self.costs_array <= self.budget)
        ).tolist()

    def max_operations(self, l: int) -> int:
        """``J_l = floor(C / c_l)``: most probes of ``τ_l`` the budget allows."""
        return self.budget // self.costs[l]

    def with_budget(self, budget: int) -> "CleaningProblem":
        """The same instance under a different budget (used by sweeps)."""
        return CleaningProblem(
            ranked=self.ranked,
            k=self.k,
            g_by_xtuple=self.g_array,
            topk_mass_by_xtuple=self.topk_mass_array,
            costs=self.costs_array,
            sc_probabilities=self.sc_array,
            budget=budget,
        )


def _by_xtuple(
    ranked: RankedDatabase,
    source: Union[Mapping[str, _T], Iterable[_T]],
    label: str,
) -> Column[_T]:
    """``source`` as a column in ``ranked``'s x-tuple order.

    A mapping is checked and gathered in x-tuple order (see
    :func:`build_cleaning_problem`); a numpy array or any other
    iterable is already in that order and must have one entry per
    x-tuple.
    """
    m = ranked.num_xtuples
    if isinstance(source, Mapping):
        ids = ranked.xtuple_ids
        missing = [xid for xid in ids if xid not in source]
        if missing:
            raise UnknownXTupleError(label, missing[0])
        if len(source) != m:
            known = set(ids)
            unknown = [xid for xid in source if xid not in known]
            raise UnknownXTupleError(label, unknown[0], reason="names unknown")
        return [source[xid] for xid in ids]
    values: Column[_T] = (
        source if isinstance(source, np.ndarray) else tuple(source)
    )
    if len(values) != m:
        raise InvalidCleaningProblemError(
            f"{label} sequence has {len(values)} entries for {m} x-tuples"
        )
    return values


def build_cleaning_problem(
    quality: TPQualityResult,
    costs: Union[Mapping[str, int], Iterable[int]],
    sc_probabilities: Union[Mapping[str, float], Iterable[float]],
    budget: int,
) -> CleaningProblem:
    """Assemble a :class:`CleaningProblem` from a TP quality result.

    ``costs`` and ``sc_probabilities`` may be mappings keyed by x-tuple
    id, which must name every x-tuple and nothing else (else
    :class:`~repro.exceptions.UnknownXTupleError` names the first
    offender), or sequences or numpy arrays in database x-tuple order
    -- the service passes the arrays its seeded draws produce.
    ``g(l, D)`` and the top-k masses come from the TP result as arrays
    (``g_by_xtuple_array``, ``topk_mass_by_xtuple_array``); only the
    scalar oracle (``backend="python"``) keeps its scalar ``g``.
    """
    ranked = quality.ranked
    g: Column[float] = (
        quality.g_by_xtuple()
        if quality.backend == "python"
        else quality.g_by_xtuple_array()
    )
    return CleaningProblem(
        ranked=ranked,
        k=quality.k,
        g_by_xtuple=g,
        topk_mass_by_xtuple=(
            quality.rank_probabilities.topk_mass_by_xtuple_array()
        ),
        costs=_by_xtuple(ranked, costs, "costs"),
        sc_probabilities=_by_xtuple(ranked, sc_probabilities, "sc_probabilities"),
        budget=budget,
    )


@dataclass(frozen=True)
class CleaningPlan:
    """A cleaning decision: how many times to probe each chosen x-tuple.

    ``operations`` maps x-tuple ids to probe counts ``M_l >= 1``;
    x-tuples outside the mapping are not probed.  Plans are value
    objects -- planners return them, the executor consumes them.
    """

    operations: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen = dict(self.operations)
        for xid, count in frozen.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise InvalidCleaningProblemError(
                    f"operation count for {xid!r} must be a positive integer, "
                    f"got {count!r}"
                )
        object.__setattr__(self, "operations", frozen)

    def __len__(self) -> int:
        return len(self.operations)

    def __contains__(self, xid: str) -> bool:
        return xid in self.operations

    def count(self, xid: str) -> int:
        """Probe count for one x-tuple (0 when not in the plan)."""
        return self.operations.get(xid, 0)

    @property
    def total_operations(self) -> int:
        return sum(self.operations.values())

    def total_cost(self, problem: CleaningProblem) -> int:
        """``Σ_l c_l·M_l`` under the problem's cost vector."""
        return sum(
            problem.costs[problem.xtuple_index(xid)] * count
            for xid, count in self.operations.items()
        )

    def is_feasible(self, problem: CleaningProblem) -> bool:
        """Whether the plan fits the problem's budget."""
        return self.total_cost(problem) <= problem.budget


#: The empty plan (probe nothing) -- improvement zero, cost zero.
EMPTY_PLAN = CleaningPlan(operations={})
