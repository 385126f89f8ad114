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
from typing import Iterable, List, Mapping, Tuple, Union

import numpy as np

from repro.core.tp import TPQualityResult
from repro.db.database import RankedDatabase
from repro.exceptions import InvalidCleaningProblemError, UnknownXTupleError

#: |g(l, D)| below this is treated as zero: cleaning the x-tuple cannot
#: improve the quality (Lemma 5) and it is excluded from the candidate
#: set Z.
G_TOLERANCE = 1e-15

#: sc-probabilities below this are treated as zero (probing can never
#: succeed, so the x-tuple is excluded from Z).
SC_TOLERANCE = 1e-15


@dataclass(frozen=True)
class CleaningProblem:
    """A fully specified instance of the paper's cleaning problem.

    All per-x-tuple arrays are indexed by the x-tuple's position in the
    database (the same indexing :class:`RankedDatabase` uses).

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
    g_by_xtuple: Tuple[float, ...]
    topk_mass_by_xtuple: Tuple[float, ...]
    costs: Tuple[int, ...]
    sc_probabilities: Tuple[float, ...]
    budget: int

    def __post_init__(self) -> None:
        m = self.ranked.num_xtuples
        for label, arr in (
            ("g_by_xtuple", self.g_by_xtuple),
            ("topk_mass_by_xtuple", self.topk_mass_by_xtuple),
            ("costs", self.costs),
            ("sc_probabilities", self.sc_probabilities),
        ):
            if len(arr) != m:
                raise InvalidCleaningProblemError(
                    f"{label} has {len(arr)} entries for {m} x-tuples"
                )
        if not isinstance(self.budget, int) or isinstance(self.budget, bool):
            raise InvalidCleaningProblemError(
                f"budget must be an integer, got {self.budget!r}"
            )
        if self.budget < 0:
            raise InvalidCleaningProblemError(
                f"budget must be non-negative, got {self.budget}"
            )
        # Range/type checks run as single array expressions (the
        # problem is rebuilt once per adaptive round, so O(m)
        # Python-level loops here used to show up on profiles); the
        # offending entry is only hunted down scalar-style on failure.
        costs = np.asarray(self.costs, dtype=np.int64 if not self.costs else None)
        if self.costs and (
            costs.dtype.kind != "i"
            or any(type(c) is bool for c in self.costs)
        ):
            # Pin down a scalar offender for the message; an oversized
            # int (object dtype, every element a true int) has none.
            bad = next(
                (
                    c
                    for c in self.costs
                    if not isinstance(c, int) or isinstance(c, bool)
                ),
                max(self.costs),
            )
            raise InvalidCleaningProblemError(
                f"costs must be positive integers, got {bad!r}"
            )
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
        if sc.size and not bool(
            ((sc >= 0.0) & (sc <= 1.0)).all()
        ):  # NaN fails both comparisons
            bad_sc = next(
                p
                for p in self.sc_probabilities
                if math.isnan(p) or not 0.0 <= p <= 1.0
            )
            raise InvalidCleaningProblemError(
                f"sc-probabilities must lie in [0, 1], got {bad_sc!r}"
            )
        g = np.asarray(self.g_by_xtuple, dtype=np.float64)
        if g.size and float(g.max()) > G_TOLERANCE:
            raise InvalidCleaningProblemError(
                f"g(l, D) values are weighted quality contributions and "
                f"must be <= 0, got {float(g.max())!r}"
            )
        # The validation arrays double as the columnar caches below.
        self.__dict__["costs_array"] = costs.astype(np.int64, copy=False)
        self.__dict__["sc_array"] = sc
        self.__dict__["g_array"] = g

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
    # Columnar views (cached; frozen dataclasses still allow
    # cached_property because it writes to __dict__ directly)
    # ------------------------------------------------------------------
    @cached_property
    def g_array(self) -> np.ndarray:
        """``g(l, D)`` as a float64 array."""
        return np.array(self.g_by_xtuple, dtype=np.float64)

    @cached_property
    def costs_array(self) -> np.ndarray:
        """Probing costs as an int64 array."""
        return np.array(self.costs, dtype=np.int64)

    @cached_property
    def sc_array(self) -> np.ndarray:
        """sc-probabilities as a float64 array."""
        return np.array(self.sc_probabilities, dtype=np.float64)

    @cached_property
    def _candidate_mask(self) -> np.ndarray:
        return (
            (self.g_array < -G_TOLERANCE)
            & (self.sc_array > SC_TOLERANCE)
            & (self.costs_array <= self.budget)
        )

    def candidate_indices(self) -> List[int]:
        """The candidate set ``Z``: x-tuples worth probing at all.

        Excludes x-tuples whose cleaning provably cannot improve the
        expected quality: ``g(l, D) = 0`` (Lemma 5), zero
        sc-probability, or cost exceeding the whole budget.
        """
        return np.nonzero(self._candidate_mask)[0].tolist()

    def max_operations(self, l: int) -> int:
        """``J_l = floor(C / c_l)``: most probes of ``τ_l`` the budget allows."""
        return self.budget // self.costs[l]

    def with_budget(self, budget: int) -> "CleaningProblem":
        """The same instance under a different budget (used by sweeps)."""
        return CleaningProblem(
            ranked=self.ranked,
            k=self.k,
            g_by_xtuple=self.g_by_xtuple,
            topk_mass_by_xtuple=self.topk_mass_by_xtuple,
            costs=self.costs,
            sc_probabilities=self.sc_probabilities,
            budget=budget,
        )


def build_cleaning_problem(
    quality: TPQualityResult,
    costs: Union[Mapping[str, int], Iterable[int]],
    sc_probabilities: Union[Mapping[str, float], Iterable[float]],
    budget: int,
) -> CleaningProblem:
    """Assemble a :class:`CleaningProblem` from a TP quality result.

    ``costs`` and ``sc_probabilities`` may be mappings keyed by x-tuple
    id, or sequences in database x-tuple order.
    """
    ranked = quality.ranked
    m = ranked.num_xtuples

    def as_array(
        source: Union[Mapping[str, float], Iterable[float]], label: str
    ) -> Tuple[float, ...]:
        if isinstance(source, Mapping):
            missing = [xid for xid in ranked.xtuple_ids if xid not in source]
            if missing:
                raise UnknownXTupleError(label, missing[0])
            if len(source) != m:
                known = set(ranked.xtuple_ids)
                unknown = [xid for xid in source if xid not in known]
                raise UnknownXTupleError(
                    label, unknown[0], reason="names unknown"
                )
            return tuple(source[xid] for xid in ranked.xtuple_ids)
        values = tuple(source)
        if len(values) != m:
            raise InvalidCleaningProblemError(
                f"{label} sequence has {len(values)} entries for {m} x-tuples"
            )
        return values

    return CleaningProblem(
        ranked=ranked,
        k=quality.k,
        g_by_xtuple=tuple(quality.g_by_xtuple()),
        topk_mass_by_xtuple=tuple(
            quality.rank_probabilities.topk_probability_by_xtuple()
        ),
        costs=as_array(costs, "costs"),
        sc_probabilities=as_array(sc_probabilities, "sc_probabilities"),
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
