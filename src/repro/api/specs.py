"""Declarative request specs for the service façade (:mod:`repro.api`).

Every request to :class:`~repro.api.service.TopKService` is a frozen
dataclass built here.  Specs are *values*: immutable, validated eagerly
at construction (a spec that constructs cleanly is guaranteed to be
servable up to snapshot-dependent checks), equality-comparable, and
wire-ready -- ``to_dict`` emits a plain JSON-serializable dictionary
and ``from_dict`` reconstructs an equal spec, so a future HTTP layer
can move them verbatim.

The four request shapes:

* :class:`QuerySpec` -- answer the probabilistic top-k semantics
  (U-kRanks / PT-k / Global-topk, or all three) at one ``k``;
* :class:`QualitySpec` -- score the query's ambiguity (PWS-quality)
  with any of the four algorithms;
* :class:`CleaningSpec` -- plan budgeted cleaning (and optionally
  simulate execution, which yields a *new* snapshot);
* :class:`BatchSpec` -- fan a list of query/quality specs over one
  snapshot, sharing a single PSR pass at the maximum requested ``k``.

Malformed field values raise
:class:`~repro.exceptions.InvalidSpecError`; cleaning cost /
sc-probability mappings that disagree with a concrete snapshot raise
:class:`~repro.exceptions.UnknownXTupleError` at service time (the
spec alone cannot know the snapshot's x-tuples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.exceptions import InvalidSpecError

#: Query semantics a :class:`QuerySpec` may request.
SEMANTICS = ("ukranks", "ptk", "global-topk", "all")

#: Quality algorithms a :class:`QualitySpec` may request.
QUALITY_METHODS = ("tp", "pwr", "pw", "montecarlo")

#: Planner names a :class:`CleaningSpec` may request.
PLANNERS = ("dp", "greedy", "randp", "randu")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidSpecError(message)


def _check_k(k: Any) -> None:
    _require(
        isinstance(k, int) and not isinstance(k, bool) and k >= 1,
        f"k must be a positive integer, got {k!r}",
    )


def _check_deadline(spec: Any) -> None:
    """Validate / coerce the shared ``deadline_ms``.

    ``deadline_ms`` is a relative budget (positive, finite); the service
    converts it to an absolute :class:`~repro.core.resilience.Deadline`
    at admission.
    """
    deadline_ms = spec.deadline_ms
    _require(
        deadline_ms is None
        or (
            isinstance(deadline_ms, (int, float))
            and not isinstance(deadline_ms, bool)
            and math.isfinite(deadline_ms)
            and deadline_ms > 0
        ),
        f"deadline_ms must be a positive number or None, got {deadline_ms!r}",
    )
    if deadline_ms is not None:
        object.__setattr__(spec, "deadline_ms", float(deadline_ms))


def _spec_to_dict(spec: Any) -> Dict[str, Any]:
    """Encode a spec dataclass as ``{"type": ..., **fields}``."""
    payload: Dict[str, Any] = {"type": type(spec).TYPE}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):
            value = [
                item.to_dict() if hasattr(item, "to_dict") else item
                for item in value
            ]
        elif isinstance(value, Mapping):
            value = dict(value)
        payload[f.name] = value
    return payload


@dataclass(frozen=True)
class QuerySpec:
    """Request: answer probabilistic top-k semantics at one ``k``.

    Attributes
    ----------
    k:
        Top-k parameter (positive integer).
    semantics:
        ``"ukranks"``, ``"ptk"``, ``"global-topk"`` or ``"all"``.
    threshold:
        PT-k threshold ``T`` in ``[0, 1]`` (the paper's default 0.1);
        ignored by the other semantics.
    deadline_ms:
        Relative completion budget.  An expired deadline sheds the
        request with :class:`~repro.exceptions.DeadlineExceededError`
        before any PSR work; ``None`` (default) means no deadline.
    """

    TYPE = "query"

    k: int
    semantics: str = "all"
    threshold: float = 0.1
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        _check_k(self.k)
        _check_deadline(self)
        _require(
            self.semantics in SEMANTICS,
            f"semantics must be one of {SEMANTICS}, got {self.semantics!r}",
        )
        _require(
            isinstance(self.threshold, (int, float))
            and not isinstance(self.threshold, bool)
            and not math.isnan(self.threshold)
            and 0.0 <= self.threshold <= 1.0,
            f"threshold must lie in [0, 1], got {self.threshold!r}",
        )
        object.__setattr__(self, "threshold", float(self.threshold))

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable encoding (see :func:`spec_from_dict`)."""
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuerySpec":
        """Reconstruct a spec equal to the one ``to_dict`` encoded."""
        return cls(**_fields_from(payload, cls))


@dataclass(frozen=True)
class QualitySpec:
    """Request: compute the PWS-quality of the top-k query at ``k``.

    Attributes
    ----------
    k:
        Top-k parameter.
    method:
        ``"tp"`` (default, the O(kn) sharing algorithm), ``"pwr"``,
        ``"pw"`` or ``"montecarlo"``.  Only ``"tp"`` participates in
        batch PSR sharing; the enumeration/sampling methods run
        standalone.
    samples:
        Sample count for ``"montecarlo"`` (ignored otherwise).
    deadline_ms:
        Relative completion budget (see :class:`QuerySpec`).
    """

    TYPE = "quality"

    k: int
    method: str = "tp"
    samples: int = 10_000
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        _check_k(self.k)
        _check_deadline(self)
        _require(
            self.method in QUALITY_METHODS,
            f"method must be one of {QUALITY_METHODS}, got {self.method!r}",
        )
        _require(
            isinstance(self.samples, int)
            and not isinstance(self.samples, bool)
            and self.samples >= 1,
            f"samples must be a positive integer, got {self.samples!r}",
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable encoding (see :func:`spec_from_dict`)."""
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QualitySpec":
        """Reconstruct a spec equal to the one ``to_dict`` encoded."""
        return cls(**_fields_from(payload, cls))


@dataclass(frozen=True)
class CleaningSpec:
    """Request: plan (and optionally simulate) budgeted cleaning.

    Attributes
    ----------
    k:
        Top-k parameter of the query whose quality is protected.
    budget:
        Total probing budget ``C`` (non-negative integer).
    planner:
        ``"dp"`` (optimal), ``"greedy"``, ``"randp"`` or ``"randu"``.
    costs:
        Per-x-tuple probing costs keyed by x-tuple id, or ``None`` to
        generate them from ``cost_seed`` (paper setup: uniform
        ``[1, 10]``).  Must cover exactly the snapshot's x-tuples;
        mismatches raise
        :class:`~repro.exceptions.UnknownXTupleError` at service time.
    sc_probabilities:
        Per-x-tuple success probabilities keyed by x-tuple id, or
        ``None`` to generate from ``sc_seed`` (uniform ``[0, 1]``).
    cost_seed / sc_seed:
        Seeds for the generated defaults.
    execute:
        Simulate the probes after planning.  The service then registers
        the cleaned database as a **new** snapshot (derived through the
        incremental delta path) and reports its id; with ``False`` the
        response is plan-only and the snapshot is untouched.
    adaptive:
        With ``execute``, re-plan each round with the budget freed by
        early successes (the adaptive extension) instead of executing
        the one-shot plan; ignored without ``execute``.  The response's
        ``"plan"`` then reports the first executed round's probe
        assignment and ``"expected_improvement"`` is omitted (every
        round re-plans, so no single upfront plan describes the run).
    seed:
        Probe-outcome randomness seed (simulations are reproducible).
    durable:
        Durability of the executed outcome when the service is backed
        by a :class:`~repro.store.SnapshotStore`.  ``None``/``True``
        (the default): the cleaning is write-ahead journaled and the
        outcome snapshot's segment is persisted before the response is
        produced, so a crash at any point recovers either the
        pre-clean or the post-clean state.  ``False`` opts this
        request out -- the outcome stays memory-only (gone on
        restart).  A durable clean *of* a memory-only snapshot has no
        durable base to journal against: its outcome is persisted as a
        full segment before the response, with no journal record, so
        a crash before that write reverts to the pre-clean state.
        Ignored (and harmless) without a store or without ``execute``.
    deadline_ms:
        Relative completion budget (see :class:`QuerySpec`).  It is
        checked at admission, after the session lease is acquired and,
        for an adaptive run, before every re-planning round
        (:func:`~repro.cleaning.adaptive.clean_adaptively`).  A run
        that misses it raises
        :class:`~repro.exceptions.DeadlineExceededError` there and
        publishes nothing; a round already under way runs to its end.
    """

    TYPE = "cleaning"

    k: int
    budget: int
    planner: str = "greedy"
    costs: Optional[Mapping[str, int]] = None
    sc_probabilities: Optional[Mapping[str, float]] = None
    cost_seed: int = 0
    sc_seed: int = 0
    execute: bool = True
    adaptive: bool = False
    seed: int = 0
    durable: Optional[bool] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        _check_k(self.k)
        _check_deadline(self)
        _require(
            isinstance(self.budget, int)
            and not isinstance(self.budget, bool)
            and self.budget >= 0,
            f"budget must be a non-negative integer, got {self.budget!r}",
        )
        _require(
            self.planner in PLANNERS,
            f"planner must be one of {PLANNERS}, got {self.planner!r}",
        )
        for label, mapping in (
            ("costs", self.costs),
            ("sc_probabilities", self.sc_probabilities),
        ):
            if mapping is None:
                continue
            _require(
                isinstance(mapping, Mapping)
                and all(isinstance(xid, str) for xid in mapping),
                f"{label} must map x-tuple ids to values, got {mapping!r}",
            )
            object.__setattr__(self, label, dict(mapping))
        if self.costs is not None:
            for xid, cost in self.costs.items():
                _require(
                    isinstance(cost, int)
                    and not isinstance(cost, bool)
                    and cost >= 1,
                    f"cost for {xid!r} must be a positive integer, got {cost!r}",
                )
        if self.sc_probabilities is not None:
            for xid, sc in self.sc_probabilities.items():
                _require(
                    isinstance(sc, (int, float))
                    and not isinstance(sc, bool)
                    and not math.isnan(sc)
                    and 0.0 <= sc <= 1.0,
                    f"sc-probability for {xid!r} must lie in [0, 1], "
                    f"got {sc!r}",
                )
        for label in ("cost_seed", "sc_seed", "seed"):
            value = getattr(self, label)
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"{label} must be an integer, got {value!r}",
            )
        _require(
            self.durable is None or isinstance(self.durable, bool),
            f"durable must be a boolean or None, got {self.durable!r}",
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable encoding (see :func:`spec_from_dict`)."""
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CleaningSpec":
        """Reconstruct a spec equal to the one ``to_dict`` encoded."""
        return cls(**_fields_from(payload, cls))


#: Spec shapes a :class:`BatchSpec` may fan out (cleaning mutates the
#: snapshot chain and therefore cannot ride in a shared-pass batch).
BatchItem = Union[QuerySpec, QualitySpec]


@dataclass(frozen=True)
class BatchSpec:
    """Request: evaluate many query/quality specs on **one** snapshot.

    All items are answered from a single
    :class:`~repro.queries.engine.QuerySession` whose PSR cache is
    prefilled at the maximum ``k`` across the batch
    (:meth:`~repro.queries.engine.QuerySession.prefill`), so the whole
    batch costs one O(k_max·n) pass plus answer extraction -- the
    serving analogue of the paper's Section IV-C computation sharing.

    ``deadline_ms`` is set on the batch, where it covers the whole
    fan-out: the shared PSR pass serves every item, so a per-item
    deadline would be unenforceable and is rejected.
    """

    TYPE = "batch"

    items: Tuple[BatchItem, ...] = field(default_factory=tuple)
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        items = tuple(self.items)
        _require(len(items) >= 1, "a batch needs at least one item")
        _check_deadline(self)
        for item in items:
            _require(
                isinstance(item, (QuerySpec, QualitySpec)),
                f"batch items must be QuerySpec or QualitySpec, "
                f"got {type(item).__name__}",
            )
            _require(
                item.deadline_ms is None,
                "batch items must not set deadline_ms individually; "
                "set it on the BatchSpec",
            )
        object.__setattr__(self, "items", items)

    @property
    def max_k(self) -> Optional[int]:
        """The ``k`` the shared PSR pass runs at, or ``None``.

        The pass is sized by the largest *cache-riding* ``k`` -- query
        items and ``"tp"`` quality items; an enumeration or sampling
        quality item never reads the PSR cache, so its ``k`` does not
        size the pass.  ``None`` when no item rides the cache (the
        batch then performs no shared pass at all).
        """
        ks = [
            item.k
            for item in self.items
            if isinstance(item, QuerySpec) or item.method == "tp"
        ]
        return max(ks) if ks else None

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable encoding (see :func:`spec_from_dict`)."""
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchSpec":
        """Reconstruct a spec equal to the one ``to_dict`` encoded."""
        data = _fields_from(payload, cls)
        raw_items = data.get("items")
        _require(
            isinstance(raw_items, (list, tuple)),
            f"batch payload needs an 'items' list, got {raw_items!r}",
        )
        items = tuple(spec_from_dict(item) for item in raw_items)
        return cls(  # type: ignore[arg-type]
            items=items,
            deadline_ms=data.get("deadline_ms"),
        )


_SPEC_TYPES: Dict[str, type] = {
    QuerySpec.TYPE: QuerySpec,
    QualitySpec.TYPE: QualitySpec,
    CleaningSpec.TYPE: CleaningSpec,
    BatchSpec.TYPE: BatchSpec,
}

AnySpec = Union[QuerySpec, QualitySpec, CleaningSpec, BatchSpec]


def _fields_from(payload: Mapping[str, Any], cls: type) -> Dict[str, Any]:
    """Extract ``cls``'s fields from a ``to_dict`` payload, strictly."""
    if not isinstance(payload, Mapping):
        raise InvalidSpecError(f"spec payload must be a mapping, got {payload!r}")
    declared = payload.get("type")
    if declared is not None and declared != cls.TYPE:  # type: ignore[attr-defined]
        raise InvalidSpecError(
            f"payload declares type {declared!r}, expected {cls.TYPE!r}"  # type: ignore[attr-defined]
        )
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - names - {"type"})
    if unknown:
        raise InvalidSpecError(f"unknown spec fields {unknown!r} for {cls.TYPE!r}")  # type: ignore[attr-defined]
    return {name: payload[name] for name in names if name in payload}


def spec_from_dict(payload: Mapping[str, Any]) -> AnySpec:
    """Decode any spec from its ``to_dict`` form via the ``type`` tag."""
    if not isinstance(payload, Mapping):
        raise InvalidSpecError(f"spec payload must be a mapping, got {payload!r}")
    try:
        tag = payload["type"]
    except KeyError:
        raise InvalidSpecError(
            f"spec payload lacks a 'type' tag: {dict(payload)!r}"
        ) from None
    cls = _SPEC_TYPES.get(tag)
    if cls is None:
        raise InvalidSpecError(
            f"unknown spec type {tag!r}; expected one of {sorted(_SPEC_TYPES)}"
        )
    return cls.from_dict(payload)  # type: ignore[attr-defined, no-any-return]
