"""Span tracing from outside the program.

The traced run wraps the public callables at each layer boundary of
``repro`` at run time -- nothing inside the package changes -- and
records one span per call: layer, name, start, end, parent span and
request id.  A layer's self time is its span time minus the time of its
direct child spans.  Spans stay in memory; :meth:`Tracer.summary`
reduces them when the run ends.

Wrapping is by attribute replacement on the module or class the caller
looks the name up in (``from x import f`` binds ``f`` in the importing
module, so that module's attribute is the one patched).
:meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer names, in report order.
LAYERS = (
    "service",
    "pool",
    "engine",
    "psr",
    "answers",
    "tp",
    "db",
    "cleaning",
    "store",
    "format",
    "locks",
    "os",
)


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "request")

    def __init__(
        self, layer: str, name: str, parent: Optional[int], request: Any
    ) -> None:
        self.layer = layer
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.request = request


class Tracer:
    """Records spans around wrapped callables while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.active = False
        self.request: Any = None
        #: Rows scanned by each full PSR pass (``RankProbabilities.cutoff``).
        self.psr_rows = 0
        #: Bytes of encoded segments and of the columns they carry.
        self.segment_bytes = 0
        self.column_bytes = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def call(
        self, layer: str, span_name: str, fn: Callable[..., Any], /,
        *args: Any, **kwargs: Any,
    ) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, span_name, parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer.call(layer, name, fn, *args, **kwargs)
            if after is not None and tracer.active:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: str,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, name, original, after))

    def patch_context(self, owner: Any, attr: str, layer: str, name: str) -> None:
        """Wrap a context-manager factory; the span covers entry only."""
        original = getattr(owner, attr)
        tracer = self

        @contextmanager
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            with ExitStack() as stack:
                yield tracer.call(
                    layer, name, stack.enter_context, original(*args, **kwargs)
                )

        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.api.service as service_mod
        import repro.cleaning.adaptive as adaptive_mod
        import repro.cleaning.improvement as improvement_mod
        import repro.core.tp as tp_mod
        import repro.queries.engine as engine_mod
        import repro.store.store as store_mod
        from repro.api.pool import SessionPool
        from repro.api.service import TopKService
        from repro.cleaning.dp import DPCleaner
        from repro.cleaning.greedy import GreedyCleaner
        from repro.db.database import ProbabilisticDatabase, RankedDatabase
        from repro.queries import global_topk, ptk, ukranks
        from repro.queries.engine import QuerySession
        from repro.store.locks import StoreLock
        from repro.store.store import SnapshotStore

        for verb in ("register", "query", "quality", "batch", "clean"):
            self.patch(TopKService, verb, "service", f"service.{verb}")
        self.patch(TopKService, "__init__", "service", "service.open")

        self.patch_context(SessionPool, "lease", "pool", "pool.lease")
        self.patch(SessionPool, "register", "pool", "pool.register")
        self.patch(SessionPool, "sweep_store", "pool", "pool.sweep")

        for method in (
            "rank_probabilities", "quality", "ukranks", "ptk",
            "global_topk", "prefill", "derive",
        ):
            self.patch(QuerySession, method, "engine", f"engine.{method}")

        for module in (engine_mod, tp_mod):
            self.patch(
                module, "compute_rank_probabilities", "psr", "psr.pass",
                after=self._count_rows,
            )
        self.patch(engine_mod, "apply_rank_delta", "psr", "psr.delta")

        for module in (ukranks, ptk, global_topk):
            self.patch(
                module, "answer_from_rank_probabilities", "answers",
                f"answers.{module.__name__.rsplit('.', 1)[-1]}",
            )

        self.patch(engine_mod, "compute_quality_tp", "tp", "tp.compute")
        self.patch(engine_mod, "patch_quality_tp", "tp", "tp.patch")
        self.patch(improvement_mod, "compute_quality_tp", "tp", "tp.compute")

        self.patch(RankedDatabase, "__init__", "db", "db.rank")
        self.patch(ProbabilisticDatabase, "content_hash", "db", "db.content_hash")
        for method in ("with_xtuple_replaced", "with_xtuple_removed"):
            self.patch(RankedDatabase, method, "db", "db.delta")

        for module in (service_mod, adaptive_mod):
            self.patch(module, "build_cleaning_problem", "cleaning", "cleaning.problem")
            self.patch(module, "execute_plan", "cleaning", "cleaning.execute")
        self.patch(service_mod, "clean_adaptively", "cleaning", "cleaning.adaptive")
        self.patch(service_mod, "expected_improvement", "cleaning", "cleaning.plan")
        for planner in (GreedyCleaner, DPCleaner):
            self.patch(planner, "plan", "cleaning", "cleaning.plan")

        self.patch(SnapshotStore, "__init__", "store", "store.open")
        self.patch(SnapshotStore, "persist", "store", "store.persist")
        self.patch(SnapshotStore, "journal_clean", "store", "store.journal")
        self.patch(SnapshotStore, "checkpoint", "store", "store.checkpoint")
        self.patch(SnapshotStore, "gc", "store", "store.gc")

        self.patch(
            store_mod, "encode_segment", "format", "format.encode",
            after=self._count_segment,
        )
        for name in ("encode_journal_record", "encode_journal"):
            self.patch(store_mod, name, "format", "format.encode")
        for name in ("decode_segment", "decode_journal"):
            self.patch(store_mod, name, "format", "format.decode")

        self.patch(StoreLock, "_acquire", "locks", "locks.acquire")
        self.patch(os, "fsync", "os", "os.fsync")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_rows(self, result: Any, args: tuple, kwargs: dict) -> None:
        self.psr_rows += int(result.cutoff)

    def _count_segment(self, result: Any, args: tuple, kwargs: dict) -> None:
        self.segment_bytes += len(result)
        self.column_bytes += sum(
            len(blob) for _, blob in kwargs["columns"].values()
        )

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, in seconds, by span index."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def summary(self) -> Dict[str, Any]:
        """Self time and call count per span name and per layer, plus
        per-request self time by layer (for the attribution report)."""
        own = self.self_times()
        by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        by_layer: Dict[str, float] = defaultdict(float)
        by_request: Dict[Any, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span, seconds in zip(self.spans, own):
            entry = by_name[span.name]
            entry[0] += 1
            entry[1] += seconds
            by_layer[span.layer] += seconds
            by_request[span.request][span.layer] += seconds
        return {
            "calls": {name: int(v[0]) for name, v in by_name.items()},
            "self_s": {name: v[1] for name, v in by_name.items()},
            "layer_self_s": dict(by_layer),
            "request_layer_s": {
                request: dict(layers) for request, layers in by_request.items()
            },
        }
