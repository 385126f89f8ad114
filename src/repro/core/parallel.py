"""Sharded process-parallel PSR: multi-core scale-out of the rank scan.

The PSR scan is sequential on its face -- every row's Poisson-binomial
base depends on every x-tuple mass accumulated above it -- but the
dependency is *summarizable*: the scan state at any row boundary is
(saturation shift, open-mass dict, closed factor product), and all
three are cheap aggregates of the prefix.  This module exploits that to
run PSR over ``P`` processes:

1. **Plan** (coordinator, ``O(n + m·W)`` where ``W`` = number of
   blocks): partition the ranked rows into contiguous fixed-size blocks
   and derive each boundary's shift, open masses and the per-block list
   of x-tuples that *close* inside it.  Blocks past the row where the
   ``k``-th x-tuple saturates are dropped outright (Lemma 2: their rows
   have zero top-k probability).
2. **Pass 1** (parallel): each block's closing masses fold into a
   degree-capped generating polynomial
   (:func:`repro.core.pwr.truncated_factor_product`).
3. **Prefix combine** (coordinator): truncated convolutions turn the
   per-block factors into each block's entry ``closed_dp``
   (:func:`repro.core.pwr.prefix_factor_products`).
4. **Pass 2** (parallel): every block runs the numpy block kernel
   (:func:`repro.queries.psr_numpy.scan_blocks`) seeded with its
   boundary state and writes its ρ rows and top-k entries into disjoint
   slices of a shared output buffer.

Row data never crosses a process boundary by pickling: the canonical
columnar arrays are published once per ranked view as
``multiprocessing.shared_memory`` segments (:class:`SharedColumns`) and
workers map them read-only; task payloads are block offsets plus the
O(|open|) boundary state.

Determinism
-----------
The block size is fixed (:data:`DEFAULT_BLOCK_ROWS`, overridable via
``REPRO_BLOCK_ROWS``) and *independent of the worker count*, the plan
is pure coordinator arithmetic, and blocks write disjoint output
slices -- so the backend is bit-reproducible across runs **and** across
worker counts, including the in-process serial fallback.  No worker
holds an RNG.  Against the serial backends the results agree to well
under 1e-9: block-mass aggregation associates floating-point additions
differently than the row-by-row scan (a ~1e-15 effect), so equality is
by tolerance, not bytes.

Fallback
--------
:func:`compute_rank_probabilities_parallel` degrades to an in-process
run of the *same* sharded math (identical bytes) whenever a pool cannot
pay for itself or cannot be built: one resolved worker, a single live
block, shared memory unavailable, or pool setup failure.  The reason is
reported in the result's ``parallel_info`` so sessions can count
fallbacks.

Supervision and degradation
---------------------------
Pooled passes run under worker supervision: a crashed worker
(``BrokenProcessPool``), a hung worker (no task completes within the
:class:`~repro.core.resilience.RetryPolicy`'s progress timeout), or a
failed task makes the supervisor kill and rebuild the pool as needed
and retry the outstanding shards with capped exponential backoff +
deterministic jitter.  When the attempt budget is exhausted, the run
*degrades* instead of erroring: first to the in-process sharded scan
(bit-identical math), and -- should that fail too -- to the NumPy
kernel (1e-9-identical).  What happened is visible in
``parallel_info``: ``retries``, ``pool_restarts``, and ``degraded``
(``None`` / ``"serial"`` / ``"numpy"``), which sessions surface as the
``psr_retries`` / ``psr_pool_restarts`` / ``psr_degraded`` counters.
Scoped request deadlines (:mod:`repro.core.resilience`) are honoured
at every supervision wait; faults for the test harness are injected
via :mod:`repro.testing.faults`.

Every shared-memory segment the coordinator creates is registered in a
process-local registry under a ``repro_*`` name until it is unlinked,
so tests can assert zero leaks; all failure paths (including
``KeyboardInterrupt`` mid-scan) release the segments they created.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError as FuturesCancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.core.lockcheck import RANK_WORKER_POOL, OrderedLock
from repro.core.pwr import prefix_factor_products, truncated_factor_product
from repro.core.resilience import (
    RetryPolicy,
    check_deadline,
    current_deadline,
    interruptible_sleep,
    resolve_retry_policy,
)
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjectedError,
    RetryExhaustedError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.db.database import RankedDatabase
    from repro.queries.psr import RankProbabilities
    from repro.testing.faults import FaultPlan

#: Rows per shard.  Independent of the worker count so that results are
#: bit-identical no matter how many processes share the work; small
#: enough that ~8 workers stay balanced at n = 100k, large enough that
#: per-task overhead (a future + O(|open|) state pickle) stays under a
#: percent of a block's scan time.  Override with ``REPRO_BLOCK_ROWS``
#: (read per call; tests shrink it to force many-block plans on small
#: inputs).
DEFAULT_BLOCK_ROWS = 8192


def _block_rows() -> int:
    """The configured shard size (``REPRO_BLOCK_ROWS`` or the default)."""
    raw = os.environ.get("REPRO_BLOCK_ROWS")
    if raw is None:
        return DEFAULT_BLOCK_ROWS
    value = int(raw)
    if value <= 0:
        raise ValueError(f"REPRO_BLOCK_ROWS must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# Worker-count resolution (mirrors the backend knob in core/backend.py)
# ---------------------------------------------------------------------------

_workers_override: Optional[int] = None


def _validate_workers(value: int) -> int:
    if value < 1:
        raise ValueError(f"worker count must be >= 1, got {value}")
    return value


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    Precedence: the scoped override (:func:`set_workers` /
    :func:`use_workers`), then an explicit ``workers=`` argument, then
    the ``REPRO_WORKERS`` environment variable, then
    ``os.cpu_count()``.  The override outranks the explicit argument on
    purpose: callers such as :class:`~repro.queries.engine.QuerySession`
    always pass their *configured default* explicitly, and the override
    exists precisely so a narrower scope (one service request wrapped in
    ``use_workers(spec.workers)``) can retarget that default without
    re-threading a parameter through every layer.
    """
    if _workers_override is not None:
        return _workers_override
    if workers is not None:
        return _validate_workers(workers)
    raw = os.environ.get("REPRO_WORKERS")
    if raw is not None:
        return _validate_workers(int(raw))
    return os.cpu_count() or 1


def set_workers(workers: Optional[int]) -> None:
    """Set (or clear, with ``None``) the process-wide worker override."""
    global _workers_override
    _workers_override = (
        None if workers is None else _validate_workers(workers)
    )


@contextmanager
def use_workers(workers: Optional[int]) -> Iterator[Optional[int]]:
    """Temporarily set the process-wide worker override.

    ``None`` is a no-op passthrough so callers can wrap unconditionally
    (``with use_workers(spec.workers): ...``).
    """
    global _workers_override
    previous = _workers_override
    if workers is not None:
        _workers_override = _validate_workers(workers)
    try:
        yield _workers_override
    finally:
        _workers_override = previous


# ---------------------------------------------------------------------------
# Shared-memory registry (coordinator side)
# ---------------------------------------------------------------------------

#: Picklable handle to one shared-memory-backed ndarray:
#: ``(segment name, shape, dtype string)``.
ArraySpec = Tuple[str, Tuple[int, ...], str]

#: Name prefix of every segment this library creates.  The leak-check
#: fixture greps ``/dev/shm`` for it, so keep it distinctive.
SEGMENT_PREFIX = "repro_"

#: Names of every live (created, not yet unlinked) segment of this
#: process.  ``_Segment`` registers on create and deregisters on
#: destroy; tests assert the registry drains to exactly the cached
#: column segments (and to nothing once caches are cleared).
_live_segments: Set[str] = set()

_segment_seq = 0


def _next_segment_name() -> str:
    """A fresh ``repro_<pid>_<seq>`` segment name."""
    global _segment_seq
    _segment_seq += 1
    return f"{SEGMENT_PREFIX}{os.getpid()}_{_segment_seq}"


def live_segment_names() -> Set[str]:
    """Names of segments this process created and has not unlinked."""
    return set(_live_segments)


def untracked_segment_names() -> Set[str]:
    """Live segments with **no** owner -- a leak, always.

    The cached column mirrors (:func:`shared_columns`) legitimately
    stay live between calls; anything else still registered has
    escaped a ``finally`` and would survive on ``/dev/shm``.
    """
    owned: Set[str] = set()
    for columns in _column_cache.values():
        owned.add(columns.probabilities.spec[0])
        owned.add(columns.xtuples.spec[0])
    return _live_segments - owned


class _Segment:
    """One shared-memory segment mirroring a NumPy array."""

    def __init__(self, array: np.ndarray) -> None:
        # Named create so leaks are attributable; retry on the (test
        # re-entrancy / crashed predecessor) case of a name collision.
        while True:
            name = _next_segment_name()
            try:
                self.shm = shared_memory.SharedMemory(
                    create=True, size=max(array.nbytes, 1), name=name
                )
                break
            except FileExistsError:  # pragma: no cover - crashed leftover
                continue
        _live_segments.add(self.shm.name)
        self.spec: ArraySpec = (
            self.shm.name, tuple(array.shape), str(array.dtype)
        )
        try:
            view: np.ndarray = np.ndarray(
                array.shape, dtype=array.dtype, buffer=self.shm.buf
            )
            view[...] = array
        except BaseException:
            self.destroy()
            raise

    def array(self) -> np.ndarray:
        """The coordinator-side view of the segment."""
        name, shape, dtype = self.spec
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.shm.buf)

    def destroy(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        _live_segments.discard(self.shm.name)


class SharedColumns:
    """The PSR input columns of one ranked view, published as shm.

    Holds the existential-probability and x-tuple-index columns.
    Instances are cached per ranked view (:func:`shared_columns`) so the
    one-time copy into shared memory amortizes over every query the
    session runs against that view.
    """

    def __init__(self, probabilities: np.ndarray, xtuples: np.ndarray) -> None:
        self.probabilities = _Segment(np.ascontiguousarray(probabilities))
        try:
            self.xtuples = _Segment(np.ascontiguousarray(xtuples))
        except BaseException:
            # Never leak the first segment because the second failed.
            self.probabilities.destroy()
            raise

    def specs(self) -> Tuple[ArraySpec, ArraySpec]:
        """The picklable ``(probabilities, xtuple indices)`` handles."""
        return self.probabilities.spec, self.xtuples.spec

    def destroy(self) -> None:
        """Release both segments."""
        self.probabilities.destroy()
        self.xtuples.destroy()


_column_cache: Dict[int, SharedColumns] = {}


def _release_columns(key: int) -> None:
    """Finalizer: drop a ranked view's cached segments."""
    columns = _column_cache.pop(key, None)
    if columns is not None:
        columns.destroy()


def _release_all_columns() -> None:
    """``atexit`` hook: unlink every cached segment."""
    for key in list(_column_cache):
        _release_columns(key)


atexit.register(_release_all_columns)


def shared_columns(ranked: "RankedDatabase") -> SharedColumns:
    """The (cached) shared-memory mirror of a ranked view's columns.

    The cache entry is keyed by object identity and torn down by a
    ``weakref.finalize`` when the ranked view is garbage-collected, so
    id reuse cannot alias two views and segments never outlive their
    data (a process-exit ``atexit`` sweep catches the remainder).
    """
    key = id(ranked)
    columns = _column_cache.get(key)
    if columns is None:
        probabilities, xtuples = ranked.psr_columns()
        columns = SharedColumns(probabilities, xtuples)
        _column_cache[key] = columns
        weakref.finalize(ranked, _release_columns, key)
    return columns


def release_columns_for(ranked: "RankedDatabase") -> None:
    """Eagerly drop (and unlink) a ranked view's cached column mirror.

    Failure paths call this so a run that died mid-scan does not pin
    ``/dev/shm`` space until the view happens to be garbage-collected;
    the next successful run simply republishes the columns.
    """
    _release_columns(id(ranked))


def clear_column_cache() -> None:
    """Unlink every cached column segment (tests and diagnostics)."""
    _release_all_columns()


# ---------------------------------------------------------------------------
# Worker-side attach
# ---------------------------------------------------------------------------


def _attach(spec: ArraySpec) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Map a segment by spec inside a worker (transient, per task).

    Mappings are per task and closed by the caller: caching them would
    pin the coordinator's already-unlinked output buffers in worker
    memory for the pool's lifetime, and an attach is microseconds
    against a block scan.  Attaching re-registers the name with the
    ``resource_tracker`` the pool shares with the coordinator; that is
    a set-membership no-op there, and the coordinator's eventual
    ``unlink`` performs the single matching unregister -- workers must
    *not* unregister themselves or they would strip the coordinator's
    entry.
    """
    name, shape, dtype = spec
    shm = shared_memory.SharedMemory(name=name)
    return shm, np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0
_pool_method: Optional[str] = None

#: Guards every transition of the module-level pool state above.  The
#: SessionPool serves different snapshots from concurrent threads, and
#: each lease may reach :func:`_get_pool`; without the lock two threads
#: could interleave a teardown and a rebuild and strand a live
#: executor (its workers leak until process exit).  Innermost rank of
#: the serving stack's declared lock hierarchy -- it is only ever
#: taken during kernel work, under a snapshot lock.
_pool_lock = OrderedLock("parallel.worker-pool", RANK_WORKER_POOL)

#: Pools ever (re)built in this process -- a cheap observability hook
#: for tests asserting that supervision actually rebuilt the pool.
pool_builds = 0


def _pick_context() -> multiprocessing.context.BaseContext:
    """The preferred multiprocessing start method available on the host.

    Forkserver first (fast spawns, no inherited locks), then spawn
    (portable), then fork.
    """
    available = multiprocessing.get_all_start_methods()
    for method in ("forkserver", "spawn", "fork"):
        if method in available:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


def _pool_is_broken() -> bool:
    """Whether the cached pool has been marked broken by the executor."""
    return _pool is not None and getattr(_pool, "_broken", False) is not False


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool, (re)built when size, context, or health changed.

    The cache is keyed by worker count **and** start-method: a
    fork-context change (e.g. a test overriding :func:`_pick_context`)
    invalidates it, and a pool the executor marked broken (a worker
    SIGKILLed between requests) is torn down and rebuilt instead of
    poisoning every future submission.  Serialized by ``_pool_lock`` so
    concurrent leases cannot interleave a teardown with a rebuild;
    submissions on the returned executor need no lock (the executor is
    itself thread-safe).
    """
    global _pool, _pool_size, _pool_method, pool_builds
    with _pool_lock:
        context = _pick_context()
        method = context.get_start_method()
        if (
            _pool is not None
            and _pool_size == workers
            and _pool_method == method
            and not _pool_is_broken()
        ):
            return _pool
        if _pool is not None:
            _pool.shutdown(wait=not _pool_is_broken(), cancel_futures=True)
        _pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _pool_size = workers
        _pool_method = method
        pool_builds += 1
        return _pool


def _kill_pool_locked() -> None:
    """Tear the pool down by force; caller holds ``_pool_lock``."""
    global _pool, _pool_size, _pool_method
    if _pool is None:
        return
    for process in list(getattr(_pool, "_processes", {}).values()):
        try:
            process.kill()
        except (OSError, AttributeError):  # pragma: no cover - racing exit
            pass
    _pool.shutdown(wait=False, cancel_futures=True)
    _pool = None
    _pool_size = 0
    _pool_method = None


def _kill_pool() -> None:
    """Forcibly tear the pool down, SIGKILLing its workers.

    The supervisor's hang path: a worker stuck in a task never exits on
    a polite ``shutdown``, so the processes are killed first and the
    executor (now broken, which it tolerates) is discarded.
    """
    with _pool_lock:
        _kill_pool_locked()


def shutdown_pool() -> None:
    """Tear down the worker pool (tests and ``atexit``)."""
    global _pool, _pool_size, _pool_method
    with _pool_lock:
        if _pool is not None:
            if _pool_is_broken():
                _kill_pool_locked()
                return
            _pool.shutdown(wait=True, cancel_futures=True)
            _pool = None
            _pool_size = 0
            _pool_method = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# The block plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """One shard of the ranked row space with its boundary scan state.

    ``open_items`` are the x-tuples straddling the block's start row --
    ``(dense index, accumulated mass)`` in first-appearance order, which
    is exactly the insertion order the serial scan's open dict would
    hold.  ``close_masses`` are the total masses of x-tuples whose last
    member falls inside the block without saturating, in closing order.
    """

    start: int
    stop: int
    shift: int
    open_items: Tuple[Tuple[int, float], ...]
    close_masses: Tuple[float, ...]


@dataclass(frozen=True)
class _Plan:
    """The full shard decomposition of one PSR run.

    ``blocks`` covers only *live* rows: planning stops at the first
    block boundary whose saturation shift reaches ``k``, because the
    serial scan would have early-stopped before it (Lemma 2).
    """

    blocks: Tuple[_Block, ...]
    truncated: bool


def _plan_blocks(
    probabilities: np.ndarray,
    xtuple_indices: np.ndarray,
    num_xtuples: int,
    k: int,
    block_rows: int,
) -> _Plan:
    """Partition the ranked rows and derive each block's boundary state.

    All quantities are prefix aggregates: per-x-tuple member counts and
    mass sums accumulated block by block (``np.bincount`` adds in row
    order, matching the scan).  Masses are clamped at the boundary
    rather than per row; the two associate additions differently, a
    ~1e-15 effect far below the backends' 1e-9 cross-check tolerance,
    and identical across worker counts since the plan never depends on
    them.
    """
    from repro.db.database import SATURATION_EPSILON

    n = int(probabilities.shape[0])
    m = num_xtuples
    rows = np.arange(n, dtype=np.int64)
    total_counts = np.bincount(xtuple_indices, minlength=m)
    total_mass = np.bincount(
        xtuple_indices, weights=probabilities, minlength=m
    )
    first_row = np.full(m, n, dtype=np.int64)
    np.minimum.at(first_row, xtuple_indices, rows)
    last_row = np.full(m, -1, dtype=np.int64)
    np.maximum.at(last_row, xtuple_indices, rows)
    # X-tuples that fold into the closed product (last member scanned,
    # never saturates), keyed by the row where the fold happens.
    closer_mask = (last_row >= 0) & (total_mass < 1.0 - SATURATION_EPSILON)
    closers = np.nonzero(closer_mask)[0]
    closers = closers[np.argsort(last_row[closers], kind="stable")]
    close_rows = last_row[closers]
    close_mass = total_mass[closers]

    blocks: List[_Block] = []
    mass = np.zeros(m, dtype=np.float64)
    counts = np.zeros(m, dtype=np.int64)
    truncated = False
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        clamped = np.minimum(mass, 1.0)
        saturated = clamped >= 1.0 - SATURATION_EPSILON
        shift = int(np.count_nonzero(saturated))
        if shift >= k:
            truncated = True
            break
        straddling = np.nonzero((counts > 0) & (counts < total_counts))[0]
        straddling = straddling[
            np.argsort(first_row[straddling], kind="stable")
        ]
        open_items = tuple(
            (int(l), 1.0 if saturated[l] else float(clamped[l]))
            for l in straddling
        )
        lo, hi = np.searchsorted(close_rows, (start, stop))
        blocks.append(
            _Block(
                start=start,
                stop=stop,
                shift=shift,
                open_items=open_items,
                close_masses=tuple(float(q) for q in close_mass[lo:hi]),
            )
        )
        window = slice(start, stop)
        mass += np.bincount(
            xtuple_indices[window],
            weights=probabilities[window],
            minlength=m,
        )
        counts += np.bincount(xtuple_indices[window], minlength=m)
    return _Plan(blocks=tuple(blocks), truncated=truncated)


# ---------------------------------------------------------------------------
# The two parallel passes (each runs identically in-pool or in-process)
# ---------------------------------------------------------------------------


def _block_factors_task(
    k: int, masses: List[Tuple[float, ...]]
) -> List[np.ndarray]:
    """Pass 1: the truncated closing factor of each assigned block."""
    return [truncated_factor_product(block, k) for block in masses]


def _scan_block(
    probabilities: np.ndarray,
    xtuple_indices: np.ndarray,
    num_xtuples: int,
    k: int,
    start: int,
    stop: int,
    shift: int,
    open_items: Tuple[Tuple[int, float], ...],
    prefix: np.ndarray,
    out_rho: np.ndarray,
    out_topk: np.ndarray,
) -> int:
    """Pass 2 for one block: seed the numpy block kernel and emit its rows.

    The block's boundary state is exactly a :class:`ScanCheckpoint`, so
    :func:`repro.queries.psr_numpy.scan_blocks` runs a shard unchanged.
    Returns the row where the scan ended (``stop``, except for Lemma 2
    early stops in the final live block).
    """
    from repro.queries.psr import ScanCheckpoint
    from repro.queries.psr_numpy import ScanState, scan_blocks

    state = ScanState(
        xtuple_indices,
        num_xtuples,
        k,
        ScanCheckpoint(
            row=start, shift=shift, closed_dp=prefix,
            open_masses=dict(open_items),
        ),
    )
    rho, topk, end = scan_blocks(
        probabilities, xtuple_indices, k, state, stop, None
    )
    out_rho[start:end] = rho.materialize()
    out_topk[start:end] = topk
    return end


def _scan_block_task(
    column_specs: Tuple[ArraySpec, ArraySpec],
    out_rho_spec: ArraySpec,
    out_topk_spec: ArraySpec,
    num_xtuples: int,
    k: int,
    start: int,
    stop: int,
    shift: int,
    open_items: Tuple[Tuple[int, float], ...],
    prefix: np.ndarray,
    fault: Optional[Mapping[str, Any]] = None,
) -> int:
    """Worker entry point for pass 2: attach shm views, scan one block.

    ``fault`` is a directive from the coordinator's armed
    :class:`~repro.testing.faults.FaultPlan` (``None`` in production);
    it executes *before* any shared memory is mapped, so an injected
    death never strands a worker-side mapping.
    """
    if fault is not None:
        from repro.testing.faults import execute_worker_fault

        execute_worker_fault(fault)
    handles = [
        _attach(spec)
        for spec in (
            column_specs[0], column_specs[1], out_rho_spec, out_topk_spec
        )
    ]
    try:
        probabilities, xtuple_indices, out_rho, out_topk = (
            array for _, array in handles
        )
        return _scan_block(
            probabilities,
            xtuple_indices,
            num_xtuples,
            k,
            start,
            stop,
            shift,
            open_items,
            prefix,
            out_rho,
            out_topk,
        )
    finally:
        for shm, _ in handles:
            shm.close()


def _chunk(count: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into at most ``parts`` contiguous spans."""
    parts = max(1, min(parts, count))
    bounds = np.linspace(0, count, parts + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(parts)
        if bounds[i] < bounds[i + 1]
    ]


# ---------------------------------------------------------------------------
# Worker supervision
# ---------------------------------------------------------------------------


@dataclass
class _SupervisionStats:
    """What supervision had to do to finish one PSR run."""

    retries: int = 0
    pool_restarts: int = 0


def _supervised_factors(
    pool_workers: int,
    interior: List[Tuple[float, ...]],
    k: int,
    policy: RetryPolicy,
    stats: _SupervisionStats,
) -> List[np.ndarray]:
    """Pass 1 with a one-shot fallback: pooled, else in-process.

    Factor folding is cheap (milliseconds even at n=100k), so a failed
    or hung pooled attempt is not worth a retry loop -- the in-process
    computation *is* the retry, bit-identical by construction.  Broken
    or timed-out pools are killed so pass 2 starts from a fresh one.
    """
    try:
        pool = _get_pool(pool_workers)
        spans = _chunk(len(interior), pool_workers)
        futures = [
            pool.submit(_block_factors_task, k, interior[lo:hi])
            for lo, hi in spans
        ]
        timeout = policy.resolved_task_timeout_s()
        return [
            factor
            for future in futures
            for factor in future.result(timeout=timeout)
        ]
    except (Exception, FuturesCancelledError) as exc:
        stats.retries += 1
        if isinstance(exc, FuturesTimeoutError) or _pool_is_broken():
            _kill_pool()
            stats.pool_restarts += 1
        return _block_factors_task(k, interior)


def _supervised_scan(
    pool_workers: int,
    blocks: Tuple[_Block, ...],
    prefixes: List[np.ndarray],
    columns: SharedColumns,
    out_rho: _Segment,
    out_topk: _Segment,
    num_xtuples: int,
    k: int,
    policy: RetryPolicy,
    faults: Optional["FaultPlan"],
    stats: _SupervisionStats,
) -> Dict[int, int]:
    """Pass 2 under full supervision: retry, rebuild, back off, or give up.

    Submits every outstanding block to the pool and collects results as
    they complete.  Three failure shapes are recovered from:

    * **crash** -- a worker died (``BrokenProcessPool`` from a result
      or a submit): the pool is killed and rebuilt;
    * **hang** -- no task completed within the policy's progress
      timeout: the workers are SIGKILLed (a polite shutdown never
      returns from a stuck task) and the pool rebuilt;
    * **task error** -- a task raised (e.g. an shm attach failure):
      the pool is healthy, only the failed blocks are retried.

    Completed blocks are never re-run -- their output slices are
    already written and disjoint -- so a retry costs only the failed
    remainder.  Between attempts the supervisor sleeps the policy's
    capped exponential backoff (deterministic jitter) without ever
    sleeping past the scoped deadline; exhausting ``max_attempts``
    raises :class:`RetryExhaustedError`, which the entry point turns
    into degradation rather than an error.
    """
    outstanding = set(range(len(blocks)))
    ends: Dict[int, int] = {}
    attempt = 1
    last_error: Optional[BaseException] = None
    while True:
        check_deadline("before a supervised scan attempt")
        try:
            pool = _get_pool(pool_workers)
        except (OSError, ValueError, RuntimeError) as exc:
            raise RetryExhaustedError(
                f"worker pool could not be rebuilt: {exc}"
            ) from exc
        future_blocks: Dict["Future[int]", int] = {}
        submit_error: Optional[BaseException] = None
        for b in sorted(outstanding):
            block = blocks[b]
            fault = faults.draw("task", b) if faults is not None else None
            try:
                future = pool.submit(
                    _scan_block_task,
                    columns.specs(),
                    out_rho.spec,
                    out_topk.spec,
                    num_xtuples,
                    k,
                    block.start,
                    block.stop,
                    block.shift,
                    block.open_items,
                    prefixes[b],
                    fault,
                )
            except (BrokenProcessPool, RuntimeError) as exc:
                submit_error = exc
                break
            future_blocks[future] = b
        failed: Set[int] = set()
        hung = False
        pending = set(future_blocks)
        progress_timeout = policy.resolved_task_timeout_s()
        while pending:
            deadline = current_deadline()
            wait_s = progress_timeout
            if deadline is not None:
                remaining = deadline.remaining_s()
                if remaining <= 0:
                    check_deadline("while awaiting scan shards")
                wait_s = min(wait_s, max(remaining, 0.001))
            done, not_done = futures_wait(
                pending, timeout=wait_s, return_when=FIRST_COMPLETED
            )
            if not done:
                # No progress inside the window: deadline first (the
                # request is dead either way), then declare a hang.
                check_deadline("while awaiting scan shards")
                hung = True
                failed.update(future_blocks[f] for f in not_done)
                last_error = TimeoutError(
                    f"no shard completed within {progress_timeout:.3f}s"
                )
                break
            for future in done:
                b = future_blocks[future]
                try:
                    ends[b] = future.result()
                    outstanding.discard(b)
                except (Exception, FuturesCancelledError) as exc:
                    failed.add(b)
                    last_error = exc
            pending = not_done
        if submit_error is not None:
            failed.update(outstanding - set(ends))
            last_error = submit_error
        if not failed:
            return ends
        crashed = submit_error is not None or _pool_is_broken() or any(
            isinstance(last_error, exc_type)
            for exc_type in (BrokenProcessPool, FuturesCancelledError)
        )
        if hung or crashed:
            _kill_pool()
            stats.pool_restarts += 1
        attempt += 1
        if attempt > policy.max_attempts:
            raise RetryExhaustedError(
                f"parallel scan failed on all {policy.max_attempts} "
                f"attempts; last error: {last_error!r}"
            )
        stats.retries += 1
        interruptible_sleep(policy.backoff_s(attempt))


def _serial_scan(
    probabilities: np.ndarray,
    xtuple_indices: np.ndarray,
    num_xtuples: int,
    k: int,
    blocks: Tuple[_Block, ...],
    prefixes: List[np.ndarray],
    faults: Optional["FaultPlan"],
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """The in-process sharded scan (bit-identical to the pooled pass)."""
    live_rows = blocks[-1].stop
    rho_full = np.zeros((live_rows, k), dtype=np.float64)
    topk_full = np.zeros(live_rows, dtype=np.float64)
    ends: List[int] = []
    for b, block in enumerate(blocks):
        if faults is not None:
            directive = faults.draw("serial", b)
            if directive is not None:
                raise FaultInjectedError(
                    f"injected in-process scan failure at block {b}"
                )
        ends.append(
            _scan_block(
                probabilities,
                xtuple_indices,
                num_xtuples,
                k,
                block.start,
                block.stop,
                block.shift,
                block.open_items,
                prefixes[b],
                rho_full,
                topk_full,
            )
        )
    return rho_full[: ends[-1]], topk_full[: ends[-1]], ends


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def compute_rank_probabilities_parallel(
    ranked: "RankedDatabase", k: int, workers: Optional[int] = None
) -> "RankProbabilities":
    """Sharded PSR over a pre-sorted database (parallel backend).

    Returns the same :class:`repro.queries.psr.RankProbabilities` the
    serial backends produce (within 1e-9 on every entry), with
    checkpoints at block boundaries -- so the delta engine replays at
    most one block -- and a ``parallel_info`` dict describing how the
    run executed: ``{"workers", "blocks", "mode", "fallback",
    "retries", "pool_restarts", "degraded"}`` where ``mode`` is
    ``"pool"``, ``"serial"`` or ``"numpy"``, ``fallback`` names the
    *benign* reason a pool was not attempted (``None`` when it was),
    and ``degraded`` names the tier a failing pooled run fell back to
    (``"serial"`` after retry exhaustion, ``"numpy"`` when the
    in-process shards failed too, ``None`` on the happy path).

    Failure paths never leak shared memory: the output buffers are
    destroyed in ``finally`` and the cached input columns are unlinked
    before any exception (including ``KeyboardInterrupt``) propagates.
    """
    from repro.queries.deterministic import require_valid_k
    from repro.queries.psr import RankProbabilities, ScanCheckpoint
    from repro.testing.faults import active_faults

    require_valid_k(k)
    check_deadline("before the parallel PSR pass")
    probabilities, xtuple_indices = ranked.psr_columns()
    m = ranked.num_xtuples
    plan = _plan_blocks(probabilities, xtuple_indices, m, k, _block_rows())
    requested = resolve_workers(workers)
    policy = resolve_retry_policy()
    faults = active_faults()
    stats = _SupervisionStats()

    def _info(
        used: int, mode: str, degraded: Optional[str], fallback: Optional[str]
    ) -> Dict[str, object]:
        return {
            "workers": used,
            "blocks": len(plan.blocks),
            "mode": mode,
            "fallback": fallback,
            "retries": stats.retries,
            "pool_restarts": stats.pool_restarts,
            "degraded": degraded,
        }

    if not plan.blocks:
        result = RankProbabilities(
            k=k,
            ranked=ranked,
            cutoff=0,
            rho_prefix=np.zeros((0, k)),
            topk_prefix=np.zeros(0),
            backend="parallel",
            checkpoints=[],
        )
        result.parallel_info = _info(1, "serial", None, "empty")
        return result

    fallback: Optional[str] = None
    if requested <= 1:
        fallback = "workers <= 1"
    elif len(plan.blocks) == 1:
        fallback = "single live block"

    pool_ok = fallback is None
    columns: Optional[SharedColumns] = None
    if pool_ok:
        try:
            columns = shared_columns(ranked)
        except (OSError, ValueError, RuntimeError) as exc:
            fallback = f"shared memory unavailable: {exc}"
            pool_ok = False
    if pool_ok:
        try:
            _get_pool(requested)
        except (OSError, ValueError, RuntimeError) as exc:
            fallback = f"pool unavailable: {exc}"
            pool_ok = False

    blocks = plan.blocks
    live_rows = blocks[-1].stop
    degraded: Optional[str] = None
    mode = "serial"
    used = 1

    rho: Optional[np.ndarray] = None
    topk: Optional[np.ndarray] = None
    ends: List[int] = []
    try:
        # Pass 1 + prefix combine: the entry closed_dp of every block.
        # The final block's own factor is never consumed, so it is not
        # computed.
        interior = [block.close_masses for block in blocks[:-1]]
        factors: List[np.ndarray]
        if pool_ok and interior:
            factors = _supervised_factors(
                requested, interior, k, policy, stats
            )
        else:
            factors = _block_factors_task(k, interior)
        prefixes = prefix_factor_products(factors, k)

        # Pass 2: scan every live block against its boundary state,
        # degrading pool -> in-process shards -> NumPy kernel.
        if pool_ok and columns is not None:
            out_rho = _Segment(np.zeros((live_rows, k), dtype=np.float64))
            out_topk = _Segment(np.zeros(live_rows, dtype=np.float64))
            try:
                ends_by_block = _supervised_scan(
                    requested,
                    blocks,
                    prefixes,
                    columns,
                    out_rho,
                    out_topk,
                    m,
                    k,
                    policy,
                    faults,
                    stats,
                )
                ends = [ends_by_block[b] for b in range(len(blocks))]
                rho = np.array(out_rho.array()[: ends[-1]])
                topk = np.array(out_topk.array()[: ends[-1]])
                mode = "pool"
                used = _pool_size
            except RetryExhaustedError:
                degraded = "serial"
            finally:
                out_rho.destroy()
                out_topk.destroy()
        if rho is None or topk is None:
            try:
                rho, topk, ends = _serial_scan(
                    probabilities, xtuple_indices, m, k, blocks, prefixes,
                    faults,
                )
            except DeadlineExceededError:
                raise
            except Exception:
                degraded = "numpy"
    except BaseException:
        # An exception mid-scan (worker supervision gave up entirely,
        # a planner bug, KeyboardInterrupt, ...) must not strand this
        # view's column segments on /dev/shm until garbage collection
        # happens to run; the next successful run republishes them.
        if columns is not None:
            release_columns_for(ranked)
        raise

    if degraded == "numpy":
        # Last tier: the plain single-core kernel.  It runs the same
        # block kernel as the shards but none of the planning, pool or
        # shared-memory code that just failed.  1e-9-identical to the
        # sharded output (the backends are cross-validated), with its
        # own interval checkpoints for delta replay.
        from repro.queries.psr import compute_rank_probabilities

        result = compute_rank_probabilities(ranked, k, backend="numpy")
        result.parallel_info = _info(1, "numpy", "numpy", fallback)
        return result

    assert rho is not None and topk is not None
    # Only the final live block may hit Lemma 2's early stop: every
    # earlier boundary's shift was checked below k by the planner.
    for block, end in zip(blocks[:-1], ends[:-1]):
        if end != block.stop:  # pragma: no cover - planner invariant
            raise AssertionError(
                f"non-final block [{block.start}, {block.stop}) "
                f"stopped early at {end}"
            )
    cutoff = ends[-1]

    checkpoints = [
        ScanCheckpoint(
            row=block.start,
            shift=block.shift,
            closed_dp=prefixes[b].copy(),
            open_masses=dict(block.open_items),
        )
        for b, block in enumerate(blocks)
        if 0 < block.start <= cutoff
    ]
    result = RankProbabilities(
        k=k,
        ranked=ranked,
        cutoff=cutoff,
        rho_prefix=rho,
        topk_prefix=topk,
        backend="parallel",
        checkpoints=checkpoints,
    )
    result.parallel_info = _info(used, mode, degraded, fallback)
    return result
