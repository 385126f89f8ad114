"""Machine-readable performance snapshots (``run_all.py --json``).

Emits a JSON document with the timings future PRs compare against:

* ``psr``: time per PSR pass for both backends at
  ``n ∈ {1k, 10k, 100k}`` tuples and ``k ∈ {15, 100}``, on an
  *incomplete* synthetic database (completion 0.85).  Lemma 2 never
  fires there; the certified tail stop ends a pass at a row that
  depends on ``k`` but not on ``n`` (about 1.2k rows at k = 15, 2.8k at
  k = 100), so only the 1k points sweep every row.  Includes the
  numpy-over-python speedup per point.
* ``query_session``: cold-vs-warm evaluation through
  :class:`~repro.queries.engine.QuerySession` -- the warm numbers are
  pure answer extraction, demonstrating that repeated same-``k``
  evaluations never re-run PSR.
* ``adaptive_cleaning``: the incremental delta engine measured
  end-to-end -- a greedy adaptive cleaning run with one
  :class:`~repro.db.database.RankDelta` per round versus the identical
  run on the cold-derive path, plus an isolated replay of each round's
  derive/re-evaluate phase (snapshot construction + ranking + PSR +
  quality) on the real probe trace.  The replay also cross-checks the
  delta-derived quality against the cold quality at every round and
  **fails the run** beyond :data:`DERIVE_CHECK_TOLERANCE`, which is
  what lets the CI smoke mode catch kernel regressions.
* ``service_batch``: :meth:`repro.api.service.TopKService.batch` (one
  shared max-k PSR pass for ``m`` mixed-``k`` requests) versus the
  same ``m`` requests answered by independent cold
  :class:`~repro.queries.engine.QuerySession` evaluations.  Every
  batch answer is cross-checked against its independent twin and the
  run **fails** on any disagreement -- the per-push CI gate for the
  prefix-restriction sharing path.
* ``pool_contention``: warm-path request throughput through a shared
  :class:`~repro.api.pool.SessionPool`, single-threaded versus a
  thread group hammering the same snapshots -- measures the lease /
  LRU bookkeeping overhead under contention (correctness under
  concurrency is covered by ``tests/test_service_pool.py``).

The pure-Python backend is skipped above ``PYTHON_BACKEND_MAX_TUPLES``
tuples when ``--quick`` is requested; the full snapshot runs it
everywhere.  ``--smoke`` shrinks every section to n = 500 so the whole
snapshot runs in seconds on every push.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.pool import SessionPool
from repro.api.service import TopKService
from repro.api.specs import BatchSpec, QuerySpec
from repro.bench.harness import time_call
from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.model import build_cleaning_problem
from repro.core.backend import BACKENDS
from repro.core.tp import compute_quality_tp
from repro.datasets.synthetic import (
    generate_costs,
    generate_sc_probabilities,
    generate_synthetic,
)
from repro.db.database import ProbabilisticDatabase, RankedDatabase
from repro.db.tuples import XTuple
from repro.api.results import ServiceResult
from repro.queries.engine import EvaluationReport, QuerySession
from repro.queries.psr import compute_rank_probabilities

#: Snapshot grid: total tuple counts and top-k parameters.
SNAPSHOT_SIZES = (1_000, 10_000, 100_000)
SNAPSHOT_KS = (15, 100)

#: Bars per x-tuple in the snapshot database (n = m · bars).
BARS = 10

#: Completion probability of the snapshot database; < 1 keeps Lemma 2
#: from firing, so a pass ends at the certified tail stop instead.
COMPLETION = 0.85

#: --quick skips the python backend above this size (it is ~10s per
#: pass at n = 100k; the numpy backend still covers the full grid).
PYTHON_BACKEND_MAX_TUPLES = 10_000

DB_SEED = 7

#: Adaptive-cleaning section: sizes, top-k, probing budget and seeds.
#: The budget follows the paper's Section VI sweeps (absolute budgets
#: up to ~100 for databases an order of magnitude larger), and the
#: complete database is the natural cleaning workload -- collapsing an
#: entity to a certain reading keeps the delta window confined to the
#: entity's own uncertainty interval.
ADAPTIVE_SIZES = (10_000, 100_000)
ADAPTIVE_K = 100
#: Paper-proportional probing budget: Section VI sweeps budgets up to
#: ~100 on a 5000-x-tuple database (C/m up to 0.02); the snapshot sits
#: mid-sweep, in the regime the paper motivates -- probes (phone
#: calls, sensor polls) are expensive, so a round cleans a handful of
#: entities while the re-evaluation has to keep up.
ADAPTIVE_BUDGET = 10
COST_SEED = 11
SC_SEED = 13
PROBE_SEED = 17

#: Delta-vs-cold quality disagreement that fails the snapshot (and the
#: CI smoke run) outright.
DERIVE_CHECK_TOLERANCE = 1e-9

#: Batch section: requests per batch and the k values they cycle over.
BATCH_M = 16
BATCH_KS = (15, 25, 50, 100)

#: Contention section: worker threads and warm requests per measurement.
CONTENTION_THREADS = 4
CONTENTION_OPS = 400


def _snapshot_ranked(num_tuples: int) -> RankedDatabase:
    db = generate_synthetic(
        num_xtuples=num_tuples // BARS,
        completion=COMPLETION,
        seed=DB_SEED,
    )
    return db.ranked()


def psr_snapshot(
    sizes: Sequence[int] = SNAPSHOT_SIZES,
    ks: Sequence[int] = SNAPSHOT_KS,
    repeats: int = 3,
    quick: bool = False,
) -> List[Dict]:
    """Per-point PSR pass timings for both backends."""
    points: List[Dict] = []
    for size in sizes:
        ranked = _snapshot_ranked(size)
        for k in ks:
            point: Dict = {"n": ranked.num_tuples, "k": k}
            for backend in BACKENDS:
                if (
                    backend == "python"
                    and quick
                    and ranked.num_tuples > PYTHON_BACKEND_MAX_TUPLES
                ):
                    point[f"{backend}_ms"] = None
                    continue
                point[f"{backend}_ms"] = time_call(
                    lambda: compute_rank_probabilities(ranked, k, backend=backend),
                    repeats=repeats,
                    time_budget_s=30.0,
                )
            if point.get("python_ms") and point.get("numpy_ms"):
                point["speedup"] = point["python_ms"] / point["numpy_ms"]
            points.append(point)
    return points


def query_session_snapshot(
    size: int = 10_000, k: int = 100, repeats: int = 5
) -> Dict:
    """Cold vs warm full evaluation through a QuerySession."""
    ranked = _snapshot_ranked(size)

    def cold() -> None:
        QuerySession(ranked).evaluate(k)

    cold_ms = time_call(cold, repeats=repeats, time_budget_s=30.0)

    session = QuerySession(ranked)
    session.evaluate(k)  # warm the cache
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < 0.5:
        session.evaluate(k)
        rounds += 1
    warm_ms = (time.perf_counter() - start) * 1000.0 / rounds
    return {
        "n": ranked.num_tuples,
        "k": k,
        "cold_eval_ms": cold_ms,
        "warm_eval_ms": warm_ms,
        "warm_is_answer_extraction_only": session.psr_misses == 1,
        "psr_cache_hits": session.psr_hits,
    }


def _round_changes(
    db: ProbabilisticDatabase,
    probes: Sequence[Tuple[str, Optional[str], bool]],
) -> Dict[str, Optional[XTuple]]:
    """One round's successful probes as the executor's change set."""
    return {
        xid: (
            None
            if revealed_tid is None
            else db.xtuple(xid).collapsed_to(revealed_tid)
        )
        for xid, revealed_tid, _ in probes
    }


def _replay_derive_phase(
    db: ProbabilisticDatabase,
    rounds_probes: Sequence[Sequence[Tuple[str, Optional[str], bool]]],
    k: int,
    seed_quality: Optional[float],
) -> Tuple[List[float], List[float], float]:
    """Re-run each changed round's derive/re-evaluate phase both ways.

    ``rounds_probes`` is the per-round list of successful probe
    outcomes ``(xid, revealed_tid, revealed_null)`` taken from a real
    adaptive run.  Like :func:`~repro.cleaning.executor.execute_plan`,
    every round applies its outcomes as one change set: the cold path
    builds the cleaned snapshot once through the public constructor,
    re-ranks it and runs a fresh PSR + quality pass; the delta path
    derives it through ``RankedDatabase.with_xtuples_changed`` and one
    delta-aware ``QuerySession.derive``.  Their qualities are
    cross-checked at every round -- disagreement beyond
    :data:`DERIVE_CHECK_TOLERANCE` raises, which is the snapshot's
    kernel-regression tripwire.
    """
    session = QuerySession(db)
    session.quality(k)
    cold_db = db
    cold_ms: List[float] = []
    delta_ms: List[float] = []
    max_err = 0.0
    for probes in rounds_probes:
        if not probes:
            continue
        start = time.perf_counter()
        new_ranked, delta = session.ranked.with_xtuples_changed(
            _round_changes(session.db, probes)
        )
        session = session.derive(new_ranked, delta=delta)
        delta_quality = session.quality(k).quality
        delta_ms.append((time.perf_counter() - start) * 1000.0)

        start = time.perf_counter()
        cold_db = cold_db.with_xtuples_changed(_round_changes(cold_db, probes))
        cold_quality = compute_quality_tp(cold_db.ranked(), k).quality
        cold_ms.append((time.perf_counter() - start) * 1000.0)

        max_err = max(max_err, abs(cold_quality - delta_quality))
        if max_err > DERIVE_CHECK_TOLERANCE:
            raise RuntimeError(
                f"delta-derived quality diverged from the cold pass by "
                f"{max_err:.3e} (> {DERIVE_CHECK_TOLERANCE:.0e}) -- "
                f"incremental kernel regression"
            )
    if seed_quality is not None:
        final_err = abs(session.quality(k).quality - seed_quality)
        max_err = max(max_err, final_err)
        if final_err > DERIVE_CHECK_TOLERANCE:
            raise RuntimeError(
                f"replayed delta session diverged from the original "
                f"adaptive run by {final_err:.3e} "
                f"(> {DERIVE_CHECK_TOLERANCE:.0e})"
            )
    return cold_ms, delta_ms, max_err


def adaptive_cleaning_snapshot(
    sizes: Sequence[int] = ADAPTIVE_SIZES,
    k: int = ADAPTIVE_K,
    budget: int = ADAPTIVE_BUDGET,
    seed: int = PROBE_SEED,
) -> List[Dict]:
    """Delta-engine timings for adaptive cleaning, one point per size."""
    points: List[Dict] = []
    for size in sizes:
        db = generate_synthetic(num_xtuples=size // BARS, seed=DB_SEED)
        costs = generate_costs(db, seed=COST_SEED)
        sc = generate_sc_probabilities(db, seed=SC_SEED)
        k_eff = min(k, db.num_tuples)

        runs: Dict[bool, Dict] = {}
        results: Dict[bool, object] = {}
        for use_deltas in (False, True):
            session = QuerySession(db)
            problem = build_cleaning_problem(
                session.quality(k_eff), costs, sc, budget
            )
            start = time.perf_counter()
            result = clean_adaptively(
                db,
                problem,
                GreedyCleaner(),
                rng=random.Random(seed),
                session=session,
                use_deltas=use_deltas,
            )
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            rounds = max(1, len(result.rounds))
            runs[use_deltas] = {
                "total_ms": elapsed_ms,
                "round_ms": elapsed_ms / rounds,
                "rounds": len(result.rounds),
                "final_quality": result.final_quality,
                "psr_full_passes": result.session.psr_misses,
                "psr_patches": result.session.psr_patches,
            }
            results[use_deltas] = result

        delta_result = results[True]
        rounds_probes = [
            [
                (r.xid, r.revealed_tid, r.revealed_null)
                for r in round_.outcome.records
                if r.succeeded
            ]
            for round_ in delta_result.rounds
        ]
        # Several replays; later ones are the steady-state measurement
        # (the first pays one-time costs -- allocator warm-up, lazy
        # list materialization -- that a long-running service never
        # sees per round).  Per-round times take the elementwise
        # minimum across repeats, the standard anti-jitter estimator.
        cold_ms: List[float] = []
        delta_ms: List[float] = []
        max_err = 0.0
        for _ in range(3):
            cold_rep, delta_rep, err_rep = _replay_derive_phase(
                db, rounds_probes, k_eff, delta_result.final_quality
            )
            max_err = max(max_err, err_rep)
            if not cold_ms:
                cold_ms, delta_ms = cold_rep, delta_rep
            else:
                cold_ms = [min(x, y) for x, y in zip(cold_ms, cold_rep)]
                delta_ms = [min(x, y) for x, y in zip(delta_ms, delta_rep)]

        point = {
            "n": db.num_tuples,
            "m": db.num_xtuples,
            "k": k_eff,
            "budget": budget,
            "rounds": runs[True]["rounds"],
            "probes_succeeded": sum(len(p) for p in rounds_probes),
            "cold_total_ms": runs[False]["total_ms"],
            "delta_total_ms": runs[True]["total_ms"],
            "end_to_end_round_speedup": (
                runs[False]["round_ms"] / runs[True]["round_ms"]
                if runs[True]["round_ms"]
                else None
            ),
            "cold_derive_round_ms": statistics.fmean(cold_ms) if cold_ms else None,
            "delta_derive_round_ms": (
                statistics.fmean(delta_ms) if delta_ms else None
            ),
            #: The headline metric: per-round cost of deriving and
            #: re-evaluating the changed snapshot, delta path vs the
            #: cold-derive path, on the run's real probe trace.
            "round_speedup": (
                statistics.fmean(cold_ms) / statistics.fmean(delta_ms)
                if cold_ms and delta_ms and statistics.fmean(delta_ms) > 0
                else None
            ),
            "psr_full_passes_delta": runs[True]["psr_full_passes"],
            "psr_patches_delta": runs[True]["psr_patches"],
            "max_abs_quality_error": max_err,
        }
        points.append(point)
    return points


def _batch_specs(
    m: int,
    ks: Sequence[int] = BATCH_KS,
    num_tuples: "int | None" = None,
) -> List[QuerySpec]:
    """``m`` mixed-``k`` query specs cycling over ``ks`` (capped at n)."""
    specs = []
    for i in range(m):
        k = ks[i % len(ks)]
        if num_tuples is not None:
            k = min(k, num_tuples)
        specs.append(QuerySpec(k=k, threshold=0.1))
    return specs


def service_batch_snapshot(
    size: int = 10_000, m: int = BATCH_M, repeats: int = 3
) -> Dict:
    """Batch (one shared max-k pass) vs m independent session evaluations.

    Cross-checks every batch answer against its independently evaluated
    twin (tuple ids exactly, qualities within
    :data:`DERIVE_CHECK_TOLERANCE`) and raises on disagreement, so the
    CI smoke run gates the prefix-restriction sharing path.
    """
    ranked = _snapshot_ranked(size)
    specs = _batch_specs(m, num_tuples=ranked.num_tuples)
    batch = BatchSpec(items=tuple(specs))

    def run_batch() -> ServiceResult:
        service = TopKService()
        sid = service.pool.register(ranked)
        return service.batch(sid, batch)

    def run_independent() -> List[EvaluationReport]:
        return [QuerySession(ranked).evaluate(s.k, s.threshold) for s in specs]

    batch_ms = time_call(run_batch, repeats=repeats, time_budget_s=30.0)
    independent_ms = time_call(
        run_independent, repeats=repeats, time_budget_s=60.0
    )

    def check_members(
        got: Sequence[Tuple[str, float]],
        expected: Sequence[Tuple[str, float]],
        label: str,
        k: int,
    ) -> None:
        """Positional tid equality, except swapped equal-probability ties.

        The shared pass re-sums ``ρ`` rows in a different order than
        the kernels' own accumulation, so tuples whose top-k
        probabilities are equal to the last ulp may legitimately swap
        positions; anything beyond a 1e-12 probability gap is a real
        divergence and fails the run.
        """
        if len(got) != len(expected):
            raise RuntimeError(
                f"batch {label} answer has {len(got)} members vs "
                f"{len(expected)} independent at k={k}"
            )
        for (got_tid, got_p), (exp_tid, exp_p) in zip(got, expected):
            if abs(got_p - exp_p) > DERIVE_CHECK_TOLERANCE:
                raise RuntimeError(
                    f"batch {label} probability diverged at k={k}: "
                    f"{got_tid}={got_p!r} vs {exp_tid}={exp_p!r}"
                )
            if got_tid != exp_tid and abs(got_p - exp_p) > 1e-12:
                raise RuntimeError(
                    f"batch {label} selection diverged at k={k}: "
                    f"{got_tid} vs {exp_tid}"
                )

    result = run_batch()
    reports = run_independent()
    max_err = 0.0
    for item, report in zip(result.payload["items"], reports):
        check_members(
            item["payload"]["ptk"]["members"],
            list(report.ptk.members),
            "PT-k",
            report.k,
        )
        check_members(
            item["payload"]["global_topk"]["members"],
            list(report.global_topk.members),
            "Global-topk",
            report.k,
        )
        err = abs(item["payload"]["quality"] - report.quality_score)
        max_err = max(max_err, err)
        if err > DERIVE_CHECK_TOLERANCE:
            raise RuntimeError(
                f"batch quality diverged from the independent evaluation "
                f"by {err:.3e} (> {DERIVE_CHECK_TOLERANCE:.0e}) at "
                f"k={report.k} -- prefix-restriction regression"
            )
    return {
        "n": ranked.num_tuples,
        "m": m,
        "ks": sorted({s.k for s in specs}),
        "batch_ms": batch_ms,
        "independent_ms": independent_ms,
        "batch_throughput_x": (
            independent_ms / batch_ms if batch_ms > 0 else None
        ),
        "psr_passes_batch": result.counters["psr_misses"],
        "psr_prefills_batch": result.counters["psr_prefills"],
        "max_abs_quality_error": max_err,
    }


def pool_contention_snapshot(
    size: int = 10_000,
    threads: int = CONTENTION_THREADS,
    ops: int = CONTENTION_OPS,
    k: int = 100,
) -> Dict:
    """Warm-path lease throughput, single-threaded vs a thread group.

    All sessions are pre-warmed, so the measured work is answer
    extraction plus the pool's lease/LRU bookkeeping -- the overhead a
    concurrent server pays per request on the hot path.
    """
    ranked = _snapshot_ranked(size)
    k = min(k, ranked.num_tuples)
    pool = SessionPool(max_sessions=4)
    sid = pool.register(ranked)
    with pool.lease(sid) as session:
        session.evaluate(k)  # warm

    def one_op() -> None:
        with pool.lease(sid) as session:
            session.evaluate(k)

    start = time.perf_counter()
    for _ in range(ops):
        one_op()
    serial_s = time.perf_counter() - start

    def worker(count: int) -> None:
        for _ in range(count):
            one_op()

    per_thread = ops // threads
    group = [
        threading.Thread(target=worker, args=(per_thread,))
        for _ in range(threads)
    ]
    start = time.perf_counter()
    for t in group:
        t.start()
    for t in group:
        t.join()
    threaded_s = time.perf_counter() - start
    threaded_ops = per_thread * threads
    return {
        "n": ranked.num_tuples,
        "k": k,
        "threads": threads,
        "ops": ops,
        "serial_ops_per_s": ops / serial_s if serial_s > 0 else None,
        "threaded_ops_per_s": (
            threaded_ops / threaded_s if threaded_s > 0 else None
        ),
        "contention_overhead_x": (
            (threaded_s / threaded_ops) / (serial_s / ops)
            if serial_s > 0 and threaded_ops > 0
            else None
        ),
        "session_hits": pool.session_hits,
        "session_misses": pool.session_misses,
    }


def perf_snapshot(quick: bool = False, smoke: bool = False) -> Dict:
    """The full snapshot document."""
    if smoke:
        psr = psr_snapshot(sizes=(500,), quick=quick)
        session = query_session_snapshot(size=500, k=50)
        adaptive = adaptive_cleaning_snapshot(
            sizes=(500,), k=50, budget=20
        )
        batch = service_batch_snapshot(size=500, m=8)
        contention = pool_contention_snapshot(size=500, ops=100, k=50)
    else:
        psr = psr_snapshot(quick=quick)
        session = query_session_snapshot()
        adaptive = adaptive_cleaning_snapshot()
        batch = service_batch_snapshot()
        contention = pool_contention_snapshot()
    return {
        "schema": "repro-perf-snapshot/6",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "generator": "synthetic",
            "bars_per_xtuple": BARS,
            "completion": COMPLETION,
            "seed": DB_SEED,
        },
        "psr": psr,
        "query_session": session,
        "adaptive_cleaning": adaptive,
        "service_batch": batch,
        "pool_contention": contention,
    }


def write_perf_snapshot(
    path: Union[str, Path], quick: bool = False, smoke: bool = False
) -> Dict:
    """Compute the snapshot and write it to ``path`` as JSON."""
    snapshot = perf_snapshot(quick=quick, smoke=smoke)
    Path(path).write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    return snapshot


def format_snapshot(snapshot: Dict) -> str:
    """Human-readable rendering of the JSON document."""
    lines = ["# PSR pass (ms; numpy vs python backend)"]
    for point in snapshot["psr"]:
        python_ms = point.get("python_ms")
        python_text = f"{python_ms:9.1f}" if python_ms is not None else "        -"
        speedup = point.get("speedup")
        speedup_text = f"  ({speedup:.1f}x)" if speedup else ""
        lines.append(
            f"n={point['n']:>7}  k={point['k']:>3}: "
            f"python {python_text}  numpy {point['numpy_ms']:9.1f}"
            f"{speedup_text}"
        )
    qs = snapshot["query_session"]
    lines.append("# QuerySession (cold vs warm full evaluation)")
    lines.append(
        f"n={qs['n']}  k={qs['k']}: cold {qs['cold_eval_ms']:.1f} ms, "
        f"warm {qs['warm_eval_ms']:.3f} ms "
        f"(PSR cache hits: {qs['psr_cache_hits']})"
    )
    lines.append(
        "# Adaptive cleaning (incremental delta engine vs cold derive)"
    )

    def fmt(value: Optional[float], spec: str) -> str:
        return format(value, spec) if value is not None else "-"

    for point in snapshot.get("adaptive_cleaning", []):
        lines.append(
            f"n={point['n']:>7}  k={point['k']:>3}  C={point['budget']}: "
            f"derive/round cold {fmt(point['cold_derive_round_ms'], '.1f')} ms"
            f" vs delta {fmt(point['delta_derive_round_ms'], '.2f')} ms "
            f"({fmt(point['round_speedup'], '.1f')}x; end-to-end "
            f"{fmt(point['end_to_end_round_speedup'], '.1f')}x; "
            f"{point['psr_full_passes_delta']} full PSR pass(es), "
            f"{point['psr_patches_delta']} patches, "
            f"max quality err {point['max_abs_quality_error']:.1e})"
        )
    batch = snapshot.get("service_batch")
    if batch:
        lines.append("# Service batch (shared max-k pass vs independent sessions)")
        lines.append(
            f"n={batch['n']}  m={batch['m']}  ks={batch['ks']}: "
            f"batch {batch['batch_ms']:.1f} ms vs independent "
            f"{batch['independent_ms']:.1f} ms "
            f"({fmt(batch['batch_throughput_x'], '.1f')}x; "
            f"{batch['psr_passes_batch']} PSR pass(es), "
            f"{batch['psr_prefills_batch']} prefills, "
            f"max quality err {batch['max_abs_quality_error']:.1e})"
        )
    contention = snapshot.get("pool_contention")
    if contention:
        lines.append("# SessionPool contention (warm lease throughput)")
        lines.append(
            f"n={contention['n']}  k={contention['k']}  "
            f"threads={contention['threads']}: "
            f"serial {fmt(contention['serial_ops_per_s'], '.0f')} ops/s vs "
            f"{contention['threads']}-thread "
            f"{fmt(contention['threaded_ops_per_s'], '.0f')} ops/s "
            f"(per-op overhead "
            f"{fmt(contention['contention_overhead_x'], '.2f')}x)"
        )
    return "\n".join(lines)
