"""The benchmark's metric registry.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
declares, in its order and with its units; the benchmark's tests hold
the two in step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: name -> (unit, better, bound).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "key_op_ms.p50": ("ms", "lower", 0.25),
}

#: name -> (unit, better); README.md maps each to its layer, the
#: end-to-end metric it should move, and the workloads it should not.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "service.self_ms": ("ms", "lower"),
    "pool.lease_wait_ms": ("ms", "lower"),
    "pool.session_hit_ratio": ("ratio", "higher"),
    "pool.evictions": ("count", "lower"),
    "engine.psr_hit_ratio": ("ratio", "higher"),
    "engine.prefills": ("count", "higher"),
    "engine.delta_derives": ("count", "higher"),
    "engine.cold_derives": ("count", "lower"),
    "psr.passes": ("count", "lower"),
    "psr.pass_ms": ("ms", "lower"),
    "psr.rows_per_s": ("rows/s", "higher"),
    "psr.delta_calls": ("count", "lower"),
    "psr.delta_ms": ("ms", "lower"),
    "answers.ms": ("ms", "lower"),
    "tp.calls": ("count", "lower"),
    "tp.ms": ("ms", "lower"),
    "db.rank_ms": ("ms", "lower"),
    "db.content_hash_ms": ("ms", "lower"),
    "db.delta_calls": ("count", "lower"),
    "db.delta_ms": ("ms", "lower"),
    "cleaning.problem_ms": ("ms", "lower"),
    "cleaning.plan_ms": ("ms", "lower"),
    "cleaning.execute_ms": ("ms", "lower"),
    "cleaning.probes": ("count", "lower"),
    "cleaning.probe_success_ratio": ("ratio", "higher"),
    "cleaning.rounds": ("count", "lower"),
    "store.persist_ms": ("ms", "lower"),
    "store.journal_ms": ("ms", "lower"),
    "store.checkpoint_ms": ("ms", "lower"),
    "store.gc_ms": ("ms", "lower"),
    "store.open_ms": ("ms", "lower"),
    "store.writes": ("count", "lower"),
    "store.replays": ("count", "lower"),
    "store.compactions": ("count", "lower"),
    "store.gc_unlinks": ("count", "higher"),
    "store.quarantined": ("count", "lower"),
    "store.space_amp": ("ratio", "lower"),
    "format.encode_ms": ("ms", "lower"),
    "format.decode_ms": ("ms", "lower"),
    "format.bytes_per_user_byte": ("ratio", "lower"),
    "locks.wait_ms": ("ms", "lower"),
    "store.lock_waits": ("count", "lower"),
    "os.fsyncs": ("count", "lower"),
    "os.fsync_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(
    summary: Dict[str, Any], phase: Dict[str, Any], tracer: Any, overhead: float
) -> Dict[str, Dict[str, Any]]:
    """Every ``PER_LAYER`` metric of one traced phase."""
    calls = summary["calls"]
    self_ms = {name: s * 1000.0 for name, s in summary["self_s"].items()}
    layer_ms = {name: s * 1000.0 for name, s in summary["layer_self_s"].items()}
    env = phase["envelope"]
    totals = phase["totals"]
    cleaning = phase["cleaning"]

    def ms(*names: str) -> float:
        return sum(self_ms.get(name, 0.0) for name in names)

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def store(name: str) -> int:
        return totals.get("psr_store_" + name, 0)

    hits, misses = totals["pool.session_hits"], totals["pool.session_misses"]
    values: Dict[str, float] = {
        "service.self_ms": layer_ms.get("service", 0.0),
        "pool.lease_wait_ms": ms("pool.lease"),
        "pool.session_hit_ratio": _ratio(hits, hits + misses),
        "pool.evictions": totals["pool.evictions"],
        "engine.psr_hit_ratio": _ratio(
            env.get("psr_hits", 0), env.get("psr_hits", 0) + env.get("psr_misses", 0)
        ),
        "engine.prefills": env.get("psr_prefills", 0),
        "engine.delta_derives": env.get("delta_derives", 0),
        "engine.cold_derives": env.get("cold_derives", 0),
        "psr.passes": count("psr.pass"),
        "psr.pass_ms": ms("psr.pass"),
        "psr.rows_per_s": _ratio(tracer.psr_rows, ms("psr.pass") / 1000.0),
        "psr.delta_calls": count("psr.delta"),
        "psr.delta_ms": ms("psr.delta"),
        "answers.ms": layer_ms.get("answers", 0.0),
        "tp.calls": count("tp.compute", "tp.patch"),
        "tp.ms": layer_ms.get("tp", 0.0),
        "db.rank_ms": ms("db.rank"),
        "db.content_hash_ms": ms("db.content_hash"),
        "db.delta_calls": count("db.delta"),
        "db.delta_ms": ms("db.delta"),
        "cleaning.problem_ms": ms("cleaning.problem"),
        "cleaning.plan_ms": ms("cleaning.plan"),
        "cleaning.execute_ms": ms("cleaning.execute", "cleaning.adaptive"),
        "cleaning.probes": cleaning["probes"],
        "cleaning.probe_success_ratio": _ratio(
            cleaning["successes"], cleaning["probes"]
        ),
        "cleaning.rounds": cleaning["rounds"],
        "store.persist_ms": ms("store.persist"),
        "store.journal_ms": ms("store.journal"),
        "store.checkpoint_ms": ms("store.checkpoint"),
        "store.gc_ms": ms("store.gc"),
        "store.open_ms": ms("store.open"),
        "store.writes": store("writes"),
        "store.replays": store("replays"),
        "store.compactions": store("compactions"),
        "store.gc_unlinks": store("gc_unlinks"),
        "store.quarantined": store("quarantined"),
        "store.space_amp": phase["extra"].get("space_amp", 0.0),
        "format.encode_ms": ms("format.encode"),
        "format.decode_ms": ms("format.decode"),
        "format.bytes_per_user_byte": _ratio(tracer.segment_bytes, tracer.column_bytes),
        "locks.wait_ms": ms("locks.acquire"),
        "store.lock_waits": store("lock_waits"),
        "os.fsyncs": count("os.fsync"),
        "os.fsync_ms": ms("os.fsync"),
        "trace.overhead_pct": overhead,
    }
    return {
        name: {"value": float(values[name]) if PER_LAYER[name][0] != "count"
               else int(values[name]), "unit": PER_LAYER[name][0]}
        for name in PER_LAYER
    }


def benchmark_json_entries() -> Dict[str, List[Dict[str, Any]]]:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": spec[0], "better": spec[1]}
            for n, spec in PER_LAYER.items()
        ],
    }
