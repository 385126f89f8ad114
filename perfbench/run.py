"""Service-level benchmark of ``repro``: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload serve-scan --seed 1 --seconds 12 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs the same request stream twice -- untraced,
then with every layer boundary wrapped -- and reports the per-layer
metrics, the attribution of each operation class's time to layers, and
the tracing overhead.  Both print a human-readable report and end with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

The run's operation count is ``--seconds`` times the workload's nominal
rate, so a parent and a child commit replay the identical request
stream.  Correctness checks run after each operation, outside its timed
interval; any mismatch fails the run (exit code 1).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from metrics import per_layer_values
from tracing import LAYERS, Tracer

#: Program settings scrubbed from the environment, so the benchmark
#: always measures the defaults (numpy backend, no worker pool,
#: fsync durability, no journal threshold, default lock timeouts).
SCRUBBED_ENV = (
    "REPRO_BACKEND",
    "REPRO_WORKERS",
    "REPRO_FAULTS",
    "REPRO_DEBUG_LOCKS",
    "REPRO_JOURNAL_MAX_RECORDS",
    "REPRO_STORE_LOCK_TIMEOUT_MS",
    "REPRO_TASK_TIMEOUT_MS",
)

ROOT = Path.cwd()


def pin_environment() -> None:
    """Re-execute with the program's settings scrubbed and hashing fixed.

    ``exec`` replaces this process, so no child is left behind.  A fixed
    ``PYTHONHASHSEED`` keeps set and dict iteration identical between
    runs, which the same-seed count check relies on.
    """
    dirty = [name for name in SCRUBBED_ENV if name in os.environ]
    if not dirty and os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="perturb one checked answer; the run must then fail",
    )
    parser.add_argument(
        "--report", type=Path, default=None,
        help="also write the full report as JSON to this path",
    )
    return parser.parse_args(argv)


#: Calibration loop time (ms, fastest of three) on the reference
#: machine -- 2 cores, Python 3.11, numpy 2.4 -- in a quiet moment.
CALIBRATION_REFERENCE_MS = 2.7


_CALIBRATION_RECORDS = [
    [f"X{i}", [[f"X{i}.b{b}", 1234.5678 + b, 0.1] for b in range(3)]]
    for i in range(300)
]
_CALIBRATION_VALUES = np.arange(1_000_000, dtype=np.float64)
_CALIBRATION_OUT = np.empty_like(_CALIBRATION_VALUES)


def _calibration_work() -> float:
    """The program's kinds of work in small: interpreter arithmetic,
    JSON encoding, short-lived objects and a numpy pass over 8 MB."""
    total = 0.0
    for i in range(5000):
        total += i * 0.5
    encoded = json.dumps(_CALIBRATION_RECORDS, separators=(",", ":"))
    objects = [(i, str(i)) for i in range(3000)]
    np.multiply(_CALIBRATION_VALUES, 1.0001, out=_CALIBRATION_OUT)
    return total + len(encoded) + len(objects) + float(_CALIBRATION_OUT[-1])


def calibration_ms() -> float:
    """Fastest of three runs of a fixed calibration loop, in ms.

    The host's speed drifts by tens of percent over seconds (other
    tenants share its cores and caches); the loop, timed right before
    and after each operation, measures that drift.  Garbage collection
    is held off so the program's heap does not bill the loop.
    """
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            _calibration_work()
            best = min(best, time.perf_counter() - began)
    finally:
        gc.enable()
    return best * 1000.0


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Scale from this moment's wall time to the reference machine's."""
    return CALIBRATION_REFERENCE_MS / ((before_ms + after_ms) / 2.0)


def corrupt_payload(payload: Dict[str, Any]) -> bool:
    """Shift one answer probability; returns whether anything changed."""
    for key in ("quality", "quality_after"):
        if isinstance(payload.get(key), float):
            payload[key] += 1e-6
            return True
    for item in payload.get("items", ()):
        if corrupt_payload(item["payload"]):
            return True
    return False


def run_phase(
    workload: Any,
    count: int,
    tracer: Any = None,
    corrupt: bool = False,
) -> Dict[str, Any]:
    """Drive ``count`` operations of a set-up workload; collect samples."""
    from repro.exceptions import ReproError

    samples: List[Dict[str, Any]] = []
    failures: List[str] = []
    corrupted = not corrupt
    start_totals = workload.totals()
    envelope: Dict[str, int] = {}
    cleaning = {"probes": 0, "successes": 0, "rounds": 0}
    if tracer is not None:
        tracer.install()
    try:
        for index, op in enumerate(workload.ops(count)):
            before = calibration_ms()
            if tracer is not None:
                tracer.request = index
                tracer.active = True
            began = time.perf_counter()
            try:
                result = op.run()
                error = None
            except ReproError as exc:
                result, error = None, exc
            elapsed_ms = (time.perf_counter() - began) * 1000.0
            if tracer is not None:
                tracer.active = False
            factor = speed_factor(before, calibration_ms())
            if error is not None:
                failures.append(f"op {index} ({op.kind}): {type(error).__name__}: {error}")
                samples.append({"class": op.kind, "ms": elapsed_ms * factor,
                                "wall_ms": elapsed_ms, "failed": True})
                continue
            if not corrupted and op.independent:
                corrupted = corrupt_payload(result.payload)
            problems = op.check(result)
            failures += [f"op {index} ({op.kind}): {p}" for p in problems]
            for name, value in (result.counters or {}).items():
                envelope[name] = envelope.get(name, 0) + value
            probes = result.payload.get("probes") or ()
            cleaning["probes"] += sum(p["performed"] for p in probes)
            cleaning["successes"] += sum(1 for p in probes if p["succeeded"])
            cleaning["rounds"] += result.payload.get("rounds", 0)
            samples.append(
                {
                    "class": workload.classify(op, result),
                    "ms": elapsed_ms * factor,
                    "wall_ms": elapsed_ms,
                    "failed": bool(problems),
                    **{f"{k}_ms": v * factor for k, v in op.timings.items()},
                }
            )
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    end_checks = workload.finish()
    for name, problems in end_checks.items():
        failures += [f"end check {name}: {p}" for p in problems]
    end_totals = workload.totals()
    totals = {
        name: value - start_totals.get(name, 0)
        for name, value in end_totals.items()
    }
    return {
        "samples": samples,
        "failures": failures,
        "attempted": len(samples) + len(end_checks),
        "failed": sum(1 for s in samples if s["failed"])
        + sum(1 for problems in end_checks.values() if problems),
        "envelope": envelope,
        "totals": totals,
        "cleaning": cleaning,
        "extra": workload.extra_metrics(),
    }


def class_metrics(samples: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median (and p90 where >= 100 samples) latency per class, at
    reference speed, plus the raw wall-clock median under ``wall.``."""
    by_class: Dict[str, List[float]] = {}
    for sample in samples:
        by_class.setdefault(sample["class"] + "_ms", []).append(sample["ms"])
        by_class.setdefault("wall." + sample["class"] + "_ms", []).append(
            sample["wall_ms"]
        )
        for key, value in sample.items():
            if key.endswith("_ms") and key != "wall_ms":
                by_class.setdefault(key, []).append(value)
    out: Dict[str, Dict[str, Any]] = {}
    for name, values in sorted(by_class.items()):
        out[f"{name}.p50"] = {"value": statistics.median(values), "unit": "ms",
                              "samples": len(values)}
        if len(values) >= 100:
            p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
            out[f"{name}.p90"] = {"value": p90, "unit": "ms", "samples": len(values)}
    return out


def counts_of(phase: Dict[str, Any]) -> Dict[str, int]:
    """The counts two runs of one seed must reproduce exactly."""
    envelope = phase["envelope"]
    counts = {
        "psr.misses": envelope.get("psr_misses", 0),
        "engine.prefills": envelope.get("psr_prefills", 0),
        "engine.delta_derives": envelope.get("delta_derives", 0),
        "engine.cold_derives": envelope.get("cold_derives", 0),
        "engine.psr_hits": envelope.get("psr_hits", 0),
        "cleaning.probes": phase["cleaning"]["probes"],
    }
    for name, value in phase["totals"].items():
        counts[name.replace("psr_store_", "store.")] = value
    return counts


def configuration(workload: Any) -> Dict[str, Any]:
    params = dict(workload.params)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "params": params,
        "backend": "numpy (default)",
        "workers": None,
        "durability": "fsync",
        "retention_keep_last_n": params.get("keep_last_n"),
        "journal_max_records": params.get("journal_max_records"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "scrubbed_env": list(SCRUBBED_ENV),
    }


def timed_run(workload: Any, count: int, corrupt: bool) -> Dict[str, Any]:
    setup_times = []
    for _ in range(workload.setup_repeats):
        workload.service = None
        before = calibration_ms()
        began = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - began
        setup_times.append(elapsed * speed_factor(before, calibration_ms()))
    phase = run_phase(workload, count, corrupt=corrupt)
    samples = [s for s in phase["samples"] if not s["failed"]]
    busy_s = sum(s["ms"] for s in phase["samples"]) / 1000.0
    key = [s["ms"] for s in samples if s["class"] == workload.key_class]
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": len(phase["samples"]) / busy_s, "unit": "ops/s"},
        "key_op_ms.p50": {"value": statistics.median(key) if key else float("nan"),
                          "unit": "ms"},
    }
    report_metrics = dict(metrics)
    report_metrics["failed_frac"] = {
        "value": phase["failed"] / phase["attempted"], "unit": "failed/attempted"
    }
    report_metrics.update(class_metrics(samples))
    for name, value in phase["extra"].items():
        report_metrics[name] = {"value": value, "unit": "ratio"}
    return {
        "phase": phase,
        "metrics": metrics,
        "report_metrics": report_metrics,
        "counts": counts_of(phase),
    }


def traced_run(workload: Any, count: int, corrupt: bool) -> Dict[str, Any]:
    workload.setup()
    plain = run_phase(workload, count, corrupt=corrupt)
    workload.service = None
    workload.setup()
    tracer = Tracer()
    traced = run_phase(workload, count, tracer=tracer, corrupt=corrupt)
    plain_counts, traced_counts = counts_of(plain), counts_of(traced)
    diverged = sorted(
        name for name in plain_counts if plain_counts[name] != traced_counts[name]
    )
    if diverged:
        traced["failures"].append(
            "determinism: counts differ between two replays of the stream: "
            + ", ".join(diverged)
        )
        traced["failed"] += 1
    traced["attempted"] += 1

    def ops_per_s(phase: Dict[str, Any]) -> float:
        return len(phase["samples"]) / (sum(s["ms"] for s in phase["samples"]) / 1000.0)

    overhead = 100.0 * (1.0 - ops_per_s(traced) / ops_per_s(plain))
    summary = tracer.summary()
    values = per_layer_values(summary, traced, tracer, overhead)
    return {
        "phase": traced,
        "metrics": values,
        "counts": {**counts_of(traced), **{
            k: v["value"] for k, v in values.items() if v["unit"] == "count"
        }},
        "attribution": attribution(summary, traced["samples"]),
        "overhead_pct": overhead,
    }


def attribution(summary: Dict[str, Any], samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Mean self time per layer and operation class, plus the remainder
    of each operation's wall time no span accounts for."""
    per_request = summary["request_layer_s"]
    table: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for index, sample in enumerate(samples):
        row = table.setdefault(sample["class"], {"wall_ms": 0.0})
        counts[sample["class"]] = counts.get(sample["class"], 0) + 1
        row["wall_ms"] += sample["wall_ms"]
        layers = per_request.get(index, {})
        spanned = 0.0
        for layer in LAYERS:
            ms = layers.get(layer, 0.0) * 1000.0
            row[layer] = row.get(layer, 0.0) + ms
            spanned += ms
        row["unattributed"] = row.get("unattributed", 0.0) + sample["wall_ms"] - spanned
    return {
        cls: {"samples": counts[cls], **{k: v / counts[cls] for k, v in row.items()}}
        for cls, row in table.items()
    }


def print_report(
    args: argparse.Namespace, config: Dict[str, Any], outcome: Dict[str, Any]
) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(outcome['phase']['samples'])}")
    print("# config " + json.dumps(config, sort_keys=True))
    shown = outcome.get("report_metrics", outcome["metrics"])
    for name, metric in shown.items():
        extra = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}{extra}")
    if "attribution" in outcome:
        print(f"# tracing overhead: {outcome['overhead_pct']:.2f}% of untraced ops/s")
        print("# mean ms per operation, by layer (self time)")
        for cls, row in sorted(outcome["attribution"].items()):
            cells = " ".join(
                f"{k}={v:.3f}" for k, v in row.items()
                if k != "samples" and (v >= 0.0005 or k == "unattributed")
            )
            print(f"  {cls} (n={row['samples']}): {cells}")
    print("# counts " + json.dumps(outcome["counts"], sort_keys=True))
    failures = outcome["phase"]["failures"]
    print(f"# checks: {outcome['phase']['attempted']} attempted, "
          f"{outcome['phase']['failed']} failed")
    for failure in failures[:20]:
        print(f"#   FAIL {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    pin_environment()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it from "
              f"the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
    count = max(10, round(args.seconds * workload.nominal_rate))
    try:
        workload.make_inputs()
        warm_up(workdir / "warm-up")
        if args.trace:
            outcome = traced_run(workload, max(10, count // 2), args.corrupt)
        else:
            outcome = timed_run(workload, count, args.corrupt)
    finally:
        workload.service = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    config = configuration(workload)
    print_report(args, config, outcome)
    phase = outcome["phase"]
    result = {
        "correct": phase["failed"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in outcome["metrics"].items()
        },
    }
    if args.report is not None:
        full = {"config": config, "result": result, "counts": outcome["counts"],
                "report_metrics": outcome.get("report_metrics"),
                "attribution": outcome.get("attribution"),
                "failures": phase["failures"]}
        args.report.write_text(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
