"""Benchmark harness: scales, workload caches, per-figure experiments.

Used by the pytest benchmarks under ``benchmarks/`` and by the
standalone ``benchmarks/run_all.py`` figure runner.  Scale selection
is via the ``REPRO_BENCH_SCALE`` environment variable
(``quick`` / ``default`` / ``full``).  The service-level benchmark
lives in ``perfbench/``.
"""

from repro.bench.harness import SCALES, BenchScale, Table, current_scale, time_call
from repro.bench.figures import ALL_FIGURES

__all__ = [
    "BenchScale",
    "SCALES",
    "current_scale",
    "Table",
    "time_call",
    "ALL_FIGURES",
]
