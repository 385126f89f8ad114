"""Benchmark harness: scales, workload caches, the figure registry.

:data:`ALL_FIGURES` maps each paper figure and ablation to a
:class:`Figure`: its table generator plus its shape check.
``benchmarks/run_all.py`` regenerates the tables at a chosen scale and
applies the checks; tier-1 applies them at quick scale.  The
service-level benchmark lives in ``perfbench/``.
"""

from repro.bench.harness import SCALES, BenchScale, Table, time_call
from repro.bench.figures import ALL_FIGURES, Figure

__all__ = [
    "BenchScale",
    "SCALES",
    "Table",
    "time_call",
    "ALL_FIGURES",
    "Figure",
]
