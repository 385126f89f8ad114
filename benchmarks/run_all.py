#!/usr/bin/env python3
"""Regenerate every table/figure of the paper in one run.

Usage::

    python benchmarks/run_all.py [--scale quick|default|full] [--only figXX ...]

Prints each experiment's series in the paper's layout and writes them
to ``benchmarks/results/``.  The service-level benchmark is
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=("quick", "default", "full"),
        default=os.environ.get("REPRO_BENCH_SCALE", "default"),
        help="workload scale (see repro.bench.harness)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="FIG",
        help="run only these experiments (e.g. fig4a fig6a)",
    )
    parser.add_argument(
        "--results-dir",
        default=Path(__file__).parent / "results",
        type=Path,
        help="directory for the .txt tables",
    )
    args = parser.parse_args(argv)
    os.environ["REPRO_BENCH_SCALE"] = args.scale

    from repro.bench import ALL_FIGURES, current_scale

    scale = current_scale()
    names = args.only if args.only else list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; pick from {list(ALL_FIGURES)}")

    print(f"# scale = {scale.name} "
          f"(synth_m={scale.synth_m}, clean_m={scale.clean_m}, "
          f"mov_m={scale.mov_m}, budget_max={scale.budget_max})")
    total_start = time.perf_counter()
    for name in names:
        start = time.perf_counter()
        table = ALL_FIGURES[name](scale)
        elapsed = time.perf_counter() - start
        print()
        print(table.format())
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        table.save(args.results_dir)
    print(f"\nall done in {time.perf_counter() - total_start:.1f}s; "
          f"tables in {args.results_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
