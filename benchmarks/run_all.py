#!/usr/bin/env python3
"""Regenerate the paper's figures and ablations and check their shapes.

Usage::

    python benchmarks/run_all.py [--scale quick|default|full] [--only NAME ...]

Prints each table of ``repro.bench.ALL_FIGURES`` in the paper's layout,
writes it to ``benchmarks/results/``, then applies the entry's shape
check and prints every failure as ``name: message``.  Exits 1 if any
check failed.  The claims the paper states at k = 100 apply only from
``--scale default`` on.  The service-level benchmark is
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench import ALL_FIGURES, SCALES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="workload scale (see repro.bench.harness)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="NAME",
        help="run only these entries (e.g. fig4a ablation_greedy_gap)",
    )
    parser.add_argument(
        "--results-dir",
        default=Path(__file__).parent / "results",
        type=Path,
        help="directory for the .txt tables",
    )
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    names = args.only if args.only else list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; pick from {list(ALL_FIGURES)}")

    print(f"# scale = {scale.name} "
          f"(synth_m={scale.synth_m}, clean_m={scale.clean_m}, "
          f"mov_m={scale.mov_m}, budget_max={scale.budget_max})")
    failures = 0
    total_start = time.perf_counter()
    for name in names:
        figure = ALL_FIGURES[name]
        start = time.perf_counter()
        table = figure.generate(scale)
        elapsed = time.perf_counter() - start
        print()
        print(table.format())
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        table.save(args.results_dir)
        for message in figure.check(table):
            print(f"{name}: {message}")
            failures += 1
    print(f"\nall done in {time.perf_counter() - total_start:.1f}s; "
          f"tables in {args.results_dir}; {failures} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
