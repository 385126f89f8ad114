"""Benchmark harness: scales, timing, result tables.

Every figure of the paper's evaluation section has a function in
:mod:`repro.bench.figures` that regenerates its series and returns a
:class:`Table`.  This module holds the shared machinery:

* :class:`BenchScale` -- workload sizes per scale tier.  The authors
  ran C++ on an i5; pure Python cannot sweep to 10^6 tuples or budget
  10^5 in the same wall-clock, so the ``default`` tier trims sweep
  end-points while preserving every *shape* the paper reports.  Select
  with ``REPRO_BENCH_SCALE=quick|default|full``.
* :class:`Table` -- a printable, saveable experiment result.
* :func:`time_call` -- best-of-N wall-clock timing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple, Union


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes for one benchmark tier."""

    name: str
    #: x-tuples in the synthetic database used by timing figures.
    synth_m: int
    #: x-tuples in the synthetic database used by quality/cleaning
    #: effectiveness figures (the paper's default is 5000).
    clean_m: int
    #: x-tuples in the MOV database (the paper's copy has 4999).
    mov_m: int
    #: Largest k in the k-sweeps (the paper sweeps to 100).
    k_max: int
    #: Largest cleaning budget in the C-sweeps (the paper sweeps to 1e5).
    budget_max: int
    #: PWR is abandoned past this many pw-results (reported as capped).
    pwr_max_results: int
    #: Timing repetitions (best-of).
    repeats: int


SCALES = {
    "quick": BenchScale(
        name="quick",
        synth_m=200,
        clean_m=500,
        mov_m=500,
        k_max=50,
        budget_max=1_000,
        pwr_max_results=50_000,
        repeats=1,
    ),
    "default": BenchScale(
        name="default",
        synth_m=1_000,
        clean_m=5_000,
        mov_m=4_999,
        k_max=100,
        budget_max=10_000,
        pwr_max_results=200_000,
        repeats=3,
    ),
    "full": BenchScale(
        name="full",
        synth_m=5_000,
        clean_m=5_000,
        mov_m=4_999,
        k_max=100,
        budget_max=100_000,
        pwr_max_results=1_000_000,
        repeats=3,
    ),
}


def current_scale() -> BenchScale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (default: "default")."""
    name = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if name not in SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        )
    return SCALES[name]


#: Wall clock (seconds) after which :func:`time_call` stops repeating.
TIME_BUDGET_S = 2.0


def time_call(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock duration of ``fn()`` in milliseconds.

    Repetition stops early once :data:`TIME_BUDGET_S` of total wall
    clock has been spent, so slow sweep points are measured once
    instead of stalling the whole figure.
    """
    best = float("inf")
    total = 0.0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        duration = time.perf_counter() - start
        best = min(best, duration)
        total += duration
        if total > TIME_BUDGET_S:
            break
    return best * 1000.0


@dataclass
class Table:
    """One experiment's result series, printable in the paper's layout."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[Tuple] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: object) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} entries for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> List:
        """All values of one column, by header name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    @staticmethod
    def _format_cell(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            magnitude = abs(value)
            if magnitude >= 1000 or magnitude < 0.01:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def format(self) -> str:
        """Render the table as aligned monospace text."""
        cells = [[self._format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(header), *(len(r[i]) for r in cells)) if cells else len(header)
            for i, header in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def save(self, directory: Union[str, Path]) -> Path:
        """Write the formatted table to ``directory/<experiment>.txt``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment}.txt"
        path.write_text(self.format() + "\n", encoding="utf-8")
        return path

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()
