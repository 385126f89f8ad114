"""How fast does the PSR kernel scan, across sizes, data and stops?

Times one cold PSR pass (``compute_rank_probabilities_numpy``) for each
combination of:

* ``n`` tuples (``n / 10`` x-tuples of ``generate_synthetic``, seed 1);
* complete data, where Lemma 2 stops a pass, and incomplete data
  (completion 0.85), where the certified tail stop does;
* ``k`` in 15 and 100;
* a tail-stopped pass (``tail_epsilon`` = ``TAIL_EPSILON``) and an
  unstopped one (``tail_epsilon=0``), which only Lemma 2 or the last
  row ends.

For each it prints the rows the pass kept (its cutoff), the groups it
ran, the median wall time of a pass and the rows per second that makes.
For a tail-stopped pass it also prints the top-k mass the unstopped
pass finds past its cutoff, which the stop certifies to be at most
``TAIL_EPSILON``, and the row where the quadratic Chernoff form
``k·exp(-(μ-k)²/(2μ))`` would have stopped it, which the cutoff never
passes; the sweep exits non-zero if either check fails.

``--against DIR`` also times another checkout's kernel: it loads
``DIR/src/repro/queries/psr_numpy.py`` into this process, next to this
checkout's (the rest of ``repro``, data generation included, is this
checkout's), and alternates the two kernels' calls on the same ranked
inputs, starting with each in turn.  It prints the other kernel's
figures and the ratio of the two medians (other / this, above 1 when
this checkout is faster); the cutoffs must agree.

It measures wall-clock time, so it is not a test; run it on an idle
machine, and read a ratio against the spread of a few runs:

    PYTHONPATH=src python scripts/psr_sweep.py
    PYTHONPATH=src python scripts/psr_sweep.py --against ../parent --repeats 7
    PYTHONPATH=src python scripts/psr_sweep.py --sizes 2000 --repeats 1
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.synthetic import generate_synthetic  # noqa: E402
from repro.db.database import RankedDatabase  # noqa: E402
from repro.queries import psr_numpy  # noqa: E402
from repro.queries.psr import TAIL_EPSILON, RankProbabilities  # noqa: E402

SIZES = (10_000, 30_000, 100_000, 300_000)
KS = (15, 100)
DATA = (("complete", 1.0), ("incomplete", 0.85))
STOPS = (("tail", TAIL_EPSILON), ("none", 0.0))


def load_kernel(checkout: Path) -> ModuleType:
    """Another checkout's block kernel, loaded under its own name."""
    path = checkout / "src" / "repro" / "queries" / "psr_numpy.py"
    spec = importlib.util.spec_from_file_location("against_psr_numpy", path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"no PSR kernel at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quadratic_stop(ranked: RankedDatabase, k: int, epsilon: float) -> int:
    """The first row whose mass above exceeds ``μ* = k + L + √(L² +
    2kL)``, ``L = ln(k/ε)``: where the quadratic form stops a scan."""
    log_term = math.log(k / epsilon)
    threshold = k + log_term + math.sqrt(log_term * (log_term + 2 * k))
    mass = np.cumsum(ranked.probabilities_array)
    return min(
        ranked.num_tuples, int(np.searchsorted(mass, threshold, side="right")) + 1
    )


def time_pass(
    kernel: ModuleType, ranked: RankedDatabase, k: int, epsilon: float
) -> Tuple[float, RankProbabilities]:
    """Seconds and result of one cold pass."""
    start = time.perf_counter()
    result = kernel.compute_rank_probabilities_numpy(ranked, k, epsilon)
    return time.perf_counter() - start, result


def sweep_case(
    kernels: Sequence[ModuleType],
    ranked: RankedDatabase,
    k: int,
    epsilon: float,
    repeats: int,
) -> List[Tuple[float, RankProbabilities]]:
    """Median seconds and a result of each kernel's pass, alternating
    the kernels and which one goes first."""
    times: List[List[float]] = [[] for _ in kernels]
    results: List[Optional[RankProbabilities]] = [None for _ in kernels]
    for repeat in range(repeats):
        order = list(range(len(kernels)))
        if repeat % 2:
            order.reverse()
        for index in order:
            seconds, results[index] = time_pass(
                kernels[index], ranked, k, epsilon
            )
            times[index].append(seconds)
    return [
        (statistics.median(seconds), result)
        for seconds, result in zip(times, results)
        if result is not None
    ]


def groups_of(result: RankProbabilities) -> int:
    """Groups a block-kernel pass ran: its deferred ρ rows hold one
    entry per group."""
    return len(result._rho_state.groups)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--sizes",
        default=",".join(str(n) for n in SIZES),
        help="comma-separated tuple counts (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="passes per kernel and case"
    )
    parser.add_argument(
        "--against", type=Path, help="another checkout whose kernel to time"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sizes = [int(size) for size in args.sizes.split(",")]
    kernels = [psr_numpy]
    if args.against is not None:
        kernels.append(load_kernel(args.against))

    header = (
        f"{'n':>7} {'data':>10} {'k':>3} {'stop':>4} {'rows':>7}"
        f" {'groups':>6} {'ms':>8} {'rows/s':>9} {'past':>8} {'quad':>7}"
    )
    if len(kernels) > 1:
        header += f" | {'groups':>6} {'ms':>8} {'rows/s':>9} {'ratio':>6}"
    print(header)
    failures = 0
    for n in sizes:
        for data, completion in DATA:
            db = generate_synthetic(
                num_xtuples=max(1, n // 10), completion=completion, seed=1
            )
            ranked = db.ranked()
            for k in KS:
                cells: Dict[str, List[Tuple[float, RankProbabilities]]] = {
                    stop: sweep_case(kernels, ranked, k, epsilon, args.repeats)
                    for stop, epsilon in STOPS
                }
                # Every row of an unstopped pass, to check the stop by.
                unstopped = cells["none"][0][1].topk_prefix
                for stop, epsilon in STOPS:
                    rows = cells[stop]
                    seconds, result = rows[0]
                    cutoff = result.cutoff
                    line = (
                        f"{ranked.num_tuples:>7} {data:>10} {k:>3} {stop:>4}"
                        f" {cutoff:>7} {groups_of(result):>6}"
                        f" {seconds * 1e3:>8.2f} {cutoff / seconds:>9.0f}"
                    )
                    if epsilon > 0.0:
                        past = math.fsum(unstopped[cutoff:].tolist())
                        quad = quadratic_stop(ranked, k, epsilon)
                        line += f" {past:>8.1e} {quad:>7}"
                        if past > epsilon or cutoff > quad:
                            failures += 1
                            line += "  UNCERTIFIED"
                    else:
                        line += f" {'':>8} {'':>7}"
                    if len(rows) > 1:
                        other, other_result = rows[1]
                        line += (
                            f" | {groups_of(other_result):>6}"
                            f" {other * 1e3:>8.2f}"
                            f" {other_result.cutoff / other:>9.0f}"
                            f" {other / seconds:>6.2f}"
                        )
                        if other_result.cutoff != cutoff:
                            failures += 1
                            line += f"  CUTOFF {other_result.cutoff} != {cutoff}"
                    print(line, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
