"""PWR: enumerate pw-results directly, skipping possible worlds.

Algorithm 1 of the paper.  A depth-first search over the rank-sorted
tuples decides, for each tuple, whether it belongs to the current
partial result ``r``.  The crucial observation: while ``|r| < k``, a
scanned tuple that is *not* in ``r`` cannot exist in the underlying
world at all (it would have made the top-k), so each DFS path pins down
exactly the information Lemma 1 needs and the search never touches
tuples ranked below the k-th member of a result.

Beyond the paper's pseudocode, this implementation:

* maintains Lemma 1's probability *incrementally* along the DFS path
  (an ``O(1)`` update per step instead of an ``O(n)`` rescan per
  result);
* is iterative (explicit stack), so deep skip-chains on large inputs
  cannot overflow Python's recursion limit;
* handles *short* results exactly: when x-tuples are incomplete, a
  world may hold fewer than ``k`` real tuples, and the DFS reaches the
  end of the scan with ``|r| < k`` -- the leftover probability mass is
  ``Π e_i · Π (1 - s_l)`` over the uncovered x-tuples;
* prunes zero-probability branches, which subsumes the pseudocode's
  Step 10 ("forced existence") as a special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.core.entropy import xlog2x
from repro.db.database import RankedDatabase
from repro.db.tuples import COMPLETENESS_TOLERANCE
from repro.exceptions import ReproError
from repro.queries.deterministic import PWResult, require_valid_k


class ResultLimitExceeded(ReproError):
    """PWR hit the caller-imposed cap on the number of pw-results."""


@dataclass(frozen=True)
class PWRQualityResult:
    """Output of the PWR algorithm.

    ``distribution`` is populated only when the caller asked to collect
    results (it can be huge: up to ``n^k`` entries).
    """

    quality: float
    num_results: int
    distribution: Optional[Dict[PWResult, float]]


def iter_pw_results(
    ranked: RankedDatabase, k: int
) -> Iterator[Tuple[PWResult, float]]:
    """Yield every pw-result with its exact probability (Lemma 1).

    Results are produced in DFS order; each distinct result appears
    exactly once and the probabilities sum to one.
    """
    require_valid_k(k)
    n = ranked.num_tuples
    m = ranked.num_xtuples
    probabilities = ranked.probabilities_array.tolist()
    xtuple_indices = ranked.xtuple_indices_array.tolist()

    covered = [False] * m
    mass = [0.0] * m
    chosen: list = []  # tids of the current partial result

    # Work stack items:
    #   ("visit", i, prod_e, prod_excl) -- explore tuple index i
    #   ("take", i, l, old_mass)        -- enter t_i into r
    #   ("untake", l)                   -- leave the take-branch subtree
    #   ("setmass", l, value)           -- mass bookkeeping around skips
    work: list = [("visit", 0, 1.0, 1.0)]
    while work:
        item = work.pop()
        tag = item[0]
        if tag == "visit":
            _, i, prod_e, prod_excl = item
            if len(chosen) == k:
                probability = prod_e * prod_excl
                if probability > 0.0:
                    yield tuple(chosen), probability
                continue
            if i == n:
                probability = prod_e * prod_excl
                if probability > 0.0:
                    # Short result: every uncovered x-tuple went null.
                    yield tuple(chosen), probability
                continue
            l = xtuple_indices[i]
            if covered[l]:
                # Step 8: a sibling is already in r, so t_i cannot exist.
                work.append(("visit", i + 1, prod_e, prod_excl))
                continue
            e = probabilities[i]
            old = mass[l]
            remainder = 1.0 - old - e
            # Skip branch (t_i absent).  Pushed first so the take branch
            # is explored first; a remainder of zero means existence is
            # forced (Step 10) and the branch is pruned.
            if remainder > COMPLETENESS_TOLERANCE:
                work.append(("setmass", l, old))
                work.append(
                    ("visit", i + 1, prod_e, prod_excl * remainder / (1.0 - old))
                )
                work.append(("setmass", l, old + e))
            # Take branch (t_i enters r).
            work.append(("untake", l))
            work.append(
                ("visit", i + 1, prod_e * e, prod_excl / (1.0 - old))
            )
            work.append(("take", i, l))
        elif tag == "take":
            _, i, l = item
            covered[l] = True
            chosen.append(ranked.order[i].tid)
        elif tag == "untake":
            covered[item[1]] = False
            chosen.pop()
        else:  # "setmass"
            mass[item[1]] = item[2]


def compute_quality_pwr(
    ranked: RankedDatabase,
    k: int,
    collect: bool = False,
    max_results: Optional[int] = None,
) -> PWRQualityResult:
    """Run PWR and score the pw-result distribution (Definition 4).

    Parameters
    ----------
    ranked:
        Pre-sorted database.
    k:
        Top-k parameter.
    collect:
        Keep the full pw-result distribution (needed to redraw the
        paper's Figures 2-3; costs memory proportional to the number of
        results).
    max_results:
        Optional cap; exceeding it raises :class:`ResultLimitExceeded`.
        Protects benchmark sweeps from the algorithm's exponential tail.
    """
    quality = 0.0
    count = 0
    distribution: Optional[Dict[PWResult, float]] = {} if collect else None
    for result, probability in iter_pw_results(ranked, k):
        quality += xlog2x(probability)
        count += 1
        if distribution is not None:
            distribution[result] = probability
        if max_results is not None and count > max_results:
            raise ResultLimitExceeded(
                f"PWR produced more than {max_results} pw-results"
            )
    return PWRQualityResult(
        quality=quality, num_results=count, distribution=distribution
    )

