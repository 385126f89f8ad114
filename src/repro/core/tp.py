"""TP: quality from tuple probabilities in ``O(kn)`` (Section IV-B).

TP never looks at pw-results.  It obtains every tuple's top-k
probability ``p_i`` with one PSR pass, computes the weights ``ω_i``
(Theorem 1) incrementally, and sums ``ω_i·p_i``.  Because PSR is also
what answers U-kRanks / PT-k / Global-topk, a caller who already
evaluated a query can hand its :class:`RankProbabilities` in and pay
only the (small) weight-summation overhead -- the computation sharing
of Section IV-C and Figure 5.  :class:`repro.queries.engine.QuerySession`
automates exactly that.

The weight pass is a segmented cumulative sum, the quality a dot
product, and the per-x-tuple aggregation ``g(l, D)`` a ``bincount``
over the columnar arrays.  ``compute_quality_tp(..., backend="python")``
runs the scalar oracle end to end instead: scalar PSR pass, scalar
weights, an ``fsum`` quality and a scalar ``g(l, D)`` loop.

Assumption inherited from Theorem 1: every possible world yields a
full-length (size-``k``) result.  This holds whenever at least ``k``
x-tuples are complete, and in particular on all the paper's workloads.
Use :func:`short_result_probability` to check, or
``compute_quality_tp(..., check_support=True)`` to fail fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.weights import compute_weights, weight_of
from repro.db.database import RankDelta, RankedDatabase
from repro.exceptions import InvalidQueryError
from repro.queries.psr import RankProbabilities, compute_rank_probabilities

#: Tolerated probability of a short result before `check_support` fails.
SUPPORT_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class TPQualityResult:
    """Output of the TP algorithm.

    Keeps the intermediates that downstream stages reuse: the rank
    probabilities (query answering) and the per-tuple weighted
    contributions aggregated per x-tuple (``g(l, D)`` -- the quantity
    the whole cleaning machinery of Section V is built on).
    ``backend`` names the kernel that computed it: ``"python"`` only for
    the scalar oracle's cold runs.
    """

    quality: float
    rank_probabilities: RankProbabilities
    weights_prefix: np.ndarray
    backend: str

    def __eq__(self, other: object) -> bool:
        # The weights array needs elementwise comparison; the dataclass
        # default would raise on it.
        if not isinstance(other, TPQualityResult):
            return NotImplemented
        return (
            self.quality == other.quality
            and self.rank_probabilities == other.rank_probabilities
            and np.array_equal(self.weights_prefix, other.weights_prefix)
        )

    @property
    def k(self) -> int:
        return self.rank_probabilities.k

    @property
    def ranked(self) -> RankedDatabase:
        return self.rank_probabilities.ranked

    def g_by_xtuple_array(self) -> np.ndarray:
        """``g(l, D)`` per x-tuple as a float64 array (database order)."""
        rp = self.rank_probabilities
        return np.bincount(
            self.ranked.xtuple_indices_array[: rp.cutoff],
            weights=np.asarray(self.weights_prefix) * rp.topk_prefix,
            minlength=self.ranked.num_xtuples,
        )

    def g_by_xtuple(self) -> List[float]:
        """``g(l, D) = Σ_{t_i∈τ_l} ω_i·p_i`` for every x-tuple.

        These sum to the quality score; cleaning x-tuple ``l``
        successfully removes exactly ``g(l, D)`` from it (Theorem 2).
        Indexed by the database's x-tuple order.
        """
        if self.backend != "python":
            return self.g_by_xtuple_array().tolist()
        rp = self.rank_probabilities
        g = [0.0] * self.ranked.num_xtuples
        xtuple_indices = self.ranked.xtuple_indices
        for i in range(rp.cutoff):
            g[xtuple_indices[i]] += float(
                self.weights_prefix[i] * rp.topk_prefix[i]
            )
        return g


def patch_quality_tp(
    old_quality: TPQualityResult,
    rank_probabilities: RankProbabilities,
    delta: RankDelta,
) -> Optional[TPQualityResult]:
    """TP quality for a delta-patched view, from the old quality.

    A tuple's weight ``ω_i`` depends only on its own x-tuple's
    higher-ranked siblings, so a change set leaves every unchanged
    x-tuple's weights bitwise unchanged -- the new weight vector is the
    old one with the changed x-tuples' rows spliced out and the
    replacements' rows (computed scalar-style, O(|replacements|))
    spliced in.  The quality is then one dot product against the
    patched top-k vector, and the result is labelled ``"numpy"`` like
    the patched PSR output.

    Returns ``None`` when the spliced weights fall short of the new
    cutoff (removing x-tuples can move the PSR stop below the rows the
    old weights covered) -- the caller falls back to
    :func:`compute_quality_tp`.
    """
    old_w = np.asarray(old_quality.weights_prefix)
    cutoff = rank_probabilities.cutoff
    spliced = np.delete(
        old_w, delta.removed_rows[delta.removed_rows < old_w.shape[0]]
    )
    inserted = delta.inserted_rows[delta.inserted_rows < cutoff]
    if inserted.size:
        ranked = rank_probabilities.ranked
        # Rows ascend, so each x-tuple's mass accumulates in rank order.
        mass: Dict[int, float] = {}
        weights = []
        for e, l in zip(
            ranked.probabilities_array[inserted].tolist(),
            ranked.xtuple_indices_array[inserted].tolist(),
        ):
            mass[l] = min(1.0, mass.get(l, 0.0) + e)
            weights.append(weight_of(e, mass[l]))
        spliced = np.insert(
            spliced,
            np.minimum(inserted - np.arange(inserted.size), spliced.shape[0]),
            weights,
        )
    if spliced.shape[0] < cutoff:
        return None
    weights_prefix = np.ascontiguousarray(spliced[:cutoff])
    return TPQualityResult(
        quality=float(weights_prefix @ rank_probabilities.topk_prefix),
        rank_probabilities=rank_probabilities,
        weights_prefix=weights_prefix,
        backend="numpy",
    )


def short_result_probability(ranked: RankedDatabase, k: int) -> float:
    """Probability that a possible world yields fewer than ``k`` real
    tuples (i.e. a short pw-result, outside Theorem 1's assumption)."""
    return 1.0 - ranked.min_real_tuples_probability(k)


def compute_quality_tp(
    ranked: RankedDatabase,
    k: int,
    rank_probabilities: Optional[RankProbabilities] = None,
    check_support: bool = False,
    backend: str = "numpy",
) -> TPQualityResult:
    """Run TP: PSR (unless shared), weights, weighted sum.

    Parameters
    ----------
    ranked:
        Pre-sorted database.
    k:
        Top-k parameter.
    rank_probabilities:
        PSR output to reuse (Section IV-C sharing).  Must have been
        computed for the same ``ranked`` view and the same ``k``.
    check_support:
        When true, verify Theorem 1's full-length-result assumption and
        raise :class:`~repro.exceptions.InvalidQueryError` if short
        results are possible.
    backend:
        ``"python"`` runs the scalar oracle (see the module docstring)
        instead of the NumPy kernels.
    """
    if rank_probabilities is None:
        rank_probabilities = compute_rank_probabilities(ranked, k, backend=backend)
    else:
        if rank_probabilities.k != k:
            raise InvalidQueryError(
                f"shared rank probabilities were computed for "
                f"k={rank_probabilities.k}, not k={k}"
            )
        if rank_probabilities.ranked is not ranked:
            raise InvalidQueryError(
                "shared rank probabilities belong to a different ranked view"
            )
    if check_support:
        shortfall = short_result_probability(ranked, k)
        if shortfall > SUPPORT_TOLERANCE:
            raise InvalidQueryError(
                f"possible worlds yield fewer than k={k} real tuples with "
                f"probability {shortfall:.3g}; Theorem 1 (TP) does not "
                f"apply -- use PWR or PW instead"
            )
    weights = compute_weights(
        ranked, upto=rank_probabilities.cutoff, backend=backend
    )
    if backend == "numpy":
        quality = float(weights @ rank_probabilities.topk_prefix)
    else:
        quality = math.fsum(
            w * p
            for w, p in zip(
                weights.tolist(), rank_probabilities.topk_prefix.tolist()
            )
        )
    return TPQualityResult(
        quality=quality,
        rank_probabilities=rank_probabilities,
        weights_prefix=weights,
        backend=backend,
    )
