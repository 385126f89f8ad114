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
over the columnar arrays; ``g(l, D)`` is one float64 array, which the
cleaning problem holds as it is.
``compute_quality_tp(..., backend="python")`` runs the scalar oracle
end to end instead: scalar PSR pass, scalar weights, an ``fsum``
quality and a row-at-a-time ``g(l, D)`` sum, returned as an array.

Assumption inherited from Theorem 1: every possible world yields a
full-length (size-``k``) result.  This holds whenever at least ``k``
x-tuples are complete, and in particular on all the paper's workloads.
Use :func:`short_result_probability` to check, or
``compute_quality_tp(..., check_support=True)`` to fail fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.weights import compute_weights
from repro.db.database import RankedDatabase
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

    def g_by_xtuple(self) -> np.ndarray:
        """``g(l, D) = Σ_{t_i∈τ_l} ω_i·p_i`` for every x-tuple, as a
        float64 array in the database's x-tuple order.

        These sum to the quality score; cleaning x-tuple ``l``
        successfully removes exactly ``g(l, D)`` from it (Theorem 2).
        """
        rp = self.rank_probabilities
        if self.backend != "python":
            return np.bincount(
                self.ranked.xtuple_indices_array[: rp.cutoff],
                weights=np.asarray(self.weights_prefix) * rp.topk_prefix,
                minlength=self.ranked.num_xtuples,
            )
        g = [0.0] * self.ranked.num_xtuples
        for l, w, p in zip(
            self.ranked.xtuple_indices_array[: rp.cutoff].tolist(),
            np.asarray(self.weights_prefix).tolist(),
            rp.topk_prefix.tolist(),
        ):
            g[l] += w * p
        return np.array(g, dtype=np.float64)


def patch_quality_tp(
    old_quality: TPQualityResult, carried: RankProbabilities
) -> TPQualityResult:
    """``old_quality`` rebound to a PSR pass carried over a change set.

    ``carried`` is ``old_quality``'s pass moved to the patched view by
    :func:`repro.queries.psr.apply_rank_delta`: the same rows, all
    above the first changed row.  A weight ``ω_i`` reads only row ``i``
    and its own x-tuple's rows above it, and none of those changed, so
    the weights, the quality and every ``g(l, D)`` carry over as they
    are.
    """
    return TPQualityResult(
        quality=old_quality.quality,
        rank_probabilities=carried,
        weights_prefix=old_quality.weights_prefix,
        backend=old_quality.backend,
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
