"""Tuple weights ``ω_i`` for the TP algorithm (Theorem 1, Eq. 6-9).

Theorem 1 rewrites the PWS-quality as a weighted sum of top-k
probabilities, ``S(D,Q) = Σ_i ω_i·p_i``, where the weight

    ω_i = log2 e_i + (Y(1 - E_i) - Y(1 - E_i + e_i)) / e_i

depends only on existential probabilities *inside* ``t_i``'s own
x-tuple: ``E_i`` is the mass of siblings ranked at least as high as
``t_i`` (including ``t_i`` itself), and ``Y(x) = x·log2 x``.

Because tuples are pre-sorted, ``E_i`` is maintained incrementally with
one running sum per x-tuple (Eq. 9), giving all weights in ``O(n)``.
The NumPy kernel computes the running sums as one segmented cumulative
sum over the columnar arrays (group tuples by x-tuple with a stable
sort -- rank order is preserved within each group -- cumsum, subtract
each group's starting offset) and evaluates the weight formula as
array expressions; ``backend="python"`` runs the scalar oracle.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.backend import check_backend
from repro.core.entropy import xlog2x, xlog2x_array
from repro.db.database import RankedDatabase


def weight_of(existential: float, mass_at_least: float) -> float:
    """``ω`` for one tuple from its own probability and sibling mass.

    Parameters
    ----------
    existential:
        ``e_i`` -- the tuple's existential probability (> 0).
    mass_at_least:
        ``E_i = Σ_{siblings ranked >= t_i} e`` *including* ``e_i``.
    """
    one_minus_e = 1.0 - mass_at_least
    if one_minus_e < 0.0:  # round-off when the x-tuple sums to one
        one_minus_e = 0.0
    one_minus_higher = one_minus_e + existential
    if one_minus_higher > 1.0:
        one_minus_higher = 1.0
    return math.log2(existential) + (
        xlog2x(one_minus_e) - xlog2x(one_minus_higher)
    ) / existential


def sibling_mass_at_least(ranked: RankedDatabase, upto: int) -> np.ndarray:
    """``E_i`` for the first ``upto`` ranked tuples, vectorized.

    ``E_i`` is the cumulative existential mass of ``t_i``'s x-tuple
    over members ranked at least as high as ``t_i``, including ``t_i``
    itself -- a segmented cumulative sum over the columnar arrays.
    """
    existential = ranked.probabilities_array[:upto]
    groups = ranked.xtuple_indices_array[:upto]
    order = np.argsort(groups, kind="stable")
    cumulative = np.cumsum(existential[order])
    grouped = groups[order]
    # Subtract each group's cumulative total at its start; group-start
    # offsets are nondecreasing, so a running maximum forward-fills
    # them across each group.
    starts = np.nonzero(np.r_[True, grouped[1:] != grouped[:-1]])[0]
    offsets = np.zeros(upto)
    offsets[starts] = np.r_[0.0, cumulative[starts[1:] - 1]]
    offsets = np.maximum.accumulate(offsets)
    mass = cumulative - offsets
    out = np.empty(upto)
    out[order] = mass
    return out


def _compute_weights_numpy(ranked: RankedDatabase, upto: int) -> np.ndarray:
    existential = ranked.probabilities_array[:upto]
    mass = sibling_mass_at_least(ranked, upto)
    one_minus_e = np.maximum(1.0 - mass, 0.0)
    one_minus_higher = np.minimum(one_minus_e + existential, 1.0)
    return np.log2(existential) + (
        xlog2x_array(one_minus_e) - xlog2x_array(one_minus_higher)
    ) / existential


def _compute_weights_python(ranked: RankedDatabase, upto: int) -> List[float]:
    seen: Dict[int, float] = {}
    weights: List[float] = []
    for e_i, l in zip(
        ranked.probabilities_array[:upto].tolist(),
        ranked.xtuple_indices_array[:upto].tolist(),
    ):
        mass_at_least = seen.get(l, 0.0) + e_i
        seen[l] = mass_at_least
        weights.append(weight_of(e_i, mass_at_least))
    return weights


def compute_weights(
    ranked: RankedDatabase,
    upto: Optional[int] = None,
    backend: str = "numpy",
) -> np.ndarray:
    """Weights ``ω_i`` for the first ``upto`` ranked tuples.

    ``upto`` defaults to all tuples; the TP algorithm passes the PSR
    cutoff so that weights are only computed for the rows the scan
    kept.  The rows below it have zero top-k probability (Lemma 2) or
    together at most ``TAIL_EPSILON`` of it (the certified tail stop in
    :mod:`repro.queries.psr`), and every ``|ω_i|`` is at most
    ``log2(1/e_i) + 1/ln 2``, so dropping them moves the quality by at
    most 1.1e-12.
    Returns a float64 array; the NumPy kernel and the scalar oracle
    (``backend="python"``) agree within 1e-9.
    """
    n = ranked.num_tuples if upto is None else min(upto, ranked.num_tuples)
    if check_backend(backend) != "python":
        if n == 0:
            return np.zeros(0)
        return _compute_weights_numpy(ranked, n)
    return np.array(_compute_weights_python(ranked, n), dtype=np.float64)
