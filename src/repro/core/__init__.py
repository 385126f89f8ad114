"""PWS-quality computation -- the paper's first contribution (Sec. IV).

Three exact algorithms plus one estimator:

* :func:`~repro.core.pw.compute_quality_pw` -- naive possible-world
  enumeration (ground truth, exponential);
* :func:`~repro.core.pwr.compute_quality_pwr` -- Algorithm 1: direct
  pw-result enumeration, ``O(n^{k+1})`` worst case;
* :func:`~repro.core.tp.compute_quality_tp` -- Theorem 1: weighted sum
  of top-k probabilities, ``O(kn)``, shareable with query evaluation;
* :func:`~repro.core.montecarlo.compute_quality_montecarlo` -- sampled
  estimate with standard error (extension).

:func:`~repro.core.quality.compute_quality` dispatches by name.
"""

from repro.core.backend import BACKENDS
from repro.core.entropy import entropy, negated_entropy, xlog2x
from repro.core.montecarlo import MonteCarloQualityResult, compute_quality_montecarlo
from repro.core.pw import PWQualityResult, compute_quality_pw
from repro.core.pwr import (
    PWRQualityResult,
    ResultLimitExceeded,
    compute_quality_pwr,
    iter_pw_results,
)
from repro.core.quality import compute_quality, compute_quality_detailed
from repro.core.tp import (
    TPQualityResult,
    compute_quality_tp,
    short_result_probability,
)
from repro.core.weights import compute_weights, weight_of

__all__ = [
    "compute_quality",
    "compute_quality_detailed",
    "compute_quality_pw",
    "compute_quality_pwr",
    "compute_quality_tp",
    "compute_quality_montecarlo",
    "iter_pw_results",
    "compute_weights",
    "weight_of",
    "short_result_probability",
    "PWQualityResult",
    "PWRQualityResult",
    "TPQualityResult",
    "MonteCarloQualityResult",
    "ResultLimitExceeded",
    "xlog2x",
    "entropy",
    "negated_entropy",
    "BACKENDS",
]
