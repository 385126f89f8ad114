"""Workloads: the paper's toy example, synthetic generator, and MOV.

* :mod:`repro.datasets.paper` -- Tables I/II (udb1, udb2), the exact
  regression vectors;
* :mod:`repro.datasets.synthetic` -- the Section VI generator plus the
  cleaning-experiment knobs (costs, sc-pdfs);
* :mod:`repro.datasets.mov` -- the simulated Netflix movie-rating
  database (its module docstring says why it is simulated and which
  properties it keeps).
"""

from repro.datasets.mov import MovConfig, generate_mov, mov_ranking
from repro.datasets.paper import (
    UDB1_TOP2_QUALITY,
    UDB2_TOP2_QUALITY,
    udb1,
    udb2,
)
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_costs,
    generate_sc_probabilities,
    generate_synthetic,
)

__all__ = [
    "udb1",
    "udb2",
    "UDB1_TOP2_QUALITY",
    "UDB2_TOP2_QUALITY",
    "SyntheticConfig",
    "generate_synthetic",
    "generate_costs",
    "generate_sc_probabilities",
    "MovConfig",
    "generate_mov",
    "mov_ranking",
]
