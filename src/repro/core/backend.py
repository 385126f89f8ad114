"""Kernel names: the NumPy production kernels and their scalar oracle.

The hot kernels (the PSR scan, TP weights and the per-x-tuple
aggregations) exist twice:

* ``"numpy"`` -- columnar, array-vectorized kernels.  They are the
  production path: every query, delta, service request, journal replay
  and CLI command runs them.
* ``"python"`` -- the original scalar reference implementation, kept
  runnable forever so the vectorized kernels can be cross-validated
  against it (and both against the exponential possible-world
  oracles) on every change.  Only cold passes exist for it.

The oracle is reached only through an explicit ``backend="python"`` on
:func:`repro.queries.psr.compute_rank_probabilities`,
:func:`repro.core.weights.compute_weights`,
:func:`repro.core.tp.compute_quality_tp` or
:class:`repro.queries.engine.QuerySession`.  There is deliberately no
process-wide switch (environment variable or setter): a schema-1
journal record replays by re-executing its cleaning, so a kernel picked
by the environment could flip a near-tie and make a store refuse to
open.
"""

from __future__ import annotations

#: The kernel names.  NumPy is a hard dependency of the package (the
#: columnar db layer is built on it); ``"python"`` selects the scalar
#: reference kernels, not a numpy-free mode.
BACKENDS = ("numpy", "python")


def check_backend(name: str) -> str:
    """``name`` if it is one of :data:`BACKENDS`, else ``ValueError``."""
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    return name
