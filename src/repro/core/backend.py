"""Compute-backend selection: NumPy or reference Python.

The hot kernels (the PSR scan, TP weights and the per-x-tuple
aggregations) exist twice:

* ``"numpy"`` -- columnar, array-vectorized kernels; the default
  whenever NumPy imports.  This is the production path.
* ``"python"`` -- the original scalar reference implementation.  It is
  kept runnable forever so the vectorized kernels can be
  cross-validated against it (and both against the exponential
  possible-world oracles) on every change.

There is no multi-process backend: a process pool did not beat the
numpy kernel on measured hardware (README, "One kernel, no process
pool").

Selection, in decreasing precedence:

1. an explicit ``backend="..."`` argument on the kernel entry points
   (:func:`repro.queries.psr.compute_rank_probabilities`,
   :func:`repro.core.weights.compute_weights`,
   :func:`repro.core.tp.compute_quality_tp`) or on
   :class:`repro.queries.engine.QuerySession`;
2. the process-wide default set via :func:`set_backend` /
   :func:`use_backend`;
3. the ``REPRO_BACKEND`` environment variable at import time;
4. ``"numpy"``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

#: The selectable backends.  NumPy is a hard dependency of the package
#: (the columnar db layer is built on it); the "python" backend selects
#: the scalar reference kernels, not a numpy-free mode.
BACKENDS = ("numpy", "python")


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    return name


_current = _validate(os.environ.get("REPRO_BACKEND", "numpy").lower())


def current_backend() -> str:
    """The process-wide default backend name."""
    return _current


def set_backend(name: str) -> None:
    """Set the process-wide default backend (one of :data:`BACKENDS`)."""
    global _current
    _current = _validate(name)


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily switch the process-wide default backend."""
    global _current
    previous = _current
    _current = _validate(name)
    try:
        yield _current
    finally:
        _current = previous


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve an explicit ``backend=`` argument against the default."""
    if backend is None:
        return _current
    return _validate(backend)
