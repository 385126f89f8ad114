"""Shared fixtures for the test suite.

The hypothesis strategies live in :mod:`strategies` (importable as a
plain module from any test file); this conftest only provides
fixtures.  The strategy names are re-exported here for backwards
compatibility with ``from conftest import ...``.  The per-test timeout
hooks come from :mod:`timeout_fallback`; they stand down when
pytest-timeout is installed.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from strategies import (  # noqa: F401 - re-exported for back-compat
    cleaning_problems,
    databases,
    databases_with_k,
)
from timeout_fallback import (  # noqa: F401 - pytest hooks
    pytest_addoption,
    pytest_configure,
    pytest_runtest_protocol,
    pytest_unconfigure,
)

#: The larger budget of ``test_store_model.py``, for
#: ``--hypothesis-profile store-model`` (CI's fault-smoke job); tier-1
#: runs that file on a small budget of its own.  Registered here, before
#: the hypothesis plugin loads a profile named on the command line.
STORE_MODEL_PROFILE = "store-model"
settings.register_profile(
    STORE_MODEL_PROFILE, max_examples=150, stateful_step_count=30, deadline=None
)


@pytest.fixture(autouse=True)
def no_stranded_store_files():
    """Fail any test that strands a store temp file.

    The snapshot store promises that a ``.tmp-*`` file surviving a
    test means a write path skipped its cleanup (only a *crash* may
    strand one, and reopening sweeps it).  Also disarms any fault plan
    a test left installed so faults never bleed across tests.
    """
    from repro.store import stranded_temp_files
    from repro.testing import clear_faults

    yield
    clear_faults()
    stranded = stranded_temp_files()
    assert not stranded, (
        f"stranded snapshot-store temp files: "
        f"{sorted(str(p) for p in stranded)} "
        f"(a non-crash error path skipped its unlink)"
    )


def assert_payloads_close(got, expected, tol=1e-9, tie_tol=1e-12):
    """Recursive service-payload equality, tolerant to float rounding.

    The batch/prefill path re-sums PSR rows in a different order than a
    direct pass, so probabilities may differ in the last ulp and tuples
    with *equal* probabilities may legitimately swap positions.  Floats
    compare within ``tol``; a tuple-id mismatch is accepted only when
    the paired probabilities agree within ``tie_tol`` (a swapped tie).
    Everything else must be exactly equal.
    """
    if isinstance(expected, dict):
        assert isinstance(got, dict) and set(got) == set(expected), (
            got,
            expected,
        )
        if set(expected) == {"rank", "tid", "probability"}:
            assert got["rank"] == expected["rank"]
            assert abs(got["probability"] - expected["probability"]) <= tol
            if got["tid"] != expected["tid"]:
                assert abs(got["probability"] - expected["probability"]) <= tie_tol
            return
        for key in expected:
            if key in ("timing_ms", "counters"):
                continue  # operational metadata; run-dependent by design
            assert_payloads_close(got[key], expected[key], tol, tie_tol)
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected), (got, expected)
        if all(
            isinstance(item, (list, tuple))
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], (int, float))
            for item in expected
        ) and expected:
            for (got_tid, got_p), (exp_tid, exp_p) in zip(got, expected):
                assert abs(got_p - exp_p) <= tol, (got_tid, got_p, exp_tid, exp_p)
                if got_tid != exp_tid:
                    assert abs(got_p - exp_p) <= tie_tol, (got_tid, exp_tid)
            return
        for got_item, exp_item in zip(got, expected):
            assert_payloads_close(got_item, exp_item, tol, tie_tol)
    elif isinstance(expected, float):
        assert isinstance(got, (int, float))
        assert got == pytest.approx(expected, abs=tol), (got, expected)
    else:
        assert got == expected, (got, expected)


def open_service(root):
    """A service over a ``SnapshotStore`` at ``root``, exactly
    ``TopKService(store_dir=root)``: it replays the store's pending
    journal records as it opens."""
    from repro.api import TopKService

    return TopKService(store_dir=root)


@pytest.fixture
def udb1():
    from repro.datasets.paper import udb1 as factory

    return factory()


@pytest.fixture
def udb2():
    from repro.datasets.paper import udb2 as factory

    return factory()


@pytest.fixture
def small_synthetic():
    """A 30-x-tuple synthetic database (fast but non-trivial)."""
    from repro.datasets.synthetic import generate_synthetic

    return generate_synthetic(num_xtuples=30, seed=42)
