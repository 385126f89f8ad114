"""Unit tests of PSR's Poisson-binomial vector primitives.

These pin the numerical behaviour the integration tests rely on:
add/remove round-trips, the capped vector's exactness on its first k
entries, and the scalar kernel's rebuild fallback for high factors.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import SATURATION_EPSILON
from repro.queries.psr import (
    _add_factor,
    _rebuild_from_base,
    _remove_factor_forward,
)


def _poisson_binomial(factors, k):
    """Reference: full convolution, truncated to the first k entries."""
    dp = [1.0] + [0.0] * len(factors)
    for q in factors:
        for s in range(len(dp) - 1, 0, -1):
            dp[s] = dp[s] * (1 - q) + dp[s - 1] * q
        dp[0] *= 1 - q
    return dp[:k] + [0.0] * max(0, k - len(dp))


class TestAddFactor:
    def test_single_factor(self):
        dp = [1.0, 0.0, 0.0]
        _add_factor(dp, 0.3)
        assert dp == pytest.approx([0.7, 0.3, 0.0])

    def test_capped_prefix_stays_exact(self):
        factors = [0.2, 0.5, 0.7, 0.9]
        k = 3
        dp = [1.0] + [0.0] * (k - 1)
        for q in factors:
            _add_factor(dp, q)
        assert dp == pytest.approx(_poisson_binomial(factors, k), abs=1e-12)

    def test_zero_factor_is_identity(self):
        dp = [0.4, 0.6, 0.0]
        _add_factor(dp, 0.0)
        assert dp == pytest.approx([0.4, 0.6, 0.0])

    def test_one_factor_shifts(self):
        dp = [0.4, 0.6, 0.0]
        _add_factor(dp, 1.0)
        assert dp == pytest.approx([0.0, 0.4, 0.6])


class TestRemoveFactor:
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=0.5), min_size=1, max_size=6
        ),
        st.integers(0, 5),
    )
    def test_remove_inverts_add(self, factors, remove_index):
        remove_index %= len(factors)
        k = 4
        dp = [1.0] + [0.0] * (k - 1)
        for q in factors:
            _add_factor(dp, q)
        removed = _remove_factor_forward(dp, factors[remove_index])
        rest = factors[:remove_index] + factors[remove_index + 1 :]
        assert removed == pytest.approx(_poisson_binomial(rest, k), abs=1e-9)

    def test_remove_last_factor_restores_unit_vector(self):
        dp = [1.0, 0.0, 0.0]
        _add_factor(dp, 0.25)
        restored = _remove_factor_forward(dp, 0.25)
        assert restored == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_roundoff_clamped_nonnegative(self):
        dp = [1.0, 0.0]
        _add_factor(dp, 0.5)
        out = _remove_factor_forward(dp, 0.5)
        assert all(v >= 0.0 for v in out)


def _unit(k):
    """The empty product: a closed-product base with nothing closed."""
    return [1.0] + [0.0] * (k - 1)


class TestRebuild:
    def test_rebuild_skips_requested_factor(self):
        active = {0: 0.9, 1: 0.3, 2: 0.6}
        k = 3
        rebuilt = _rebuild_from_base(_unit(k), active, 0)
        assert rebuilt == pytest.approx(_poisson_binomial([0.3, 0.6], k))
        # Saturated open factors live in the shift, never the vector.
        active[3] = 1.0 - SATURATION_EPSILON / 2
        assert _rebuild_from_base(_unit(k), active, 0) == rebuilt

    def test_rebuild_with_missing_skip_uses_all(self):
        active = {1: 0.3, 2: 0.6}
        rebuilt = _rebuild_from_base(_unit(3), active, 99)
        assert rebuilt == pytest.approx(_poisson_binomial([0.3, 0.6], 3))
        # The base multiplies in: a closed factor of 0.5 is one more.
        rebuilt = _rebuild_from_base([0.5, 0.5, 0.0], active, 99)
        assert rebuilt == pytest.approx(_poisson_binomial([0.5, 0.3, 0.6], 3))

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.5, max_value=0.99), min_size=2, max_size=5))
    def test_rebuild_agrees_with_reference_for_high_factors(self, factors):
        active = dict(enumerate(factors))
        k = 4
        for skip in active:
            rest = [q for l, q in active.items() if l != skip]
            assert _rebuild_from_base(_unit(k), active, skip) == pytest.approx(
                _poisson_binomial(rest, k), abs=1e-12
            )


class TestConsistency:
    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=7)
    )
    def test_vector_entries_are_probabilities(self, factors):
        k = 5
        dp = [1.0] + [0.0] * (k - 1)
        for q in factors:
            _add_factor(dp, q)
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in dp)
        assert math.fsum(dp) <= 1.0 + 1e-9
