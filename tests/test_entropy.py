"""Unit tests for entropy helpers (repro.core.entropy)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.entropy import (
    entropy,
    negated_entropy,
    quality_lower_bound,
    quality_of_distribution,
    xlog2x,
)


class TestXlog2x:
    def test_zero(self):
        assert xlog2x(0.0) == 0.0

    def test_negative_clamped(self):
        assert xlog2x(-1e-18) == 0.0

    def test_one(self):
        assert xlog2x(1.0) == 0.0

    def test_half(self):
        assert xlog2x(0.5) == pytest.approx(-0.5)

    @given(st.floats(min_value=1e-12, max_value=1.0))
    def test_nonpositive_on_unit_interval(self, x):
        assert xlog2x(x) <= 0.0


class TestNegatedEntropy:
    def test_certain_distribution_is_zero(self):
        assert negated_entropy([1.0]) == 0.0

    def test_uniform_two_outcomes(self):
        assert negated_entropy([0.5, 0.5]) == pytest.approx(-1.0)

    def test_uniform_n_outcomes_hits_lower_bound(self):
        for n in (2, 4, 8, 16):
            probs = [1.0 / n] * n
            assert negated_entropy(probs) == pytest.approx(
                quality_lower_bound(n)
            )

    def test_skips_zero_entries(self):
        assert negated_entropy([0.5, 0.5, 0.0]) == pytest.approx(-1.0)

    def test_entropy_is_negation(self):
        probs = [0.2, 0.3, 0.5]
        assert entropy(probs) == pytest.approx(-negated_entropy(probs))

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8)
    )
    def test_bounds(self, weights):
        total = sum(weights)
        probs = [w / total for w in weights]
        q = negated_entropy(probs)
        assert quality_lower_bound(len(probs)) - 1e-9 <= q <= 0.0


class TestQualityOfDistribution:
    def test_paper_figure2(self):
        distribution = {
            ("t2", "t6"): 0.168,
            ("t2", "t5"): 0.252,
            ("t6", "t4"): 0.072,
            ("t5", "t6"): 0.108,
            ("t1", "t2"): 0.28,
            ("t1", "t6"): 0.048,
            ("t1", "t5"): 0.072,
        }
        assert quality_of_distribution(distribution) == pytest.approx(
            -2.55, abs=0.005
        )

    def test_lower_bound_validates(self):
        with pytest.raises(ValueError):
            quality_lower_bound(0)
