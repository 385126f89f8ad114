"""TP quality algorithm: Theorem 1 validation and sharing semantics.

The paper-vector and possible-world checks run both kernels: the
production NumPy path and, through ``backend="python"``, the scalar
oracle (scalar PSR pass, scalar weights, ``fsum`` quality, scalar
``g(l, D)`` loop).
"""

import math

import pytest
from hypothesis import given, settings

from repro.core.backend import BACKENDS
from repro.core.pw import compute_quality_pw
from repro.core.tp import (
    compute_quality_tp,
    short_result_probability,
)
from repro.core.weights import compute_weights, weight_of
from repro.datasets.paper import UDB1_TOP2_QUALITY, UDB2_TOP2_QUALITY
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import make_xtuple
from repro.exceptions import InvalidQueryError
from repro.queries.psr import compute_rank_probabilities

from strategies import databases_with_k

ABS = 1e-9


def _qualities(ranked, k):
    """TP quality over ``ranked`` at ``k`` per kernel."""
    return [
        compute_quality_tp(ranked, k, backend=backend) for backend in BACKENDS
    ]


class TestPaperVectors:
    def test_udb1(self, udb1):
        for result in _qualities(udb1.ranked(), 2):
            assert result.quality == pytest.approx(UDB1_TOP2_QUALITY, abs=ABS)

    def test_udb2(self, udb2):
        for result in _qualities(udb2.ranked(), 2):
            assert result.quality == pytest.approx(UDB2_TOP2_QUALITY, abs=ABS)

    def test_g_values_sum_to_quality(self, udb1):
        for result in _qualities(udb1.ranked(), 2):
            assert math.fsum(result.g_by_xtuple()) == pytest.approx(
                result.quality, abs=ABS
            )

    def test_certain_xtuple_contributes_zero(self, udb1):
        s4 = udb1.ranked().xtuple_ids.index("S4")
        for result in _qualities(udb1.ranked(), 2):
            assert result.g_by_xtuple()[s4] == 0.0


class TestWeights:
    def test_certain_tuple_weight_is_zero(self):
        # e = 1: log2(1) + (Y(0) - Y(1)) / 1 = 0.
        assert weight_of(1.0, 1.0) == 0.0

    def test_single_uncertain_tuple_weight(self):
        # x-tuple {e=0.5}: ω = log2(0.5) + (Y(0.5) - Y(1)) / 0.5 = -1 - 1 = -2.
        assert weight_of(0.5, 0.5) == pytest.approx(-2.0)

    def test_weights_depend_only_on_own_xtuple(self):
        # Same x-tuple composition, different other x-tuples: equal ω.
        db1 = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 10.0, 0.6), ("t1", 5.0, 0.4)]),
                make_xtuple("b", [("t2", 7.0, 1.0)]),
            ]
        )
        db2 = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 10.0, 0.6), ("t1", 5.0, 0.4)]),
                make_xtuple("b", [("t2", 7.0, 0.5), ("t3", 6.0, 0.5)]),
            ]
        )
        w1 = dict(zip((t.tid for t in db1.ranked().order), compute_weights(db1.ranked())))
        w2 = dict(zip((t.tid for t in db2.ranked().order), compute_weights(db2.ranked())))
        assert w1["t0"] == pytest.approx(w2["t0"])
        assert w1["t1"] == pytest.approx(w2["t1"])

    def test_weights_are_nonpositive(self, udb1):
        # ω_i <= 0: each tuple's contribution can only lower quality.
        for w in compute_weights(udb1.ranked()):
            assert w <= 1e-12

    def test_upto_limits_output(self, udb1):
        assert len(compute_weights(udb1.ranked(), upto=3)) == 3


class TestSharing:
    def test_shared_rank_probabilities_give_same_quality(self, udb1):
        ranked = udb1.ranked()
        rank_probs = compute_rank_probabilities(ranked, 2)
        shared = compute_quality_tp(ranked, 2, rank_probabilities=rank_probs)
        fresh = compute_quality_tp(ranked, 2)
        assert shared.quality == pytest.approx(fresh.quality, abs=ABS)
        assert shared.rank_probabilities is rank_probs

    def test_mismatched_k_rejected(self, udb1):
        ranked = udb1.ranked()
        rank_probs = compute_rank_probabilities(ranked, 3)
        with pytest.raises(InvalidQueryError):
            compute_quality_tp(ranked, 2, rank_probabilities=rank_probs)

    def test_mismatched_view_rejected(self, udb1, udb2):
        rank_probs = compute_rank_probabilities(udb1.ranked(), 2)
        with pytest.raises(InvalidQueryError):
            compute_quality_tp(udb2.ranked(), 2, rank_probabilities=rank_probs)


class TestSupportCheck:
    def test_complete_database_passes(self, udb1):
        assert short_result_probability(udb1.ranked(), 2) == pytest.approx(0.0)
        compute_quality_tp(udb1.ranked(), 2, check_support=True)

    def test_incomplete_database_fails_check(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 2.0, 0.5)]),
                make_xtuple("b", [("t1", 1.0, 0.5)]),
            ]
        )
        assert short_result_probability(db.ranked(), 2) == pytest.approx(0.75)
        with pytest.raises(InvalidQueryError):
            compute_quality_tp(db.ranked(), 2, check_support=True)

    def test_k_above_xtuple_count_fails_check(self, udb1):
        with pytest.raises(InvalidQueryError):
            compute_quality_tp(udb1.ranked(), 5, check_support=True)


class TestTheorem1Equivalence:
    @settings(max_examples=120, deadline=None)
    @given(databases_with_k(complete=True))
    def test_tp_matches_pw_on_complete_databases(self, db_k):
        db, k = db_k
        if k > db.num_xtuples:
            return  # Theorem 1 needs full-length results
        ranked = db.ranked()
        expected = compute_quality_pw(ranked, k).quality
        for result in _qualities(ranked, k):
            assert result.quality == pytest.approx(expected, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k(complete=True))
    def test_quality_is_nonpositive(self, db_k):
        db, k = db_k
        if k > db.num_xtuples:
            return
        assert compute_quality_tp(db.ranked(), k).quality <= 1e-9
