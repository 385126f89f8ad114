"""PSR cross-validation against possible-world enumeration.

PSR is the engine under every query semantics and the TP quality
algorithm, so these tests are the load-bearing wall of the suite: exact
agreement with Definition 2/3 on the paper example, on adversarial
constructions (saturating x-tuples, high sibling mass triggering the
scalar kernel's from-scratch rebuild), and on random databases via
hypothesis.  The brute-force and paper-vector checks run both kernels:
the production block kernel and, through ``backend="python"``, the
scalar oracle.
"""

import math

import pytest
from hypothesis import given, settings

from repro.core.backend import BACKENDS
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import make_xtuple
from repro.exceptions import InvalidQueryError
from repro.queries.brute_force import (
    rank_probabilities_by_enumeration,
    topk_probabilities_by_enumeration,
)
from repro.queries import psr as psr_module
from repro.queries.psr import (
    compute_rank_probabilities,
    total_topk_mass,
)

from strategies import databases_with_k

ABS = 1e-9


def _passes(ranked, k):
    """One PSR pass over ``ranked`` at ``k`` per kernel."""
    return [
        compute_rank_probabilities(ranked, k, backend=backend)
        for backend in BACKENDS
    ]


def _assert_matches_bruteforce(db, k):
    ranked = db.ranked()
    expected_rho = rank_probabilities_by_enumeration(ranked, k)
    expected_topk = topk_probabilities_by_enumeration(ranked, k)
    for psr in _passes(ranked, k):
        for t in ranked.order:
            got = psr.rho(t.tid)
            want = expected_rho[t.tid]
            assert got == pytest.approx(want, abs=ABS), (
                psr.backend, t.tid, got, want,
            )
            assert psr.topk_probability(t.tid) == pytest.approx(
                expected_topk[t.tid], abs=ABS
            )


class TestPaperExample:
    def test_udb1_top2_probabilities(self, udb1):
        for psr in _passes(udb1.ranked(), 2):
            # Hand-derived from the 8 possible worlds of Table I.
            assert psr.topk_probability("t1") == pytest.approx(0.4)
            assert psr.topk_probability("t2") == pytest.approx(0.7)
            assert psr.topk_probability("t5") == pytest.approx(0.432)
            assert psr.topk_probability("t6") == pytest.approx(0.396)
            assert psr.topk_probability("t4") == pytest.approx(0.072)
            assert psr.topk_probability("t0") == 0.0
            assert psr.topk_probability("t3") == 0.0

    def test_udb1_rank_probabilities(self, udb1):
        for psr in _passes(udb1.ranked(), 2):
            # t1 exists => always rank 1.
            assert psr.rank_probability("t1", 1) == pytest.approx(0.4)
            assert psr.rank_probability("t1", 2) == pytest.approx(0.0)
            # t2 rank 1 iff t1 absent (0.6 * 0.7).
            assert psr.rank_probability("t2", 1) == pytest.approx(0.42)
            assert psr.rank_probability("t2", 2) == pytest.approx(0.28)

    def test_udb1_vs_bruteforce(self, udb1):
        for k in (1, 2, 3, 4):
            _assert_matches_bruteforce(udb1, k)

    def test_udb2_vs_bruteforce(self, udb2):
        for k in (1, 2, 3):
            _assert_matches_bruteforce(udb2, k)


class TestAdversarialConstructions:
    def test_saturating_xtuple_triggers_shift(self):
        # One certain x-tuple above everything: every later tuple's rank
        # shifts down by one; with k=1 only the top tuple can win.
        db = ProbabilisticDatabase(
            [
                make_xtuple("top", [("a", 100.0, 1.0)]),
                make_xtuple("mid", [("b", 50.0, 0.5), ("c", 40.0, 0.5)]),
            ]
        )
        psr = compute_rank_probabilities(db.ranked(), 1)
        assert psr.topk_probability("a") == 1.0
        assert psr.topk_probability("b") == 0.0
        assert psr.topk_probability("c") == 0.0
        _assert_matches_bruteforce(db, 1)

    def test_lemma2_early_stop_cutoff(self):
        # k certain x-tuples at the top: everything below is provably
        # zero and PSR must stop scanning (cutoff < n).
        xtuples = [
            make_xtuple(f"c{i}", [(f"top{i}", 100.0 - i, 1.0)]) for i in range(3)
        ]
        xtuples.append(
            make_xtuple("tail", [("low1", 5.0, 0.5), ("low2", 4.0, 0.5)])
        )
        db = ProbabilisticDatabase(xtuples)
        psr = compute_rank_probabilities(db.ranked(), 3)
        assert psr.cutoff == 3
        assert psr.topk_probability("low1") == 0.0
        _assert_matches_bruteforce(db, 3)

    def test_high_sibling_mass_uses_rebuild_path(self, monkeypatch):
        # Last sibling sees q = 0.9 > 0.5: the scalar kernel rebuilds
        # the product without its factor instead of dividing it out.
        skipped = []
        rebuild = psr_module._rebuild_from_base

        def spy(base, open_masses, skip):
            skipped.append(skip)
            return rebuild(base, open_masses, skip)

        monkeypatch.setattr(psr_module, "_rebuild_from_base", spy)
        db = ProbabilisticDatabase(
            [
                make_xtuple(
                    "big",
                    [
                        ("a", 10.0, 0.45),
                        ("b", 9.0, 0.45),
                        ("c", 8.0, 0.1),
                    ],
                ),
                make_xtuple("other", [("d", 9.5, 0.6), ("e", 7.0, 0.4)]),
            ]
        )
        big = db.ranked().xtuple_ids.index("big")
        for k in (1, 2):
            skipped.clear()
            compute_rank_probabilities(db.ranked(), k, backend="python")
            assert big in skipped
            _assert_matches_bruteforce(db, k)

    def test_interleaved_xtuples(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("x", [("x1", 10.0, 0.3), ("x2", 8.0, 0.3), ("x3", 6.0, 0.4)]),
                make_xtuple("y", [("y1", 9.0, 0.5), ("y2", 7.0, 0.5)]),
                make_xtuple("z", [("z1", 8.5, 0.25)]),
            ]
        )
        for k in (1, 2, 3):
            _assert_matches_bruteforce(db, k)

    def test_all_ties_resolved_deterministically(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 5.0, 0.5), ("t1", 5.0, 0.5)]),
                make_xtuple("b", [("t2", 5.0, 1.0)]),
            ]
        )
        for k in (1, 2):
            _assert_matches_bruteforce(db, k)


class TestAccessors:
    def test_rho_vector_shape(self, udb1):
        psr = compute_rank_probabilities(udb1.ranked(), 3)
        assert len(psr.rho("t1")) == 3
        assert len(psr.rho("t0")) == 3

    def test_invalid_rank_rejected(self, udb1):
        psr = compute_rank_probabilities(udb1.ranked(), 2)
        with pytest.raises(ValueError):
            psr.rank_probability("t1", 0)
        with pytest.raises(ValueError):
            psr.rank_probability("t1", 3)

    def test_invalid_k_rejected(self, udb1):
        with pytest.raises(InvalidQueryError):
            compute_rank_probabilities(udb1.ranked(), 0)

    def test_topk_probabilities_full_length(self, udb1):
        psr = compute_rank_probabilities(udb1.ranked(), 2)
        full = psr.topk_array()
        assert len(full) == udb1.num_tuples

    def test_nonzero_tuples_sorted_by_rank(self, udb1):
        psr = compute_rank_probabilities(udb1.ranked(), 2)
        tids = [t.tid for t, _ in psr.nonzero_tuples()]
        positions = [udb1.ranked().rank_of(tid) for tid in tids]
        assert positions == sorted(positions)

    def test_topk_probability_by_xtuple(self, udb1):
        psr = compute_rank_probabilities(udb1.ranked(), 2)
        by_xtuple = psr.topk_mass_by_xtuple_array()
        assert by_xtuple[0] == pytest.approx(0.4)  # S1: t0 + t1
        assert by_xtuple[2] == pytest.approx(0.432 + 0.072)  # S3: t5 + t4
        assert math.fsum(by_xtuple) == pytest.approx(2.0)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(databases_with_k())
    def test_matches_bruteforce_on_random_databases(self, db_k):
        db, k = db_k
        _assert_matches_bruteforce(db, k)

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k(complete=True))
    def test_total_mass_is_k_on_complete_databases(self, db_k):
        db, k = db_k
        if k > db.num_xtuples:
            return  # worlds cannot hold k tuples
        psr = compute_rank_probabilities(db.ranked(), k)
        assert total_topk_mass(psr) == pytest.approx(min(k, db.num_xtuples))

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k())
    def test_topk_probability_bounded_by_existential(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        psr = compute_rank_probabilities(ranked, k)
        for t in ranked.order:
            p = psr.topk_probability(t.tid)
            assert -ABS <= p <= t.probability + ABS

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k())
    def test_rho_sums_to_topk_probability(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        psr = compute_rank_probabilities(ranked, k)
        for t in ranked.order:
            assert math.fsum(psr.rho(t.tid)) == pytest.approx(
                psr.topk_probability(t.tid), abs=ABS
            )

    @settings(max_examples=40, deadline=None)
    @given(databases_with_k(complete=True))
    def test_rank1_winner_is_highest_ranked_existing(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        psr = compute_rank_probabilities(ranked, k)
        # The top-ranked tuple takes rank 1 exactly when it exists.
        top = ranked.order[0]
        assert psr.rank_probability(top.tid, 1) == pytest.approx(
            top.probability, abs=ABS
        )
