"""Query semantics (U-kRanks, PT-k, Global-topk) vs brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import generate_synthetic
from repro.exceptions import InvalidQueryError
from repro.queries import global_topk, ptk, ukranks
from repro.queries.brute_force import (
    rank_probabilities_by_enumeration,
    topk_probabilities_by_enumeration,
)
from repro.queries.engine import QuerySession
from repro.queries.psr import compute_rank_probabilities

from strategies import databases_with_k


class TestPTk:
    def test_paper_example(self, udb1):
        # k=2, T=0.4 -> {t1, t2, t5} (paper Section I).
        answer = ptk.evaluate(udb1.ranked(), 2, 0.4)
        assert answer.tids == ["t1", "t2", "t5"]
        assert "t6" not in answer  # p = 0.396 < 0.4, the paper's near-miss
        assert len(answer) == 3

    def test_members_carry_probabilities(self, udb1):
        answer = ptk.evaluate(udb1.ranked(), 2, 0.4)
        probabilities = dict(answer.members)
        assert probabilities["t2"] == pytest.approx(0.7)
        assert probabilities["t5"] == pytest.approx(0.432)

    def test_threshold_zero_returns_all_nonzero(self, udb1):
        answer = ptk.evaluate(udb1.ranked(), 2, 0.0)
        assert set(answer.tids) == {"t1", "t2", "t5", "t6", "t4"}
        # On incomplete data the default pass ends at its tail stop, so
        # T = 0 needs (and gets) a pass without one.
        ranked = generate_synthetic(
            num_xtuples=300, completion=0.85, seed=5
        ).ranked()
        stopped = compute_rank_probabilities(ranked, 10)
        assert stopped.cutoff < ranked.num_tuples
        with pytest.raises(ValueError):
            ptk.answer_from_rank_probabilities(stopped, 0.0)
        unstopped = compute_rank_probabilities(ranked, 10, tail_epsilon=0.0)
        assert unstopped.cutoff == ranked.num_tuples
        expected = ptk.answer_from_rank_probabilities(unstopped, 0.0)
        assert ptk.evaluate(ranked, 10, 0.0) == expected
        assert QuerySession(ranked).ptk(10, 0.0) == expected
        assert len(expected) > stopped.cutoff

    def test_threshold_one_returns_certain_members(self, udb2):
        answer = ptk.evaluate(udb2.ranked(), 1, 1.0)
        assert answer.tids == []

    @pytest.mark.parametrize("bad", [-0.1, 1.1, "0.5", None])
    def test_invalid_threshold_rejected(self, udb1, bad):
        with pytest.raises(InvalidQueryError):
            ptk.evaluate(udb1.ranked(), 2, bad)

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k(), st.sampled_from([0.1, 0.3, 0.5, 0.9]))
    def test_matches_bruteforce(self, db_k, threshold):
        db, k = db_k
        ranked = db.ranked()
        expected = {
            tid
            for tid, p in topk_probabilities_by_enumeration(ranked, k).items()
            if p >= threshold - 1e-9
        }
        got = set(ptk.evaluate(ranked, k, threshold).tids)
        # Tuples within float noise of the threshold may differ; allow
        # them on either side.
        exact = topk_probabilities_by_enumeration(ranked, k)
        for tid in got ^ expected:
            assert exact[tid] == pytest.approx(threshold, abs=1e-9)


class TestUkRanks:
    def test_paper_example(self, udb1):
        answer = ukranks.evaluate(udb1.ranked(), 2)
        assert answer.winner_at(1).tid == "t2"  # p = 0.42
        assert answer.winner_at(1).probability == pytest.approx(0.42)
        assert answer.winner_at(2).tid == "t6"  # p = 0.324
        assert answer.winner_at(2).probability == pytest.approx(0.324)

    def test_missing_rank_raises(self, udb1):
        answer = ukranks.evaluate(udb1.ranked(), 2)
        with pytest.raises(KeyError):
            answer.winner_at(3)

    def test_tids_by_rank(self, udb1):
        answer = ukranks.evaluate(udb1.ranked(), 2)
        assert answer.tids == ["t2", "t6"]

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k())
    def test_winner_has_maximal_rank_probability(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        rho = rank_probabilities_by_enumeration(ranked, k)
        answer = ukranks.evaluate(ranked, k)
        for winner in answer.winners:
            best = max(vec[winner.rank - 1] for vec in rho.values())
            assert winner.probability == pytest.approx(best, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(databases_with_k(complete=True))
    def test_every_feasible_rank_has_a_winner(self, db_k):
        db, k = db_k
        feasible = min(k, db.num_xtuples)
        answer = ukranks.evaluate(db.ranked(), k)
        assert len(answer.winners) == feasible


class TestGlobalTopk:
    def test_paper_example(self, udb1):
        answer = global_topk.evaluate(udb1.ranked(), 2)
        # Highest top-2 probabilities: t2 (0.7), t5 (0.432).
        assert answer.tids == ["t2", "t5"]

    def test_tie_break_by_rank(self):
        from repro.db.database import ProbabilisticDatabase
        from repro.db.tuples import make_xtuple

        # Two x-tuples with symmetric probabilities: equal top-1
        # probabilities, the higher-ranked tuple must win.
        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("hi", 10.0, 0.5), ("hi2", 9.0, 0.5)]),
                make_xtuple("b", [("lo", 5.0, 0.5), ("lo2", 4.0, 0.5)]),
            ]
        )
        answer = global_topk.evaluate(db.ranked(), 1)
        assert answer.tids == ["hi"]

    def test_answer_size_bounded_by_k(self, udb1):
        for k in (1, 2, 3):
            assert len(global_topk.evaluate(udb1.ranked(), k)) <= k

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k())
    def test_selects_k_highest_topk_probabilities(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        exact = topk_probabilities_by_enumeration(ranked, k)
        answer = global_topk.evaluate(ranked, k)
        chosen = [exact[tid] for tid in answer.tids]
        excluded = [
            exact[tid] for tid in exact if tid not in set(answer.tids)
        ]
        if chosen and excluded:
            assert min(chosen) >= max(excluded) - 1e-9
        # Probabilities reported must match the exact values.
        for tid, p in answer.members:
            assert p == pytest.approx(exact[tid], abs=1e-9)


class TestSharedAggregation:
    @settings(max_examples=40, deadline=None)
    @given(databases_with_k())
    def test_all_semantics_from_one_psr_pass(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        rank_probs = compute_rank_probabilities(ranked, k)
        assert ukranks.answer_from_rank_probabilities(
            rank_probs
        ) == ukranks.evaluate(ranked, k)
        assert ptk.answer_from_rank_probabilities(
            rank_probs, 0.3
        ) == ptk.evaluate(ranked, k, 0.3)
        assert global_topk.answer_from_rank_probabilities(
            rank_probs
        ) == global_topk.evaluate(ranked, k)
