"""QuerySession: caching, sharing and cleaning-loop threading."""

import random

import pytest
from hypothesis import given, settings

from repro.cleaning.executor import execute_plan
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.model import CleaningPlan, build_cleaning_problem
from repro.core.tp import compute_quality_tp
from repro.exceptions import InvalidQueryError
from repro.queries.engine import QuerySession, evaluate

from strategies import databases_with_k


class TestCaching:
    def test_rank_probabilities_memoized_per_k(self, udb1):
        session = QuerySession(udb1)
        first = session.rank_probabilities(2)
        second = session.rank_probabilities(2)
        assert first is second
        assert session.psr_misses == 1
        assert session.psr_hits == 1
        assert session.rank_probabilities(3) is not first
        assert session.psr_misses == 2

    def test_all_consumers_share_one_psr_pass(self, udb1):
        session = QuerySession(udb1)
        session.ukranks(2)
        session.ptk(2, 0.4)
        session.global_topk(2)
        quality = session.quality(2)
        assert session.psr_misses == 1
        assert quality.rank_probabilities is session.rank_probabilities(2)

    def test_answers_memoized(self, udb1):
        session = QuerySession(udb1)
        assert session.ukranks(2) is session.ukranks(2)
        assert session.ptk(2, 0.4) is session.ptk(2, 0.4)
        assert session.ptk(2, 0.5) is not session.ptk(2, 0.4)
        assert session.global_topk(2) is session.global_topk(2)
        assert session.quality(2) is session.quality(2)

    def test_evaluate_matches_functional_form(self, udb1):
        session = QuerySession(udb1)
        report = session.evaluate(2, threshold=0.4)
        functional = evaluate(udb1, 2, threshold=0.4)
        assert report.ptk.tids == functional.ptk.tids == ["t1", "t2", "t5"]
        assert report.ukranks.tids == functional.ukranks.tids
        assert report.global_topk.tids == functional.global_topk.tids
        assert report.quality_score == pytest.approx(functional.quality_score)

    def test_accepts_ranked_view(self, udb1):
        ranked = udb1.ranked()
        session = QuerySession(ranked)
        assert session.ranked is ranked
        assert session.quality(2).ranked is ranked

    def test_ranking_override_of_ranked_view_rejected(self, udb1):
        from repro.db.ranking import by_value

        with pytest.raises(ValueError):
            QuerySession(udb1.ranked(), ranking=by_value())

    @settings(max_examples=40, deadline=None)
    @given(databases_with_k())
    def test_session_answers_match_direct_computation(self, db_k):
        db, k = db_k
        session = QuerySession(db)
        report = session.evaluate(k, threshold=0.25)
        direct = evaluate(db, k, threshold=0.25)
        assert report.ptk == direct.ptk
        assert report.ukranks == direct.ukranks
        assert report.global_topk == direct.global_topk
        assert report.quality_score == pytest.approx(
            direct.quality_score, abs=1e-9
        )


class TestPrefill:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_restricted_to_matches_direct_pass(self, backend, small_synthetic):
        import numpy as np

        from repro.datasets.synthetic import generate_synthetic
        from repro.queries.psr import compute_rank_probabilities

        # The incomplete database stops every pass at its tail stop,
        # which falls earlier at a smaller k: a restricted result keeps
        # k_max's rows, whose extra top-k mass is below 1e-15.
        incomplete = generate_synthetic(
            num_xtuples=300, completion=0.85, seed=3
        )
        for db, k_max, ks in (
            (small_synthetic, 20, (1, 5, 19)),
            (incomplete, 100, (1, 15, 50, 99)),
        ):
            ranked = db.ranked()
            full = compute_rank_probabilities(ranked, k_max, backend=backend)
            for k in ks:
                direct = compute_rank_probabilities(ranked, k, backend=backend)
                restricted = full.restricted_to(k)
                if db is incomplete:
                    assert direct.cutoff < full.cutoff < ranked.num_tuples
                rows = min(direct.cutoff, restricted.cutoff)
                # Rank probabilities are k-independent: the column
                # prefix is bitwise identical.
                assert np.array_equal(
                    direct.rho_prefix[:rows], restricted.rho_prefix[:rows]
                )
                # The re-summed top-k vector may differ in the last ulp.
                assert np.allclose(
                    direct.topk_array(), restricted.topk_array(), atol=1e-12
                )

    def test_restricted_to_bounds(self, udb1):
        session = QuerySession(udb1)
        rank_probs = session.rank_probabilities(3)
        assert rank_probs.restricted_to(3) is rank_probs
        with pytest.raises(ValueError):
            rank_probs.restricted_to(4)
        with pytest.raises(ValueError):
            rank_probs.restricted_to(0)

    def test_prefill_serves_every_k_from_one_pass(self, small_synthetic):
        session = QuerySession(small_synthetic)
        seeded = session.prefill([5, 12, 3, 12])
        assert seeded == 2
        assert session.psr_misses == 1
        assert session.psr_prefills == 2
        for k in (3, 5, 12):
            session.evaluate(k)
        assert session.psr_misses == 1

    def test_prefill_respects_existing_cache(self, small_synthetic):
        session = QuerySession(small_synthetic)
        direct = session.rank_probabilities(4)
        session.prefill([4, 9])
        # k=4 was already cached directly; prefill must not replace it.
        assert session.rank_probabilities(4) is direct
        assert session.psr_prefills == 0

    def test_prefill_empty(self, udb1):
        session = QuerySession(udb1)
        assert session.prefill([]) == 0
        assert session.psr_misses == 0

    @pytest.mark.parametrize(
        "ks", [[0, 2], [2.5, 3], [True, 3], [3, -1]], ids=repr
    )
    def test_prefill_rejects_any_invalid_k_before_a_pass(self, udb1, ks):
        # Each k is checked before the k_max pass runs: no pass, no
        # cache entry, and no float or bool silently cast to an int.
        session = QuerySession(udb1)
        with pytest.raises(InvalidQueryError):
            session.prefill(ks)
        assert session.psr_misses == 0
        assert session.psr_prefills == 0
        assert session._rank_probabilities == {}


class TestDerive:
    def test_derive_same_db_returns_same_session(self, udb1):
        session = QuerySession(udb1)
        session.quality(2)
        assert session.derive(udb1) is session
        assert session.derive(session.ranked) is session

    def test_derive_new_db_preserves_configuration(self, udb1, udb2):
        session = QuerySession(udb1, backend="python")
        derived = session.derive(udb2)
        assert derived is not session
        assert derived.backend == "python"
        assert derived.ranked.ranking is session.ranked.ranking
        assert derived.db is udb2


class TestCleaningThreading:
    def test_executor_threads_session_through(self, udb1):
        session = QuerySession(udb1)
        problem = session.cleaning_problem(
            2,
            {xt.xid: 1 for xt in udb1.xtuples},
            {xt.xid: 1.0 for xt in udb1.xtuples},
            budget=2,
        )
        assert session.psr_misses == 1
        plan = GreedyCleaner().plan(problem)
        outcome = execute_plan(udb1, problem, plan, session=session)
        assert outcome.session is not None
        assert outcome.session.db is outcome.cleaned_db

    def test_failed_probes_keep_cached_session(self, udb1):
        session = QuerySession(udb1)
        problem = session.cleaning_problem(
            2,
            {xt.xid: 1 for xt in udb1.xtuples},
            {xt.xid: 0.0 for xt in udb1.xtuples},  # probes never succeed
            budget=3,
        )
        plan = CleaningPlan(operations={"S1": 1})
        outcome = execute_plan(udb1, problem, plan, session=session)
        # Nothing changed: the very same session (cache intact) comes back.
        assert outcome.cleaned_db is udb1
        assert outcome.session is session
        before = session.psr_misses
        outcome.session.quality(2)
        assert session.psr_misses == before

    def test_adaptive_cleaning_unchanged_by_sessions(self, udb1):
        quality = compute_quality_tp(udb1.ranked(), 2)
        costs = {xt.xid: 1 for xt in udb1.xtuples}
        sc = {xt.xid: 0.5 for xt in udb1.xtuples}
        problem = build_cleaning_problem(quality, costs, sc, budget=6)
        result = clean_adaptively(
            udb1, problem, GreedyCleaner(), rng=random.Random(7)
        )
        assert result.final_quality >= result.initial_quality - 1e-9
        assert result.budget_spent <= problem.budget
        # The round trace carries sessions over each round's outcome db.
        for round_ in result.rounds:
            assert round_.outcome.session is not None
            assert round_.outcome.session.db is round_.outcome.cleaned_db
