"""Shared evaluation engine (Section IV-C) tests."""

import pytest
from hypothesis import given, settings

from repro.core.tp import compute_quality_tp
from repro.queries.engine import (
    QuerySession,
    evaluate,
    evaluate_without_sharing,
)

from strategies import databases_with_k


class TestEvaluate:
    def test_paper_example_end_to_end(self, udb1):
        report = evaluate(udb1, 2, threshold=0.4)
        assert report.ptk.tids == ["t1", "t2", "t5"]
        assert report.ukranks.tids == ["t2", "t6"]
        assert report.global_topk.tids == ["t2", "t5"]
        assert report.quality_score == pytest.approx(-2.55, abs=0.005)

    def test_accepts_ranked_view(self, udb1):
        ranked = udb1.ranked()
        report = evaluate(ranked, 2, threshold=0.4)
        assert report.quality.ranked is ranked

    def test_quality_reuses_psr(self, udb1):
        report = evaluate(udb1, 2)
        assert report.quality.rank_probabilities is report.rank_probabilities

    def test_g_by_xtuple_sums_to_quality(self, udb1):
        import math

        report = evaluate(udb1, 2)
        assert math.fsum(report.quality.g_by_xtuple()) == pytest.approx(
            report.quality_score, abs=1e-9
        )

    def test_default_threshold_is_paper_default(self, udb1):
        report = evaluate(udb1, 2)
        assert report.ptk.threshold == 0.1


class TestSharingConsistency:
    @settings(max_examples=50, deadline=None)
    @given(databases_with_k())
    def test_sharing_and_nonsharing_agree(self, db_k):
        db, k = db_k
        shared = evaluate(db, k, threshold=0.25)
        unshared = evaluate_without_sharing(db, k, threshold=0.25)
        assert shared.ptk == unshared.ptk
        assert shared.ukranks == unshared.ukranks
        assert shared.global_topk == unshared.global_topk
        assert shared.quality_score == pytest.approx(
            unshared.quality_score, abs=1e-9
        )
        # The scalar oracle shares its pass the same way: a session's
        # quality equals a TP run on a second scalar pass, and both
        # match the production kernel.
        session = QuerySession(db, backend="python")
        scalar = session.evaluate(k, threshold=0.25)
        assert scalar.quality.rank_probabilities is scalar.rank_probabilities
        assert scalar.rank_probabilities.backend == "python"
        scalar_unshared = compute_quality_tp(session.ranked, k, backend="python")
        assert scalar_unshared.rank_probabilities is not scalar.rank_probabilities
        assert scalar.quality_score == pytest.approx(
            scalar_unshared.quality, abs=1e-9
        )
        assert scalar.quality_score == pytest.approx(
            shared.quality_score, abs=1e-9
        )
        assert scalar.rank_probabilities.topk_prefix == pytest.approx(
            shared.rank_probabilities.topk_prefix, abs=1e-9
        )

    def test_nonsharing_runs_psr_twice(self, udb1):
        report = evaluate_without_sharing(udb1, 2)
        assert report.quality.rank_probabilities is not report.rank_probabilities
