"""Plan execution: outcome validity, cost accounting, Monte-Carlo match."""

import random
import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning.executor import execute_plan
from repro.cleaning.improvement import expected_improvement
from repro.cleaning.model import CleaningPlan, build_cleaning_problem
from repro.core.tp import compute_quality_tp
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import make_xtuple

from strategies import cleaning_problems


def _paper_problem(udb1, budget=10, sc=None):
    quality = compute_quality_tp(udb1.ranked(), 2)
    sc = sc or {"S1": 0.5, "S2": 0.5, "S3": 0.5, "S4": 0.5}
    costs = {"S1": 1, "S2": 1, "S3": 1, "S4": 1}
    return build_cleaning_problem(quality, costs, sc, budget)


class TestExecutePlan:
    def test_certain_success_collapses_xtuple(self, udb1):
        problem = _paper_problem(udb1, sc={"S1": 1.0, "S2": 1.0, "S3": 1.0, "S4": 1.0})
        plan = CleaningPlan(operations={"S3": 1})
        outcome = execute_plan(udb1, problem, plan, rng=random.Random(0))
        assert outcome.num_succeeded == 1
        assert outcome.cleaned_db.xtuple("S3").is_certain
        assert outcome.cost_spent == 1

    def test_zero_sc_probability_never_succeeds(self, udb1):
        problem = _paper_problem(udb1, sc={"S1": 0.0, "S2": 0.0, "S3": 0.0, "S4": 0.0})
        plan = CleaningPlan(operations={"S3": 5})
        outcome = execute_plan(udb1, problem, plan, rng=random.Random(0))
        assert outcome.num_succeeded == 0
        assert outcome.cost_spent == 5
        assert outcome.cleaned_db.xtuple("S3") is udb1.xtuple("S3")

    def test_early_success_saves_budget(self, udb1):
        problem = _paper_problem(udb1, sc={"S1": 1.0, "S2": 1.0, "S3": 1.0, "S4": 1.0})
        plan = CleaningPlan(operations={"S3": 5})
        outcome = execute_plan(udb1, problem, plan, rng=random.Random(0))
        assert outcome.cost_spent == 1
        assert outcome.cost_assigned == 5
        assert outcome.cost_saved == 4
        record = outcome.records[0]
        assert record.performed == 1
        assert record.succeeded

    def test_revealed_tuple_matches_alternatives(self, udb1):
        problem = _paper_problem(udb1, sc={"S1": 1.0, "S2": 1.0, "S3": 1.0, "S4": 1.0})
        plan = CleaningPlan(operations={"S1": 1, "S2": 1, "S3": 1})
        outcome = execute_plan(udb1, problem, plan, rng=random.Random(42))
        for record in outcome.records:
            assert record.succeeded
            original = udb1.xtuple(record.xid)
            assert record.revealed_tid in {t.tid for t in original.alternatives}
            collapsed = outcome.cleaned_db.xtuple(record.xid)
            assert collapsed.is_certain
            assert collapsed.alternatives[0].tid == record.revealed_tid

    def test_incomplete_xtuple_can_reveal_null(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t0", 2.0, 0.1)]),  # 0.9 null mass
                make_xtuple("b", [("t1", 1.0, 1.0)]),
            ]
        )
        quality = compute_quality_tp(db.ranked(), 1)
        problem = build_cleaning_problem(
            quality, {"a": 1, "b": 1}, {"a": 1.0, "b": 1.0}, budget=5
        )
        plan = CleaningPlan(operations={"a": 1})
        # Seed chosen so the revealed outcome is the null mass.
        outcome = execute_plan(db, problem, plan, rng=random.Random(1))
        record = outcome.records[0]
        assert record.succeeded
        if record.revealed_null:
            assert not outcome.cleaned_db.has_xtuple("a")
        else:
            assert outcome.cleaned_db.xtuple("a").is_certain

    def test_default_rng_is_deterministic(self, udb1):
        problem = _paper_problem(udb1)
        plan = CleaningPlan(operations={"S1": 2, "S3": 2})
        a = execute_plan(udb1, problem, plan)
        b = execute_plan(udb1, problem, plan)
        assert [r.revealed_tid for r in a.records] == [
            r.revealed_tid for r in b.records
        ]


class TestRealizedVsExpected:
    def test_monte_carlo_realized_improvement_matches_theorem2(self, udb1):
        """Average realized improvement over many executions must match
        the Theorem 2 expectation -- the end-to-end validation that the
        planning objective measures something real."""
        problem = _paper_problem(udb1, sc={"S1": 0.6, "S2": 0.4, "S3": 0.7, "S4": 0.5})
        plan = CleaningPlan(operations={"S1": 2, "S2": 1, "S3": 1})
        expected = expected_improvement(problem, plan)
        before = problem.quality
        rng = random.Random(2024)
        samples = []
        for _ in range(3000):
            outcome = execute_plan(udb1, problem, plan, rng=rng)
            after = compute_quality_tp(
                outcome.cleaned_db.ranked(), 2
            ).quality
            samples.append(after - before)
        mean = statistics.fmean(samples)
        stderr = statistics.stdev(samples) / len(samples) ** 0.5
        assert abs(mean - expected) < 4 * stderr + 1e-3

    @settings(max_examples=20, deadline=None)
    @given(cleaning_problems(max_xtuples=3, max_budget=6), st.integers(0, 5))
    def test_execution_never_spends_more_than_assigned(self, db_problem, seed):
        db, problem = db_problem
        candidates = problem.candidate_indices()
        if not candidates:
            return
        plan = CleaningPlan(
            operations={problem.xtuple_id(l): 2 for l in candidates}
        )
        outcome = execute_plan(db, problem, plan, rng=random.Random(seed))
        assert 0 <= outcome.cost_spent <= outcome.cost_assigned
        assert outcome.cleaned_db.num_xtuples <= db.num_xtuples

    @settings(max_examples=20, deadline=None)
    @given(cleaning_problems(max_xtuples=3, max_budget=6), st.integers(0, 5))
    def test_cleaned_database_remains_valid(self, db_problem, seed):
        db, problem = db_problem
        candidates = problem.candidate_indices()
        if not candidates:
            return
        plan = CleaningPlan(
            operations={problem.xtuple_id(l): 1 for l in candidates}
        )
        outcome = execute_plan(db, problem, plan, rng=random.Random(seed))
        # Re-ranking and re-scoring must succeed on the cleaned DB.
        quality = compute_quality_tp(outcome.cleaned_db.ranked(), problem.k)
        assert quality.quality <= 1e-9
