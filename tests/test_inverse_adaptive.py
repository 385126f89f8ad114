"""Extensions: inverse cleaning (min cost) and adaptive re-planning."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cleaning.dp import DPCleaner
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.improvement import (
    expected_improvement,
    improvement_upper_bound,
)
from repro.cleaning.inverse import min_cost_plan, min_cost_plan_greedy
from repro.cleaning.model import CleaningProblem, build_cleaning_problem
from repro.core.tp import compute_quality_tp
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import make_xtuple
from repro.exceptions import InfeasibleTargetError

from strategies import cleaning_problems


def _paper_problem(udb1, budget=100):
    quality = compute_quality_tp(udb1.ranked(), 2)
    return build_cleaning_problem(
        quality,
        {"S1": 2, "S2": 3, "S3": 1, "S4": 5},
        {"S1": 0.8, "S2": 0.5, "S3": 0.9, "S4": 1.0},
        budget,
    )


def _residue_case():
    """The g(l, D), sc-probabilities, costs and k of a problem
    hypothesis drew: no probe of ``a`` or ``b`` can succeed, and ``c``
    holds one alternative of probability 1.0, so no probe can change
    it; its g(l, D) is a TP pass's float residue."""
    db = ProbabilisticDatabase(
        [
            make_xtuple("a", [("a1", 9.0, 0.5), ("a2", 8.0, 0.5)]),
            make_xtuple("b", [("b1", 7.0, 0.4), ("b2", 6.0, 0.6)]),
            make_xtuple("c", [("c1", 5.0, 1.0)]),
        ],
        name="residue",
    )
    problem = CleaningProblem(
        ranked=db.ranked(),
        k=2,
        g_by_xtuple=(0.0, -0.72, -1.15e-14),
        topk_mass_by_xtuple=(1.0, 1.0, 0.0),
        costs=(1, 1, 1),
        sc_probabilities=(0.0, 0.0, 0.1),
        budget=4,
    )
    return db, problem


class TestInverseCleaning:
    def test_zero_target_costs_nothing(self, udb1):
        problem = _paper_problem(udb1)
        for method in ("dp", "greedy"):
            solution = min_cost_plan(problem, 0.0, method=method)
            assert solution.cost == 0
            assert len(solution.plan) == 0

    def test_infeasible_target_raises(self, udb1):
        problem = _paper_problem(udb1)
        too_much = improvement_upper_bound(problem) + 0.1
        for method in ("dp", "greedy"):
            with pytest.raises(InfeasibleTargetError):
                min_cost_plan(problem, too_much, method=method)

    def test_solution_reaches_target(self, udb1):
        problem = _paper_problem(udb1)
        target = 0.5 * improvement_upper_bound(problem)
        for method in ("dp", "greedy"):
            solution = min_cost_plan(problem, target, method=method)
            assert solution.expected_improvement >= target - 1e-9
            assert expected_improvement(problem, solution.plan) == pytest.approx(
                solution.expected_improvement, abs=1e-9
            )
            assert solution.plan.total_cost(problem) == solution.cost

    def test_dp_cost_is_minimal_vs_budget_sweep(self, udb1):
        problem = _paper_problem(udb1)
        target = 0.6 * improvement_upper_bound(problem)
        solution = min_cost_plan(problem, target, method="dp")
        # No smaller budget admits a plan reaching the target.
        for budget in range(solution.cost):
            smaller = problem.with_budget(budget)
            best = expected_improvement(smaller, DPCleaner().plan(smaller))
            assert best < target

    def test_greedy_at_least_dp_cost(self, udb1):
        problem = _paper_problem(udb1)
        target = 0.4 * improvement_upper_bound(problem)
        dp_solution = min_cost_plan(problem, target, method="dp")
        greedy_solution = min_cost_plan_greedy(problem, target)
        assert greedy_solution.cost >= dp_solution.cost

    def test_unknown_method_rejected(self, udb1):
        with pytest.raises(ValueError):
            min_cost_plan(_paper_problem(udb1), 0.1, method="magic")

    def test_float_residue_on_a_certain_xtuple_reaches_no_bound(self):
        # c's residue counts toward no bound and draws no probe, so a
        # positive target -- however small -- is refused at once.
        _, problem = _residue_case()
        assert problem.candidate_indices() == []
        assert improvement_upper_bound(problem) == 0.0
        for method in ("dp", "greedy"):
            target = 0.25 * improvement_upper_bound(problem)
            solution = min_cost_plan(problem, target, method=method)
            assert solution.cost == 0 and len(solution.plan) == 0
            with pytest.raises(InfeasibleTargetError, match="supremum 0 "):
                min_cost_plan(problem, 2.9e-15, method=method)

    @settings(max_examples=20, deadline=None)
    @given(cleaning_problems(max_xtuples=3), st.sampled_from([0.25, 0.5, 0.9]))
    @example(_residue_case(), 0.25)
    def test_random_targets_reached_or_declared_infeasible(
        self, db_problem, fraction
    ):
        _, problem = db_problem
        bound = improvement_upper_bound(problem)
        if bound <= 0.0:
            return
        target = fraction * bound
        solution = min_cost_plan(problem, target, method="dp")
        assert solution.expected_improvement >= target - 1e-9


class TestAdaptiveCleaning:
    def test_runs_and_accounts_budget(self, udb1):
        problem = _paper_problem(udb1, budget=12)
        result = clean_adaptively(
            udb1, problem, GreedyCleaner(), rng=random.Random(5)
        )
        assert 0 <= result.budget_spent <= problem.budget
        assert result.initial_quality == pytest.approx(problem.quality)
        assert result.final_quality >= result.initial_quality - 1e-9
        assert result.rounds  # at least one probe round happened

    def test_stops_when_everything_certain(self, udb2):
        # udb2 still has S1/S2 uncertain; with P=1 everywhere and ample
        # budget, the loop must terminate with quality zero.
        quality = compute_quality_tp(udb2.ranked(), 2)
        problem = build_cleaning_problem(
            quality,
            {"S1": 1, "S2": 1, "S3": 1, "S4": 1},
            {"S1": 1.0, "S2": 1.0, "S3": 1.0, "S4": 1.0},
            budget=50,
        )
        result = clean_adaptively(
            udb2, problem, GreedyCleaner(), rng=random.Random(0)
        )
        assert result.final_quality == pytest.approx(0.0, abs=1e-9)
        assert result.budget_spent < 50  # stopped early, not exhausted

    def test_zero_budget_no_rounds(self, udb1):
        problem = _paper_problem(udb1, budget=0)
        result = clean_adaptively(udb1, problem, GreedyCleaner())
        assert result.rounds == ()
        assert result.budget_spent == 0
        assert result.final_quality == pytest.approx(result.initial_quality)

    def test_adaptive_beats_or_matches_oneshot_on_average(self, udb1):
        """Re-investing saved budget can only help in expectation."""
        problem = _paper_problem(udb1, budget=6)
        planner = GreedyCleaner()
        rng = random.Random(99)
        adaptive_gain = 0.0
        oneshot_gain = 0.0
        rounds = 300
        for _ in range(rounds):
            adaptive = clean_adaptively(udb1, problem, planner, rng=rng)
            adaptive_gain += adaptive.realized_improvement
            from repro.cleaning.executor import execute_plan

            outcome = execute_plan(udb1, problem, planner.plan(problem), rng=rng)
            after = compute_quality_tp(outcome.cleaned_db.ranked(), 2).quality
            oneshot_gain += after - problem.quality
        # Allow sampling noise but require no systematic regression.
        assert adaptive_gain / rounds >= oneshot_gain / rounds - 0.05

    def test_max_rounds_respected(self, udb1):
        problem = _paper_problem(udb1, budget=30)
        result = clean_adaptively(
            udb1, problem, GreedyCleaner(), rng=random.Random(1), max_rounds=2
        )
        assert len(result.rounds) <= 2
