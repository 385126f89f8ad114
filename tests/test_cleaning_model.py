"""Validation and value-object behaviour of the cleaning model."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.service import TopKService
from repro.api.specs import BatchSpec, CleaningSpec, QualitySpec, QuerySpec
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.model import (
    CleaningPlan,
    CleaningProblem,
    EMPTY_PLAN,
    G_TOLERANCE,
    SC_TOLERANCE,
    build_cleaning_problem,
)
from repro.cleaning.random_cleaners import RandPCleaner, RandUCleaner
from repro.core.tp import compute_quality_tp
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import COMPLETENESS_TOLERANCE, make_xtuple
from repro.exceptions import InvalidCleaningProblemError

from strategies import cleaning_problems


@pytest.fixture
def quality(udb1):
    return compute_quality_tp(udb1.ranked(), 2)


def _problem(quality, budget=10, costs=None, sc=None):
    costs = costs or {"S1": 1, "S2": 2, "S3": 3, "S4": 4}
    sc = sc or {"S1": 0.5, "S2": 0.5, "S3": 0.5, "S4": 0.5}
    return build_cleaning_problem(quality, costs, sc, budget)


class TestBuildCleaningProblem:
    def test_arrays_follow_database_order(self, udb1, quality):
        problem = _problem(quality)
        assert problem.costs.tolist() == [1, 2, 3, 4]
        assert problem.xtuple_id(0) == "S1"
        assert problem.xtuple_index("S3") == 2

    def test_sequence_inputs_accepted(self, quality):
        problem = build_cleaning_problem(
            quality, [1, 1, 1, 1], [0.5, 0.5, 0.5, 0.5], 5
        )
        assert problem.costs.tolist() == [1, 1, 1, 1]

    def test_missing_mapping_entry_rejected(self, quality):
        with pytest.raises(InvalidCleaningProblemError):
            build_cleaning_problem(quality, {"S1": 1}, {"S1": 0.5}, 5)

    def test_unknown_mapping_entry_rejected(self, quality):
        costs = {"S1": 1, "S2": 1, "S3": 1, "S4": 1, "S9": 1}
        sc = {xid: 0.5 for xid in ("S1", "S2", "S3", "S4")}
        with pytest.raises(InvalidCleaningProblemError):
            build_cleaning_problem(quality, costs, sc, 5)

    def test_wrong_sequence_length_rejected(self, quality):
        with pytest.raises(InvalidCleaningProblemError):
            build_cleaning_problem(quality, [1, 1], [0.5] * 4, 5)

    @pytest.mark.parametrize("budget", [-1, 1.5, "10", None])
    def test_invalid_budget_rejected(self, quality, budget):
        with pytest.raises(InvalidCleaningProblemError):
            _problem(quality, budget=budget)

    @pytest.mark.parametrize("cost", [0, -3, 1.5, True])
    def test_invalid_cost_rejected(self, quality, cost):
        with pytest.raises(InvalidCleaningProblemError):
            _problem(quality, costs={"S1": cost, "S2": 1, "S3": 1, "S4": 1})

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_invalid_sc_probability_rejected(self, quality, p):
        with pytest.raises(InvalidCleaningProblemError):
            _problem(quality, sc={"S1": p, "S2": 0.5, "S3": 0.5, "S4": 0.5})

    def test_positive_g_rejected(self, udb1, quality):
        with pytest.raises(InvalidCleaningProblemError):
            CleaningProblem(
                ranked=quality.ranked,
                k=2,
                g_by_xtuple=(0.5, 0.0, 0.0, 0.0),
                topk_mass_by_xtuple=(0.0,) * 4,
                costs=(1,) * 4,
                sc_probabilities=(0.5,) * 4,
                budget=5,
            )


class TestProblemAccessors:
    def test_quality_is_g_sum(self, quality):
        problem = _problem(quality)
        assert problem.quality == pytest.approx(quality.quality, abs=1e-12)

    def test_max_operations(self, quality):
        problem = _problem(quality, budget=10)
        assert problem.max_operations(0) == 10  # cost 1
        assert problem.max_operations(3) == 2  # cost 4

    def test_with_budget_preserves_everything_else(self, quality):
        problem = _problem(quality, budget=10)
        other = problem.with_budget(3)
        assert other.budget == 3
        assert np.array_equal(other.costs, problem.costs)
        assert np.array_equal(other.g_by_xtuple, problem.g_by_xtuple)

    def test_candidates_drop_unaffordable(self, quality):
        problem = _problem(quality, budget=2)
        names = {problem.xtuple_id(l) for l in problem.candidate_indices()}
        # S3 costs 3 > budget 2; S4 has g = 0.
        assert names == {"S1", "S2"}

    def test_candidates_drop_zero_sc(self, quality):
        problem = _problem(
            quality, sc={"S1": 0.0, "S2": 0.5, "S3": 0.5, "S4": 0.5}
        )
        names = {problem.xtuple_id(l) for l in problem.candidate_indices()}
        assert "S1" not in names

    def test_unknown_xtuple_index_rejected(self, quality):
        problem = _problem(quality)
        with pytest.raises(InvalidCleaningProblemError):
            problem.xtuple_index("S9")


class TestCleaningPlan:
    def test_empty_plan(self, quality):
        problem = _problem(quality)
        assert len(EMPTY_PLAN) == 0
        assert EMPTY_PLAN.total_cost(problem) == 0
        assert EMPTY_PLAN.is_feasible(problem)
        assert EMPTY_PLAN.count("S1") == 0

    def test_cost_accounting(self, quality):
        problem = _problem(quality)
        plan = CleaningPlan(operations={"S1": 3, "S3": 2})
        assert plan.total_operations == 5
        assert plan.total_cost(problem) == 3 * 1 + 2 * 3
        assert "S1" in plan
        assert "S2" not in plan

    def test_feasibility(self, quality):
        problem = _problem(quality, budget=5)
        assert CleaningPlan(operations={"S1": 5}).is_feasible(problem)
        assert not CleaningPlan(operations={"S1": 6}).is_feasible(problem)

    @pytest.mark.parametrize("count", [0, -1, 1.5, "2"])
    def test_invalid_counts_rejected(self, count):
        with pytest.raises(InvalidCleaningProblemError):
            CleaningPlan(operations={"S1": count})

    def test_operations_are_copied(self):
        source = {"S1": 1}
        plan = CleaningPlan(operations=source)
        source["S2"] = 5
        assert "S2" not in plan


class TestArrayColumns:
    def _arrays(self, quality, **override):
        columns = {
            "g_by_xtuple": quality.g_by_xtuple(),
            "topk_mass_by_xtuple": (
                quality.rank_probabilities.topk_mass_by_xtuple_array()
            ),
            "costs": np.array([1, 2, 3, 4], dtype=np.int64),
            "sc_probabilities": np.array([0.5, 0.25, 0.75, 1.0]),
        }
        columns.update(override)
        return CleaningProblem(
            ranked=quality.ranked, k=2, budget=10, **columns
        )

    def test_columns_are_read_only_arrays(self, quality):
        problem = self._arrays(quality)
        from_mappings = _problem(
            quality, sc={"S1": 0.5, "S2": 0.25, "S3": 0.75, "S4": 1.0}
        )
        for column, dtype in (
            ("g_by_xtuple", np.float64),
            ("topk_mass_by_xtuple", np.float64),
            ("costs", np.int64),
            ("sc_probabilities", np.float64),
        ):
            for built in (problem, from_mappings):
                array = getattr(built, column)
                assert isinstance(array, np.ndarray), column
                assert array.dtype == dtype, column
                assert not array.flags.writeable, column
            assert np.array_equal(
                getattr(problem, column), getattr(from_mappings, column)
            ), column
        assert problem.costs.tolist() == [1, 2, 3, 4]

    def test_caller_arrays_stay_writable(self, quality):
        costs = np.array([1, 2, 3, 4], dtype=np.int64)
        problem = self._arrays(quality, costs=costs)
        assert costs.flags.writeable
        with pytest.raises(ValueError):
            problem.costs[0] = 5

    @pytest.mark.parametrize(
        "column, values",
        [
            ("costs", np.array([1.0, 2.0, 3.0, 4.0])),
            ("costs", np.array([True, True, True, True])),
            ("costs", np.array([1, 0, 1, 1])),
            ("costs", np.array([1, 1, 1])),
            ("sc_probabilities", np.array([0.5, 1.5, 0.5, 0.5])),
            ("sc_probabilities", np.array([0.5, np.nan, 0.5, 0.5])),
            ("g_by_xtuple", np.array([0.5, 0.0, 0.0, 0.0])),
        ],
        ids=["float-costs", "bool-costs", "zero-cost", "short", "sc-1.5",
             "sc-nan", "positive-g"],
    )
    def test_arrays_validated_as_arrays(self, quality, column, values):
        with pytest.raises(InvalidCleaningProblemError):
            self._arrays(quality, **{column: values})

    def test_bad_sc_value_named(self, quality):
        with pytest.raises(InvalidCleaningProblemError, match="1.5"):
            self._arrays(
                quality, sc_probabilities=np.array([0.5, 1.5, 0.5, 0.5])
            )

    def test_payload_holds_no_numpy_scalars(self):
        # Every read from a problem is a numpy scalar, so each path into
        # an envelope must convert.  ``json.dumps`` would not notice:
        # ``np.float64`` subclasses ``float``.
        service = TopKService()
        db = generate_synthetic(num_xtuples=60, completion=0.85, seed=2)
        sid = service.register(db).snapshot_id
        envelopes = [
            service.query(sid, QuerySpec(k=5)),
            service.quality(sid, QualitySpec(k=5)),
            service.quality(
                sid, QualitySpec(k=5, method="montecarlo", samples=200)
            ),
            service.batch(
                sid,
                BatchSpec(
                    items=(QuerySpec(k=3, semantics="ptk"), QualitySpec(k=5))
                ),
            ),
        ]
        for planner in ("dp", "greedy", "randp", "randu"):
            for execute, adaptive in ((False, False), (True, False), (True, True)):
                spec = CleaningSpec(
                    k=5,
                    budget=30,
                    planner=planner,
                    execute=execute,
                    adaptive=adaptive,
                    seed=4,
                )
                envelopes.append(service.clean(sid, spec))
        for envelope in envelopes:
            assert _foreign_leaves(envelope.to_dict()) == [], envelope.kind
            json.dumps(envelope.to_dict())


def _foreign_leaves(value, path="$"):
    """Paths of the leaves of a JSON-like value that are not exactly an
    ``int``, ``float``, ``str``, ``bool`` or ``None``."""
    if isinstance(value, dict):
        return [
            leaf
            for key, item in value.items()
            for leaf in _foreign_leaves(item, f"{path}.{key}")
        ]
    if isinstance(value, (list, tuple)):
        return [
            leaf
            for i, item in enumerate(value)
            for leaf in _foreign_leaves(item, f"{path}[{i}]")
        ]
    if value is None or type(value) in (int, float, str, bool):
        return []
    return [f"{path}: {type(value).__name__}"]


def _with_certain_xtuple(probability=1.0):
    """udb1-like data whose ``C`` x-tuple is certain."""
    return ProbabilisticDatabase(
        [
            make_xtuple("A", [("a1", 9.0, 0.5), ("a2", 3.0, 0.5)]),
            make_xtuple("C", [("c1", 8.0, probability)]),
            make_xtuple("B", [("b1", 7.0, 0.4), ("b2", 5.0, 0.6)]),
        ]
    )


class TestCertainXTuplesAreNotCandidates:
    """Cleaning a certain x-tuple leaves the database as it is
    (Definition 5), so it is never in Z -- whatever float residue a
    TP pass leaves in its g(l, D)."""

    def _problem(self, db, g_certain=-4.4e-14):
        ranked = db.ranked()
        return CleaningProblem(
            ranked=ranked,
            k=2,
            g_by_xtuple=(-0.5, g_certain, -0.25),
            topk_mass_by_xtuple=(0.9, 1.0, 0.1),
            costs=(1, 1, 1),
            sc_probabilities=(0.9, 0.9, 0.9),
            budget=10,
        )

    @pytest.mark.parametrize("probability", [1.0, 1.0 - 1e-13])
    def test_residue_g_is_no_candidate(self, probability):
        problem = self._problem(_with_certain_xtuple(probability))
        assert problem.candidate_indices() == [0, 2]
        for planner in (GreedyCleaner(), RandPCleaner(seed=1), RandUCleaner(seed=1)):
            assert "C" not in planner.plan(problem).operations

    def test_single_uncertain_alternative_stays_a_candidate(self):
        # One alternative with null mass is not certain: cleaning it
        # collapses it or removes it.
        problem = self._problem(_with_certain_xtuple(0.7), g_certain=-0.1)
        assert problem.candidate_indices() == [0, 1, 2]


def _mask_from_rows(problem):
    """The probe mask with each x-tuple's size counted over the ranked
    rows, as it was before the mask read the database's sizes."""
    ranked = problem.ranked
    sizes = np.bincount(ranked.xtuple_indices_array, minlength=ranked.num_xtuples)
    certain = (sizes == 1) & (
        1.0 - ranked.completion_array <= COMPLETENESS_TOLERANCE
    )
    return (
        (problem.g_by_xtuple < -G_TOLERANCE)
        & ~certain
        & (problem.sc_probabilities > SC_TOLERANCE)
    )


class TestProbeMaskReadsTheSizes:
    """The mask takes each x-tuple's size from the database, not from a
    count over every ranked row; it must not change."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([True, False, None]).flatmap(
            lambda complete: cleaning_problems(max_xtuples=8, complete=complete)
        )
    )
    def test_generated_problems(self, drawn):
        _, problem = drawn
        assert problem.probe_mask.tolist() == _mask_from_rows(problem).tolist()

    @pytest.mark.parametrize("completion", [1.0, 0.85])
    def test_problems_on_a_derived_database(self, completion):
        ranked = generate_synthetic(num_xtuples=200, seed=5, completion=completion).ranked()
        uncertain = [xt for xt in ranked.db.xtuples if len(xt.alternatives) > 1]
        changes = {xt.xid: xt.tids[0] for xt in uncertain[:20]}
        changes.update((xt.xid, None) for xt in uncertain[20:30])
        derived = ranked.with_change_set(changes)
        singletons = int((derived.db.sizes == 1).sum())
        assert singletons >= 20
        quality = compute_quality_tp(derived, 10)
        xids = derived.xtuple_ids
        problem = build_cleaning_problem(
            quality,
            {xid: 1 + i % 3 for i, xid in enumerate(xids)},
            {xid: (0.0, 0.5, 1.0)[i % 3] for i, xid in enumerate(xids)},
            budget=20,
        )
        assert problem.probe_mask.tolist() == _mask_from_rows(problem).tolist()
