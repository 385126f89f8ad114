"""The figure registry at quick scale: every table and its shape check.

Each ``ALL_FIGURES`` entry generates its table at ``SCALES["quick"]``;
the table must be well formed and the entry's check must find the
paper's shape in it.  The claims the paper states at k = 100 are left
to ``benchmarks/run_all.py --scale default``: quick scale stops at
k = 50.
"""

from functools import lru_cache

import pytest

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import SCALES, Table
from repro.bench import workloads

QUICK = SCALES["quick"]


@lru_cache(maxsize=None)
def quick_table(name: str) -> Table:
    return ALL_FIGURES[name].generate(QUICK)


class TestRegistry:
    def test_all_paper_figures_covered(self):
        expected = {
            "fig2_3",
            "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f",
            "fig5a", "fig5b", "fig5c", "fig5d",
            "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig6g",
            "ablation_adaptive",
            "ablation_dp_pruning",
            "ablation_knapsack_backend",
            "ablation_greedy_gap",
            "ablation_randu_pool",
        }
        assert set(ALL_FIGURES) == expected


@pytest.mark.parametrize("name", sorted(ALL_FIGURES))
def test_figure_produces_table(name):
    table = quick_table(name)
    assert table.experiment == name
    assert table.rows, f"{name} produced no rows"
    for row in table.rows:
        assert len(row) == len(table.columns)
    assert ALL_FIGURES[name].check(table) == []


class TestSpecificAxes:
    def test_fig6a_budgets_respect_scale(self):
        table = quick_table("fig6a")
        assert all(c <= QUICK.budget_max for c in table.column("C"))

    def test_fig4a_k_sweep_respects_scale(self):
        table = quick_table("fig4a")
        assert all(k <= QUICK.k_max for k in table.column("k"))

    def test_fig5_sharing_ks(self):
        table = quick_table("fig5a")
        assert table.column("k") == [15, 30, 50]  # 80 and 100 exceed k_max=50


class TestWorkloadCaching:
    def test_synthetic_db_cached_by_parameters(self):
        a = workloads.synthetic_db(30)
        b = workloads.synthetic_db(30)
        c = workloads.synthetic_db(31)
        assert a is b
        assert a is not c

    def test_ranked_views_cached(self):
        assert workloads.synthetic_ranked(30) is workloads.synthetic_ranked(30)

    def test_quality_cached_per_k(self):
        a = workloads.synthetic_quality(30, 3)
        b = workloads.synthetic_quality(30, 3)
        c = workloads.synthetic_quality(30, 4)
        assert a is b
        assert a is not c

    def test_costs_are_stable_tuples(self):
        costs = dict(workloads.synthetic_costs(30))
        db = workloads.synthetic_db(30)
        assert set(costs) == {xt.xid for xt in db.xtuples}
        assert all(1 <= c <= 10 for c in costs.values())

    def test_cleaning_problem_construction(self):
        problem = workloads.synthetic_cleaning_problem(30, 3, 50)
        assert problem.budget == 50
        assert problem.k == 3
        assert problem.num_xtuples == 30
