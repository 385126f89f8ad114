#!/usr/bin/env python3
"""Sensor-network monitoring: quality-aware probing under a budget.

The scenario motivating the paper's introduction: a base station keeps
the latest (stale, noisy) readings from thousands of sensors as
x-tuples, answers "which regions are hottest?" as a probabilistic
top-k query, and -- when the answer is too ambiguous -- spends limited
radio bandwidth probing sensors for fresh values.  Probes can fail
(packet loss), so the planner weighs cost, success probability, and
each sensor's contribution to the answer's ambiguity.

This example compares all four planners at several budgets and then
simulates actually executing the greedy plan, including failed probes.

Run:  python examples/sensor_network.py
"""

import random

from repro import (
    DPCleaner,
    GreedyCleaner,
    RandPCleaner,
    RandUCleaner,
    build_cleaning_problem,
    execute_plan,
)
from repro.cleaning import expected_improvement
from repro.datasets.synthetic import (
    generate_costs,
    generate_sc_probabilities,
    generate_synthetic,
)
from repro.queries import evaluate

NUM_SENSORS = 800
K = 10
BUDGETS = (25, 100, 400)


def main() -> None:
    # Each sensor's reading is an x-tuple: ten discretized hypotheses
    # for the true temperature (Section VI's synthetic model).
    db = generate_synthetic(num_xtuples=NUM_SENSORS, sigma=100.0, seed=3)
    report = evaluate(db, k=K, threshold=0.1)
    print(f"{NUM_SENSORS} sensors, top-{K} hottest-region query")
    print(f"PT-{K} answer size: {len(report.ptk)}")
    print(f"PWS-quality before probing: {report.quality_score:.3f}")

    # Probing cost models radio hops (1..10); success probability models
    # link reliability.
    costs = generate_costs(db, seed=4)
    sc = generate_sc_probabilities(db, seed=5)

    print("\nexpected improvement by planner and budget:")
    print(f"{'budget':>8}  {'DP':>8}  {'Greedy':>8}  {'RandP':>8}  {'RandU':>8}")
    for budget in BUDGETS:
        problem = build_cleaning_problem(report.quality, costs, sc, budget)
        row = [budget]
        for planner in (DPCleaner(), GreedyCleaner(), RandPCleaner(), RandUCleaner()):
            plan = planner.plan(problem)
            row.append(expected_improvement(problem, plan))
        print(f"{row[0]:>8}  {row[1]:>8.3f}  {row[2]:>8.3f}  "
              f"{row[3]:>8.3f}  {row[4]:>8.3f}")

    # Execute the greedy plan at the middle budget and observe reality.
    budget = BUDGETS[1]
    problem = build_cleaning_problem(report.quality, costs, sc, budget)
    plan = GreedyCleaner().plan(problem)
    outcome = execute_plan(db, problem, plan, rng=random.Random(6))
    after = evaluate(outcome.cleaned_db, k=K, threshold=0.1)

    expected = expected_improvement(problem, plan)
    realized = after.quality_score - report.quality_score
    print(f"\ngreedy plan at budget {budget}: probe "
          f"{len(plan)} sensors, {plan.total_operations} operations")
    print(f"  probes performed: {outcome.cost_spent} cost units "
          f"({outcome.num_succeeded}/{len(outcome.records)} sensors confirmed)")
    print(f"  expected improvement: {expected:.3f}")
    print(f"  realized improvement: {realized:.3f}")
    print(f"  quality after probing: {after.quality_score:.3f}")


if __name__ == "__main__":
    main()
