#!/usr/bin/env python3
"""Movie-rating curation: confirm ratings by phone under a call budget.

The paper's second motivating application: a rating database integrated
from multiple sources (the MOV dataset) stores, per (movie, viewer),
several alternative (date, rating) records with confidences.  A
"freshest high ratings" dashboard is a probabilistic top-k query over
``date + rating``.  Calling a viewer confirms their true rating -- if
they pick up -- and each call costs money.

This example runs the dashboard query, then uses the *inverse* cleaning
solver (a library extension; the paper's Section VII names it future
work) to answer: what is the cheapest calling campaign that removes 60%
of the answer's ambiguity?

Run:  python examples/movie_ratings.py
"""

from repro import build_cleaning_problem, min_cost_plan
from repro.cleaning import expected_improvement, improvement_upper_bound
from repro.datasets.mov import generate_mov, mov_ranking
from repro.datasets.synthetic import generate_costs, generate_sc_probabilities
from repro.queries import evaluate

NUM_RATINGS = 2000
K = 15


def main() -> None:
    db = generate_mov(num_xtuples=NUM_RATINGS, seed=8)
    report = evaluate(db, k=K, threshold=0.1, ranking=mov_ranking())
    print(f"{NUM_RATINGS} (movie, viewer) rating entities; top-{K} dashboard")
    print(f"PT-{K} answer size: {len(report.ptk)}")
    print(f"PWS-quality: {report.quality_score:.3f}")

    top = report.global_topk.members[:5]
    print("\nmost likely dashboard entries:")
    for tid, probability in top:
        t = db.tuple(tid)
        print(f"  {tid}: rating={t.value['rating'] * 4 + 1:.0f}/5, "
              f"p(top-{K}) = {probability:.2f}")

    # Call costs (agent minutes) and pick-up probabilities.
    costs = generate_costs(db, low=1, high=5, seed=9)
    pickup = generate_sc_probabilities(db, low=0.3, high=0.95, seed=10)
    problem = build_cleaning_problem(report.quality, costs, pickup, budget=0)

    ceiling = improvement_upper_bound(problem)
    target = 0.6 * ceiling
    print(f"\nmax removable ambiguity: {ceiling:.3f} bits")
    print(f"target: 60% of that = {target:.3f} bits")

    for method in ("greedy", "dp"):
        solution = min_cost_plan(problem, target, method=method)
        print(f"\n{method}: cheapest campaign costs {solution.cost} "
              f"agent-minutes, {solution.plan.total_operations} calls to "
              f"{len(solution.plan)} viewers")
        print(f"  expected improvement: {solution.expected_improvement:.3f}")
        assert expected_improvement(problem, solution.plan) >= target - 1e-9

    # How the cheapest campaign allocates repeat calls: viewers with low
    # pick-up probability get several attempts.
    solution = min_cost_plan(problem, target, method="dp")
    repeats = sorted(
        solution.plan.operations.items(), key=lambda kv: -kv[1]
    )[:5]
    print("\nmost-retried viewers (low pick-up probability):")
    for xid, count in repeats:
        print(f"  {xid}: {count} calls (pick-up p = {pickup[xid]:.2f})")


if __name__ == "__main__":
    main()
