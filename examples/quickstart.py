#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Builds the sensor database of Table I (udb1), answers the three
probabilistic top-k queries, scores the answer's ambiguity with the
PWS-quality, plans a budgeted cleaning, and executes it -- reproducing
the udb1 -> udb2 story of the paper's introduction.

Run:  python examples/quickstart.py
"""

from repro import (
    DPCleaner,
    build_cleaning_problem,
    compute_quality_pwr,
    execute_plan,
)
from repro.cleaning import expected_improvement
from repro.datasets.paper import udb1
from repro.queries import evaluate


def main() -> None:
    db = udb1()
    print(f"database: {db.name} with {db.num_xtuples} sensors, "
          f"{db.num_tuples} candidate readings")

    # ------------------------------------------------------------------
    # 1. Query + quality in one shared pass (paper Section IV-C).
    # ------------------------------------------------------------------
    report = evaluate(db, k=2, threshold=0.4)
    print("\nPT-2 answer (threshold 0.4):", report.ptk.tids)
    print("U-kRanks winners:", [(w.rank, w.tid) for w in report.ukranks.winners])
    print("Global-top2:", report.global_topk.tids)
    print(f"PWS-quality: {report.quality_score:.4f}  (paper: -2.55)")

    # The pw-result distribution behind that score (Figure 2).
    distribution = compute_quality_pwr(db.ranked(), 2, collect=True).distribution
    print("\npw-results (Figure 2):")
    for result, probability in sorted(distribution.items(), key=lambda kv: -kv[1]):
        print(f"  ({', '.join(result)}): {probability:.3f}")

    # ------------------------------------------------------------------
    # 2. Plan cleaning under a budget (paper Section V).
    # ------------------------------------------------------------------
    costs = {"S1": 2, "S2": 2, "S3": 1, "S4": 3}       # probe costs
    sc = {"S1": 0.7, "S2": 0.7, "S3": 0.9, "S4": 1.0}  # success chances
    problem = build_cleaning_problem(report.quality, costs, sc, budget=3)
    plan = DPCleaner().plan(problem)
    print(f"\noptimal plan under budget 3: {dict(plan.operations)}")
    print(f"expected quality improvement: "
          f"{expected_improvement(problem, plan):.4f}")

    # ------------------------------------------------------------------
    # 3. Execute the probes and re-score.
    # ------------------------------------------------------------------
    outcome = execute_plan(db, problem, plan)
    after = evaluate(outcome.cleaned_db, k=2, threshold=0.4)
    print(f"\nprobes spent {outcome.cost_spent} of {outcome.cost_assigned} "
          f"budgeted units; {outcome.num_succeeded} sensor(s) confirmed")
    for record in outcome.records:
        status = f"revealed {record.revealed_tid}" if record.succeeded else "failed"
        print(f"  pclean({record.xid}) x{record.performed}: {status}")
    print(f"quality after cleaning: {after.quality_score:.4f} "
          f"(was {report.quality_score:.4f})")


if __name__ == "__main__":
    main()
