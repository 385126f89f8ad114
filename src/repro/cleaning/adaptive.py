"""Adaptive cleaning: re-plan with the budget early successes free up.

The paper plans once, before any probe runs, and explicitly defers "how
to update the list so that the rest of the resources can be used to
further improve the quality" to future work (Section V-A).  This module
implements that loop as an extension:

    round:  evaluate quality -> plan under remaining budget ->
            execute -> subtract *actual* spend -> repeat

Two effects make the adaptive loop outperform one-shot planning in
realized (not expected) improvement: probes saved by early successes
are re-invested, and later rounds see the *actual* outcome databases --
an x-tuple that got cleaned no longer attracts budget, a probe that
kept failing can be retried.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cleaning.base import Cleaner
from repro.cleaning.executor import CleaningOutcome, execute_plan
from repro.cleaning.model import CleaningProblem, build_cleaning_problem
from repro.db.database import ProbabilisticDatabase
from repro.queries.engine import QuerySession


@dataclass(frozen=True)
class AdaptiveRound:
    """One plan/execute cycle of the adaptive loop."""

    round_index: int
    budget_before: int
    quality_before: float
    outcome: CleaningOutcome

    @property
    def cost_spent(self) -> int:
        return self.outcome.cost_spent


@dataclass(frozen=True)
class AdaptiveCleaningResult:
    """Full trace of an adaptive cleaning session."""

    final_db: ProbabilisticDatabase
    rounds: Tuple[AdaptiveRound, ...]
    initial_quality: float
    final_quality: float
    budget: int
    budget_spent: int
    #: The session over ``final_db`` the loop ended on.  Its cumulative
    #: counters tell the run's whole evaluation cost: every round that
    #: changed the database shows up as one ``delta_derives``, and as
    #: one fresh pass in ``psr_misses`` -- or one ``psr_patches`` when
    #: the cached pass ended above every change.
    session: Optional[QuerySession] = None

    @property
    def realized_improvement(self) -> float:
        return self.final_quality - self.initial_quality


def clean_adaptively(
    db: ProbabilisticDatabase,
    problem: CleaningProblem,
    planner: Cleaner,
    rng: Optional[random.Random] = None,
    max_rounds: int = 100,
    session: Optional[QuerySession] = None,
) -> AdaptiveCleaningResult:
    """Run the plan/execute/re-plan loop until the budget is spent.

    Each round works through a :class:`QuerySession` derived from the
    previous round's outcome.  The executor applies each round's
    successful probes as one :class:`~repro.db.database.RankDelta`, so
    every round that changed the database costs one splice of the
    ranked view and one PSR pass (none when the cached pass ended
    above every change); an all-failures round (or a caller-provided
    warm session over ``db``) is served entirely from cache.

    Parameters
    ----------
    db:
        The database to clean (must be the one ``problem`` was built on).
    problem:
        The initial cleaning instance; supplies budget, costs and
        sc-probabilities.  Costs/sc-probabilities of an x-tuple are
        looked up by id, so they survive across rounds.
    planner:
        Any :class:`~repro.cleaning.base.Cleaner` (DP, Greedy, ...).
    rng:
        Randomness for probe outcomes (fixed seed by default).
    max_rounds:
        Hard stop against pathological zero-spend cycles.
    session:
        Optional warm query session over ``db`` (same ranking as the
        problem's view); reused for the initial quality evaluation.
    """
    rng = rng or random.Random(0)
    ranking = problem.ranked.ranking
    k = problem.k

    cost_by_xid = {
        problem.xtuple_id(l): problem.costs[l]
        for l in range(problem.num_xtuples)
    }
    sc_by_xid = {
        problem.xtuple_id(l): problem.sc_probabilities[l]
        for l in range(problem.num_xtuples)
    }

    if session is None:
        session = QuerySession(db, ranking=ranking)
    elif session.ranked.db is not db or session.ranked.ranking is not ranking:
        raise ValueError(
            "the provided session must be over the database being cleaned, "
            "under the problem's ranking"
        )
    current_db = db
    remaining = problem.budget
    rounds: List[AdaptiveRound] = []
    initial_quality = session.quality(k).quality
    current_quality = initial_quality

    for round_index in range(max_rounds):
        if remaining <= 0:
            break
        quality = session.quality(k)
        current_quality = quality.quality
        round_problem = build_cleaning_problem(
            quality,
            costs={xt.xid: cost_by_xid[xt.xid] for xt in current_db.xtuples},
            sc_probabilities={
                xt.xid: sc_by_xid[xt.xid] for xt in current_db.xtuples
            },
            budget=remaining,
        )
        plan = planner.plan(round_problem)
        if not plan.operations:
            break
        outcome = execute_plan(
            current_db,
            round_problem,
            plan,
            rng=rng,
            session=session,
        )
        rounds.append(
            AdaptiveRound(
                round_index=round_index,
                budget_before=remaining,
                quality_before=current_quality,
                outcome=outcome,
            )
        )
        if outcome.cost_spent == 0:  # pragma: no cover - defensive
            break
        remaining -= outcome.cost_spent
        current_db = outcome.cleaned_db
        session = outcome.session

    session = session.derive(current_db)
    final_quality = session.quality(k).quality
    return AdaptiveCleaningResult(
        final_db=current_db,
        rounds=tuple(rounds),
        initial_quality=initial_quality,
        final_quality=final_quality,
        budget=problem.budget,
        budget_spent=problem.budget - remaining,
        session=session,
    )
