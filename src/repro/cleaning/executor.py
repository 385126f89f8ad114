"""Plan execution: simulate the cleaning agent (Section V-A).

A planner only *decides* ``(X, M)``; someone still has to make the
phone calls.  :func:`execute_plan` simulates the cleaning agent of the
paper: it probes each selected x-tuple up to its assigned count,
stopping early on success (the paper: "the cleaning agent will not
perform more cleaning operations on this x-tuple"), and returns the
resulting database together with the budget actually spent -- the
leftover feeds the adaptive re-cleaning extension.

A successful probe reveals the entity's real value: alternative ``t_i``
with probability ``e_i``, or -- for incomplete x-tuples -- "no reading"
with the null mass ``1 - s_l``, in which case the entity is removed
from the cleaned database (it is now certain to contribute nothing).

The plan is fixed before any probe runs, and each outcome depends only
on the rng, so :func:`execute_plan` draws every probe first and applies
the successful ones as one change set (``{xid: revealed tid or None}``),
reading each probed x-tuple's tuple ids and probabilities off the
database's columns: no tuple object is built.  When a
:class:`~repro.queries.engine.QuerySession` over the database is
threaded through, the change set derives the cleaned database through
the session's *ranked view* -- ``RankedDatabase.derive``, the splice a
durable change set replays through -- and hands the one resulting
:class:`~repro.db.database.RankDelta` to ``session.derive``, so the
cleaned view is spliced instead of re-ranked, and the derived session
runs one fresh PSR pass when the round's quality is next read (a
cached pass that ended above every change moves over as it is).
Otherwise (no session, or a session over another database) the cleaned
database is spliced once and any session derives cold.  The probe
outcomes (and the rng stream) are identical either way.

The outcome also carries the change set it applied in durable form,
built from the successful probes alone: it equals
:func:`~repro.db.database.change_set` of the database and the cleaned
database, without walking either.  A probe that collapses an x-tuple to
its own content (one alternative, already certain) is spliced but left
out of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cleaning.model import CleaningPlan, CleaningProblem
from repro.db.database import ChangeSet, ProbabilisticDatabase, hash_record
from repro.queries.engine import QuerySession


@dataclass(frozen=True)
class ProbeRecord:
    """What happened to one x-tuple during plan execution.

    ``revealed_tid`` is the alternative confirmed as real (``None`` both
    on failure and on a revealed-null outcome; distinguish the latter by
    ``revealed_null``).
    """

    xid: str
    assigned: int
    performed: int
    succeeded: bool
    revealed_tid: Optional[str]
    revealed_null: bool


@dataclass(frozen=True)
class CleaningOutcome:
    """Result of executing a plan against a database.

    When the caller passed a :class:`~repro.queries.engine.QuerySession`
    to :func:`execute_plan`, ``session`` is a session over
    ``cleaned_db`` derived from it -- the *same* session object (cache
    intact) when no probe changed the database, so re-evaluating the
    quality after an all-failure round costs no new PSR pass.

    ``changes`` is the change set the execution applied: a successful
    probe's x-tuple maps to its revealed tuple id, or to ``None`` when
    it revealed a null and was removed.  A collapse that leaves the
    x-tuple's content as it was (probing an already-certain x-tuple)
    is left out, so ``changes`` equals
    ``change_set(db, cleaned_db)`` (:func:`~repro.db.database.change_set`).
    """

    cleaned_db: ProbabilisticDatabase
    records: Tuple[ProbeRecord, ...]
    cost_assigned: int
    cost_spent: int
    session: Optional[QuerySession] = field(default=None, compare=False)
    changes: ChangeSet = field(default_factory=dict)

    @property
    def cost_saved(self) -> int:
        """Budget freed by early successes (reusable by adaptive loops)."""
        return self.cost_assigned - self.cost_spent

    @property
    def num_succeeded(self) -> int:
        return sum(1 for r in self.records if r.succeeded)


def execute_plan(
    db: ProbabilisticDatabase,
    problem: CleaningProblem,
    plan: CleaningPlan,
    rng: Optional[random.Random] = None,
    session: Optional[QuerySession] = None,
) -> CleaningOutcome:
    """Simulate the cleaning agent executing ``plan`` on ``db``.

    Besides the cleaned database and the probe records, the outcome
    carries the change set the execution applied
    (:attr:`CleaningOutcome.changes`), built from the successful
    probes as they run: the work outside the ranked-view splice grows
    with the plan, not with the database.

    Parameters
    ----------
    db:
        The database the plan was computed for (the problem's ranked
        view must stem from this database).
    problem:
        Supplies per-x-tuple costs and sc-probabilities.
    plan:
        The probe assignment to carry out.
    rng:
        Randomness source; defaults to a fixed-seed generator so
        simulations are reproducible by default.  Pass your own
        ``random.Random`` to control the probe outcomes end-to-end.
    session:
        Optional query session over ``db``; when given, the outcome
        carries a session over the cleaned database derived from it so
        downstream re-evaluation reuses cached rank-probability state
        whenever possible.  A session over ``db`` derives through one
        incremental rank delta; any other session derives cold.
    """
    rng = rng or random.Random(0)
    records: List[ProbeRecord] = []
    # Every successful probe's outcome, as spliced, and the change set
    # carried out, which leaves out collapses to an x-tuple's own content.
    spliced: ChangeSet = {}
    applied: ChangeSet = {}
    cost_assigned = 0
    cost_spent = 0

    xids = sorted(plan.operations)
    rows = problem.rows([problem.xtuple_index(xid) for xid in xids])
    for xid, (sc, _g, cost) in zip(xids, rows):
        assigned = plan.operations[xid]
        cost_assigned += cost * assigned

        performed = 0
        succeeded = False
        for _ in range(assigned):
            performed += 1
            cost_spent += cost
            if rng.random() < sc:
                succeeded = True
                break

        revealed_tid: Optional[str] = None
        revealed_null = False
        if succeeded:
            tids, values, probabilities = db.rows_of(xid)
            u = rng.random()
            acc = 0.0
            for tid, probability in zip(tids, probabilities):
                acc += probability
                if u < acc:
                    revealed_tid = tid
                    break
            spliced[xid] = revealed_tid
            if revealed_tid is None:
                revealed_null = True
                applied[xid] = None
            elif len(tids) > 1 or hash_record(
                xid, [(revealed_tid, values[0], probabilities[0])]
            ) != hash_record(xid, [(revealed_tid, values[0], 1.0)]):
                applied[xid] = revealed_tid
        records.append(
            ProbeRecord(
                xid=xid,
                assigned=assigned,
                performed=performed,
                succeeded=succeeded,
                revealed_tid=revealed_tid,
                revealed_null=revealed_null,
            )
        )

    # The delta path derives through the session's ranked view, so it
    # only applies when the session covers ``db``; a foreign session
    # derives cold from the cleaned database.
    outcome_session: Optional[QuerySession]
    if spliced and session is not None and session.ranked.db is db:
        new_ranked, delta = session.ranked.derive(spliced)
        cleaned = new_ranked.db
        outcome_session = session.derive(new_ranked, delta=delta)
    else:
        cleaned = db.with_change_set(spliced)
        outcome_session = None if session is None else session.derive(cleaned)
    return CleaningOutcome(
        cleaned_db=cleaned,
        records=tuple(records),
        cost_assigned=cost_assigned,
        cost_spent=cost_spent,
        session=outcome_session,
        changes=applied,
    )
