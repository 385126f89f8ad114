"""A clean pays for its change: the carried change set and its users.

An executed clean carries the change set it applied
(``{xid: revealed tid, or None}``) from the executor through the
service into the journal and the store, instead of recomputing it with
:func:`repro.db.database.change_set`, which stays as the oracle these
tests compare against.  Also here:

* a derived view's content hash, spliced from its base's hash records,
  equals a fresh copy's;
* the store checks a carried set in O(change) and writes a full
  segment when a check fails or no set is given;
* planners never probe an x-tuple that is already certain;
* the request path calls none of the O(m) helpers: ``change_set`` and
  the dict-building draws.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import open_service
from reference_encoding import reference_content_hash
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec
from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.executor import execute_plan
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.model import CleaningPlan, CleaningProblem, build_cleaning_problem
from repro.core.tp import compute_quality_tp
from repro.datasets.synthetic import (
    draw_costs,
    draw_sc_probabilities,
    generate_synthetic,
)
from repro.db.database import ProbabilisticDatabase, change_set
from repro.db.tuples import make_xtuple
from repro.queries.engine import QuerySession
from repro.store import SEGMENT_SUFFIX, SnapshotStore
from repro.store.format import decode_segment
from strategies import databases


def schema_of(root: Path, snapshot_id: str) -> int:
    path = root / "segments" / (snapshot_id + SEGMENT_SUFFIX)
    return decode_segment(path.read_bytes()).header["schema"]


class ProbeAll:
    """Probes every x-tuple it can afford once, certain ones included
    -- unlike the paper's planners, whose candidate set leaves those
    out."""

    name = "ProbeAll"

    def plan(self, problem: CleaningProblem) -> CleaningPlan:
        operations: Dict[str, int] = {}
        spent = 0
        for l, cost in enumerate(problem.costs):
            if spent + cost <= problem.budget:
                operations[problem.xtuple_id(l)] = 1
                spent += cost
        return CleaningPlan(operations)


@st.composite
def cleaning_inputs(draw, max_budget: int = 12):
    """A database, some of its x-tuples already collapsed (certain), and
    a cleaning problem over it with high sc-probabilities, so probes
    succeed and incomplete x-tuples sometimes reveal a null."""
    db = draw(databases(max_xtuples=6, complete=None, min_xtuples=2))
    collapse = draw(
        st.lists(st.sampled_from(db.xtuples), unique_by=lambda xt: xt.xid,
                 max_size=2)
    )
    if collapse:
        db = db.ranked().with_change_set(
            {xt.xid: draw(st.sampled_from(xt.tids)) for xt in collapse}
        ).db
    k = draw(st.integers(1, min(3, db.num_xtuples)))
    quality = compute_quality_tp(db.ranked(), k)
    m = db.num_xtuples
    costs = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    sc = draw(
        st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0]), min_size=m, max_size=m)
    )
    budget = draw(st.integers(0, max_budget))
    return db, build_cleaning_problem(quality, costs, sc, budget)


class TestCarriedChangeSet:
    @settings(max_examples=80, deadline=None)
    @given(cleaning_inputs(), st.data())
    def test_execute_plan_carries_the_oracle_set(self, case, data):
        db, problem = case
        xids = [xt.xid for xt in db.xtuples]
        picks = data.draw(st.lists(st.sampled_from(xids), unique=True))
        plan = CleaningPlan({xid: data.draw(st.integers(1, 3)) for xid in picks})
        seed = data.draw(st.integers(0, 2**16))
        foreign = QuerySession(generate_synthetic(num_xtuples=5))
        for session in (None, QuerySession(db), foreign):
            outcome = execute_plan(
                db, problem, plan, rng=random.Random(seed), session=session
            )
            assert outcome.changes == change_set(db, outcome.cleaned_db)
            rebuilt = db.ranked().with_change_set(outcome.changes).db
            assert rebuilt.content_hash() == outcome.cleaned_db.content_hash()

    @settings(max_examples=60, deadline=None)
    @given(cleaning_inputs(max_budget=25), st.booleans(), st.integers(0, 2**16))
    def test_clean_adaptively_composes_the_oracle_set(self, case, probe_all, seed):
        db, problem = case
        planner = ProbeAll() if probe_all else GreedyCleaner()
        result = clean_adaptively(db, problem, planner, rng=random.Random(seed))
        assert result.changes == change_set(db, result.final_db)

    def test_several_rounds_with_revealed_nulls(self):
        db = generate_synthetic(num_xtuples=60, completion=0.85, seed=9)
        session = QuerySession(db)
        problem = build_cleaning_problem(
            session.quality(10),
            draw_costs(60, seed=1),
            draw_sc_probabilities(60, seed=2),
            150,
        )
        result = clean_adaptively(
            db, problem, GreedyCleaner(), rng=random.Random(7), session=session
        )
        assert len(result.rounds) > 2
        assert None in result.changes.values()
        assert len(result.changes) > 3
        assert result.changes == change_set(db, result.final_db)

    def test_probing_a_certain_xtuple_changes_nothing(self):
        db = ProbabilisticDatabase(
            [
                make_xtuple("A", [("a1", 9.0, 0.5), ("a2", 3.0, 0.5)]),
                make_xtuple("C", [("c1", 8.0, 1.0)]),
            ]
        )
        problem = build_cleaning_problem(
            compute_quality_tp(db.ranked(), 1), [1, 1], [1.0, 1.0], 5
        )
        session = QuerySession(db)
        outcome = execute_plan(
            db, problem, CleaningPlan({"C": 1}), session=session
        )
        assert outcome.num_succeeded == 1
        # The collapse built a new x-tuple, but with the same content.
        assert outcome.cleaned_db is not db
        assert outcome.changes == {} == change_set(db, outcome.cleaned_db)
        assert outcome.cleaned_db.content_hash() == db.content_hash()
        both = execute_plan(
            db, problem, CleaningPlan({"A": 1, "C": 1}), session=session
        )
        assert list(both.changes) == ["A"]
        assert both.changes == change_set(db, both.cleaned_db)

    @pytest.mark.parametrize("completion", [1.0, 0.85])
    def test_service_journals_the_carried_set(self, tmp_path, completion):
        service = open_service(tmp_path / "store")
        db = generate_synthetic(num_xtuples=120, completion=completion, seed=5)
        sid = service.register(db).snapshot_id
        for index in range(6):
            spec = CleaningSpec(
                k=10, budget=30, adaptive=index % 2 == 1, seed=index
            )
            outcome = service.clean(sid, spec).payload["new_snapshot_id"]
            if outcome == sid:
                continue
            (record,) = [
                r for r in service.store.journal_records()
                if r.get("outcome") == outcome
            ]
            assert record["changes"] == change_set(
                service.database(sid), service.database(outcome)
            )
            assert schema_of(tmp_path / "store", outcome) == 3
            sid = outcome


class TestSplicedHashRecords:
    @settings(max_examples=80, deadline=None)
    @given(databases(max_xtuples=8, complete=None), st.data())
    def test_derived_hash_equals_a_fresh_copy(self, db, data):
        view = db.ranked()
        if data.draw(st.booleans(), label="hash the base"):
            view.db.content_hash()
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            xtuples = view.db.xtuples
            picks = data.draw(
                st.lists(st.sampled_from(xtuples), unique_by=lambda xt: xt.xid)
            )
            changes: Dict[str, Optional[str]] = {}
            for xt in picks:
                removable = len(xtuples) - list(changes.values()).count(None) > 1
                options = list(xt.tids) + ([None] if removable else [])
                changes[xt.xid] = data.draw(st.sampled_from(options))
            hashed = view.db._hash_records is not None
            view = view.with_change_set(changes)
            # A base that had hashed hands its records on.
            assert (view.db._hash_records is not None) == hashed
            fresh = ProbabilisticDatabase(view.db.xtuples, name=view.db.name)
            assert view.db.content_hash() == fresh.content_hash()
            assert view.db.content_hash() == reference_content_hash(view.db)

    def test_replacements_and_removals_splice(self):
        db = generate_synthetic(num_xtuples=50, completion=0.7, seed=3)
        base = db.ranked()
        base.db.content_hash()
        xts = db.xtuples
        view = base.with_change_set(
            {xts[0].xid: None, xts[7].xid: xts[7].tids[1], xts[49].xid: None}
        )
        assert len(view.db._hash_records) == 48
        assert view.db.content_hash() == reference_content_hash(view.db)
        assert view.db.xtuple(xts[7].xid).is_certain
        assert not view.db.has_xtuple(xts[0].xid)


class TestPersistChecksTheCarriedSet:
    """``persist`` writes a delta only for a carried set that passes
    its O(change) checks; otherwise, or with no set, a full segment."""

    @pytest.fixture
    def chain(self, tmp_path):
        db = generate_synthetic(num_xtuples=40, completion=0.7, seed=8)
        base = db.ranked()
        xts = db.xtuples
        changes = {xts[3].xid: xts[3].tids[0], xts[5].xid: None}
        store = SnapshotStore(tmp_path / "store")
        store.persist("base", base)
        return store, base, base.with_change_set(changes), changes

    def test_the_carried_set_writes_a_delta(self, chain, tmp_path):
        store, _, outcome, changes = chain
        assert store.persist("out", outcome, base="base", changes=changes)
        assert schema_of(tmp_path / "store", "out") == 3
        reopened = SnapshotStore(tmp_path / "store", mode="readonly")
        assert reopened.recovery.quarantined == ()
        assert reopened.snapshots()["out"].db.content_hash() == (
            outcome.db.content_hash()
        )

    @pytest.mark.parametrize(
        "bad",
        ["no-set", "unknown-xid", "unknown-tid", "uncounted-null", "extra-null"],
    )
    def test_a_failed_check_writes_a_full_segment(self, chain, tmp_path, bad):
        store, base, outcome, changes = chain
        xts = base.db.xtuples
        carried: Optional[Dict[str, Optional[str]]] = dict(changes)
        if bad == "no-set":
            carried = None
        elif bad == "unknown-xid":
            carried["no-such-xtuple"] = None
        elif bad == "unknown-tid":
            carried[xts[3].xid] = "no-such-tuple"
        elif bad == "uncounted-null":
            carried[xts[5].xid] = xts[5].tids[0]
        else:
            carried[xts[9].xid] = None
        assert store.persist("out", outcome, base="base", changes=carried)
        assert schema_of(tmp_path / "store", "out") == 4
        reopened = SnapshotStore(tmp_path / "store", mode="readonly")
        assert reopened.snapshots()["out"].db.content_hash() == (
            outcome.db.content_hash()
        )


def test_planners_never_probe_a_certain_xtuple():
    """Fourteen chained cleans at completion 0.85 with every planner of
    the service but RandU, adaptive every third.  A fresh TP pass left
    float residue in a certain x-tuple's g(l, D), and adaptive RandP
    probed it (clean 8, ``X224``)."""
    service = TopKService()
    sid = service.register(
        generate_synthetic(num_xtuples=600, completion=0.85, seed=3)
    ).snapshot_id
    rng = random.Random(5)
    for index in range(14):
        spec = CleaningSpec(
            k=30,
            budget=20,
            planner=("greedy", "dp", "randp")[index % 3],
            adaptive=index % 3 == 2,
            seed=rng.randrange(2**31),
            cost_seed=rng.randrange(2**31),
            sc_seed=rng.randrange(2**31),
        )
        base = service.database(sid)
        payload = service.clean(sid, spec).payload
        collapsed = set()
        for probe in payload["probes"]:
            # Certain in the base, or collapsed by an earlier round.
            assert not base.xtuple(probe["xid"]).is_certain, (index, probe)
            assert probe["xid"] not in collapsed, (index, probe)
            if probe["succeeded"]:
                collapsed.add(probe["xid"])
        sid = payload["new_snapshot_id"]


#: The O(m) helpers the request path must not call.
WALKS = ("change_set", "generate_costs", "generate_sc_probabilities")


@pytest.fixture
def no_walks(monkeypatch):
    """Every ``repro`` module's binding of :data:`WALKS` raises."""
    from repro.datasets import synthetic
    from repro.db import database

    originals = {
        "change_set": database.change_set,
        "generate_costs": synthetic.generate_costs,
        "generate_sc_probabilities": synthetic.generate_sc_probabilities,
    }

    def forbidden(name):
        def walk(*args, **kwargs):
            raise AssertionError(f"{name} called on the request path")

        return walk

    patched = 0
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for name in WALKS:
            if getattr(module, name, None) is originals[name]:
                monkeypatch.setattr(module, name, forbidden(name))
                patched += 1
    assert patched >= len(WALKS)


def test_request_path_walks_no_database(tmp_path, no_walks):
    root = tmp_path / "store"
    service = open_service(root)
    sid = service.register(
        generate_synthetic(num_xtuples=200, completion=0.85, seed=1)
    ).snapshot_id
    greedy = service.clean(sid, CleaningSpec(k=10, budget=30, seed=2))
    first = greedy.payload["new_snapshot_id"]
    assert first != sid and schema_of(root, first) == 3
    adaptive = service.clean(
        first, CleaningSpec(k=10, budget=30, adaptive=True, seed=3)
    )
    second = adaptive.payload["new_snapshot_id"]
    assert second != first and schema_of(root, second) == 3
    plan = service.clean(
        second, CleaningSpec(k=10, budget=30, planner="dp", execute=False)
    )
    assert plan.payload["plan"]["operations"]
    # A crash lost the last outcome's segment: reopening replays its
    # schema-2 journal record.
    (root / "segments" / (second + SEGMENT_SUFFIX)).unlink()
    reopened = open_service(root)
    assert reopened.store.counters()["psr_store_replays"] == 1
    assert reopened.database(second).content_hash() == (
        service.database(second).content_hash()
    )
