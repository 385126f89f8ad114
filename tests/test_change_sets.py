"""One delta per cleaning round: change sets against cold rebuilds.

A cleaning round applies every successful probe of its plan as one
change set (``{xid: replacement or None}``) through
:meth:`RankedDatabase.with_xtuples_changed`.  The patched view must be
bitwise the cold rank of the changed database -- a store reopen
compares persisted columns bitwise.  A session derived through the one
delta carries a cached pass exactly when its scan ended at or above
the first changed row, runs a fresh pass for every other ``k``, and
agrees with a cold session to within 1e-9 either way.  The executor
must derive once per round that changed the database, and its outcomes
(snapshot ids) must not move.
"""

import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pool import snapshot_id_of
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec
from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.model import build_cleaning_problem
from repro.core.tp import compute_quality_tp, patch_quality_tp
from repro.datasets.synthetic import (
    generate_costs,
    generate_sc_probabilities,
    generate_synthetic,
)
from repro.db.database import (
    ProbabilisticDatabase,
    RankedDatabase,
    _OrderPatch,
    change_set,
)
from repro.db.io import database_from_dict, database_to_dict
from repro.db.ranking import by_key, by_sum_of_keys, by_value
from repro.db.tuples import make_xtuple
from repro.exceptions import InvalidDatabaseError
from repro.queries.engine import QuerySession
from repro.queries.psr import (
    TAIL_EPSILON,
    apply_rank_delta,
    compute_rank_probabilities,
    tail_stop,
)
from repro.queries.psr_numpy import BLOCK_ROWS
from repro.store import SnapshotStore
from repro.store.store import MAX_DELTA_DEPTH

from strategies import databases

ABS = 1e-9
BACKENDS = ("numpy", "python")

#: Outcome snapshot ids of ``TopKService.clean`` (k = 10, budget 30,
#: seed = database seed) computed before change sets replaced the
#: per-probe derive chain; keys are ``completion/seed/planner/adaptive``.
PINNED_IDS = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "clean_outcome_ids.json")
    .read_text()
)


def _cold(db, changes):
    """The changed database, built x-tuple by x-tuple."""
    kept = [changes.get(xt.xid, xt) for xt in db.xtuples]
    return ProbabilisticDatabase([xt for xt in kept if xt is not None])


def _assert_ranked_bitwise(patched: RankedDatabase, cold: RankedDatabase):
    for column in (
        "scores_array",
        "insertion_array",
        "xtuple_indices_array",
        "probabilities_array",
        "completion_array",
    ):
        a, b = getattr(patched, column), getattr(cold, column)
        assert a.dtype == b.dtype, column
        assert a.tobytes() == b.tobytes(), column
    assert patched.xtuple_ids == cold.xtuple_ids
    assert [t.tid for t in patched.order] == [t.tid for t in cold.order]
    assert patched.db.content_hash() == cold.db.content_hash()


def _members(draw, xid, fresh_prefix, own, complete):
    """A multi-member replacement: some own tids, some fresh ones."""
    keep = draw(st.lists(st.sampled_from(own), unique=True, max_size=len(own)))
    fresh = draw(st.integers(0 if keep else 1, 3))
    tids = list(keep) + [f"{fresh_prefix}{j}" for j in range(fresh)]
    weights = draw(st.lists(st.integers(1, 8), min_size=len(tids), max_size=len(tids)))
    total = sum(weights) + (0 if complete else draw(st.integers(1, 8)))
    return make_xtuple(
        xid,
        [
            (tid, float(draw(st.integers(0, 12))), w / total)
            for tid, w in zip(tids, weights)
        ],
    )


@st.composite
def change_sets(draw):
    """A random database, a random change set over it and a k."""
    db = draw(
        databases(
            max_xtuples=6,
            max_alternatives=4,
            complete=draw(st.sampled_from([None, True, False])),
        )
    )
    picks = draw(
        st.lists(
            st.integers(0, db.num_xtuples - 1),
            unique=True,
            min_size=1,
            max_size=db.num_xtuples,
        )
    )
    changes = {}
    for l in picks:
        xt = db.xtuples[l]
        kind = draw(st.sampled_from(["collapse", "fresh", "multi", "remove"]))
        if kind == "collapse":
            changes[xt.xid] = xt.collapsed_to(draw(st.sampled_from(xt.tids)))
        elif kind == "fresh":
            changes[xt.xid] = make_xtuple(
                xt.xid, [(f"{xt.xid}.new", float(draw(st.integers(0, 12))), 1.0)]
            )
        elif kind == "multi":
            changes[xt.xid] = _members(
                draw, xt.xid, f"{xt.xid}.n", list(xt.tids), draw(st.booleans())
            )
        else:
            changes[xt.xid] = None
    k = draw(st.integers(1, min(db.num_tuples + 1, 6)))
    return db, changes, k


def _assert_rank_probabilities_close(patched, cold):
    assert patched.cutoff == cold.cutoff
    assert patched.topk_prefix == pytest.approx(cold.topk_prefix, abs=ABS)
    assert patched.rho_prefix == pytest.approx(cold.rho_prefix, abs=ABS)


class TestChangeSets:
    @settings(max_examples=80, deadline=None)
    @given(change_sets())
    def test_change_set_matches_cold_rank_and_passes(self, case):
        db, changes, k = case
        ranked = db.ranked()
        new_ranked, delta = ranked.with_xtuples_changed(changes)
        cold_db = _cold(db, changes)
        cold_ranked = cold_db.ranked()
        _assert_ranked_bitwise(new_ranked, cold_ranked)
        assert db.with_xtuples_changed(changes).content_hash() == (
            cold_db.content_hash()
        )

        cold_rps = {
            b: compute_rank_probabilities(cold_ranked, k, backend=b)
            for b in BACKENDS
        }
        cold_quality = {
            b: compute_quality_tp(
                cold_ranked, k, rank_probabilities=cold_rps[b], backend=b
            )
            for b in BACKENDS
        }
        for backend in BACKENDS:
            old_rp = compute_rank_probabilities(ranked, k, backend=backend)
            carried = apply_rank_delta(old_rp, delta)
            assert (carried is None) == (old_rp.cutoff > delta.window_start)
            if carried is None:
                continue
            old_quality = compute_quality_tp(
                ranked, k, rank_probabilities=old_rp, backend=backend
            )
            quality = patch_quality_tp(old_quality, carried)
            assert quality.rank_probabilities is carried
            for cold_backend in BACKENDS:
                _assert_rank_probabilities_close(carried, cold_rps[cold_backend])
                expected = cold_quality[cold_backend]
                assert quality.quality == pytest.approx(
                    expected.quality, abs=ABS
                )
                assert quality.g_by_xtuple() == pytest.approx(
                    expected.g_by_xtuple(), abs=ABS
                )

    @settings(max_examples=40, deadline=None)
    @given(databases(max_xtuples=5, min_xtuples=2), st.data())
    def test_unknown_xid_and_foreign_tid_are_rejected(self, db, data):
        ranked = db.ranked()
        owner, other = data.draw(
            st.lists(
                st.sampled_from(db.xtuples), min_size=2, max_size=2, unique=True
            )
        )
        with pytest.raises(InvalidDatabaseError):
            ranked.with_xtuples_changed({"no-such-xtuple": None})
        foreign = data.draw(st.sampled_from(other.tids))
        replacement = make_xtuple(owner.xid, [(foreign, 1.0, 0.5)])
        with pytest.raises(InvalidDatabaseError):
            ranked.with_xtuples_changed({owner.xid: replacement})
        # The cold constructor agrees.
        with pytest.raises(InvalidDatabaseError):
            _cold(db, {owner.xid: replacement})

    @pytest.mark.parametrize("completion", [1.0, 0.85])
    def test_mixed_change_set_patches_from_a_checkpoint(self, completion):
        # The change set starts two blocks down, inside the cached pass,
        # and removals renumber the dense indices above them: the
        # derived session drops the pass and its fresh one matches a
        # cold pass by either kernel.
        db = generate_synthetic(num_xtuples=80, completion=completion, seed=5)
        session = QuerySession(db)
        k = 40
        old_rp = session.rank_probabilities(k)
        ranked = session.ranked
        first_row = {}
        for row, l in enumerate(ranked.xtuple_indices_array.tolist()):
            first_row.setdefault(l, row)
        deep = [
            db.xtuples[l]
            for l, row in sorted(first_row.items())
            if 2 * BLOCK_ROWS <= row < old_rp.cutoff
        ]
        rng = random.Random(3)
        changes = {}
        for xt in rng.sample(deep, 8):
            if not xt.is_complete and rng.random() < 0.5:
                changes[xt.xid] = None
            else:
                changes[xt.xid] = xt.collapsed_to(rng.choice(xt.tids))
        new_ranked, delta = ranked.with_xtuples_changed(changes)
        _assert_ranked_bitwise(new_ranked, _cold(db, changes).ranked())
        assert 2 * BLOCK_ROWS <= delta.window_start < old_rp.cutoff
        assert len(new_ranked.xtuple_ids) == len(db.xtuples) - (
            0 if completion == 1.0 else 3
        )
        derived = session.derive(new_ranked, delta=delta)
        patched = derived.rank_probabilities(k)
        assert (derived.psr_patches, derived.psr_misses) == (0, 2)
        for backend in BACKENDS:
            _assert_rank_probabilities_close(
                patched,
                compute_rank_probabilities(new_ranked, k, backend=backend),
            )


def _xtuples_placed(ranked, cutoff, placement):
    """X-tuples of ``ranked`` wholly above row ``cutoff``, straddling
    it, or wholly at or below it."""
    rows = ranked.xtuple_indices_array
    first = np.full(ranked.num_xtuples, rows.size)
    last = np.full(ranked.num_xtuples, -1)
    np.minimum.at(first, rows, np.arange(rows.size))
    np.maximum.at(last, rows, np.arange(rows.size))
    chosen = {
        "above": last < cutoff,
        "straddle": (first < cutoff) & (last >= cutoff),
        "below": first >= cutoff,
    }[placement]
    return [ranked.db.xtuples[l] for l in np.flatnonzero(chosen)]


@st.composite
def carry_cases(draw):
    """A database, two cached ``k`` (the smaller one prefilled from the
    larger pass) and a change set placed above, across or below the
    larger pass's stop."""
    if draw(st.booleans()):
        db = draw(databases(max_xtuples=8, max_alternatives=4))
    else:
        # Large enough for the certified tail stop to end a pass early
        # on incomplete data.
        db = generate_synthetic(
            num_xtuples=draw(st.integers(90, 150)),
            completion=draw(st.sampled_from([1.0, 0.85])),
            seed=draw(st.integers(0, 50)),
        )
    k = draw(st.integers(2, 8))
    k_small = draw(st.integers(1, k - 1))
    placement = draw(st.sampled_from(["above", "straddle", "below"]))
    return db, k, k_small, placement


def _assert_sessions_agree(mine, theirs, k):
    """Answers, quality and ``g(l, D)`` within 1e-9.  Winners compare by
    their defining probabilities: a tie within the tolerance may pick
    different tuples."""
    assert mine.quality(k).quality == pytest.approx(
        theirs.quality(k).quality, abs=ABS
    )
    assert mine.g_by_xtuple(k) == pytest.approx(theirs.g_by_xtuple(k), abs=ABS)
    ranks = [
        {w.rank: w.probability for w in session.ukranks(k).winners}
        for session in (mine, theirs)
    ]
    for rank in set(ranks[0]) | set(ranks[1]):
        assert ranks[0].get(rank, 0.0) == pytest.approx(
            ranks[1].get(rank, 0.0), abs=ABS
        )
    threshold = 0.25
    members = [dict(session.ptk(k, threshold).members) for session in (mine, theirs)]
    for tid in set(members[0]) | set(members[1]):
        present = [m[tid] for m in members if tid in m]
        if len(present) == 1:  # in one answer only: a tie at the threshold
            assert present[0] == pytest.approx(threshold, abs=ABS)
        else:
            assert present[0] == pytest.approx(present[1], abs=ABS)
    assert [p for _, p in mine.global_topk(k).members] == pytest.approx(
        [p for _, p in theirs.global_topk(k).members], abs=ABS
    )


class TestCarryRule:
    @settings(max_examples=60, deadline=None)
    @given(carry_cases(), st.data())
    def test_derived_session_carries_exactly_what_still_holds(self, case, data):
        db, k, k_small, placement = case
        session = QuerySession(db)
        session.prefill([k_small, k])
        session.quality(k)
        if data.draw(st.booleans(), label="quality at k_small"):
            session.quality(k_small)
        cutoff = session.rank_probabilities(k).cutoff
        assert session.rank_probabilities(k_small).cutoff == cutoff
        candidates = _xtuples_placed(session.ranked, cutoff, placement)
        if not candidates:
            candidates = list(db.xtuples)
        picks = data.draw(
            st.lists(
                st.sampled_from(candidates),
                min_size=1,
                max_size=min(3, len(candidates)),
                unique_by=lambda xt: xt.xid,
            ),
            label="changed x-tuples",
        )
        changes = {}
        for xt in picks:
            survivors = db.num_xtuples - sum(v is None for v in changes.values())
            options = list(xt.tids) + ([None] if survivors > 1 else [])
            tid = data.draw(st.sampled_from(options), label=xt.xid)
            changes[xt.xid] = None if tid is None else xt.collapsed_to(tid)
        new_ranked, delta = session.ranked.with_xtuples_changed(changes)
        below = _xtuples_placed(session.ranked, cutoff, "below")
        carries = cutoff <= delta.window_start
        assert carries == all(xt in below for xt in picks)

        derived = session.derive(new_ranked, delta=delta)
        assert derived.psr_patches == (2 if carries else 0)
        for kk in (k_small, k):
            misses = derived.psr_misses
            derived.rank_probabilities(kk)
            assert (derived.psr_misses == misses) == carries
        cold = QuerySession(new_ranked)
        for kk in (k_small, k):
            _assert_sessions_agree(derived, cold, kk)


@st.composite
def cleaning_chains(draw):
    """A random database, a ranking for its values, and a chain of
    change sets -- each collapsing or removing some x-tuples of the
    previous link, as cleaning rounds do."""
    values = draw(st.sampled_from(["float", "mapping"]))
    db = draw(databases(max_xtuples=6, max_alternatives=4, values=values))
    ranking = (
        by_value()
        if values == "float"
        else draw(st.sampled_from([by_key("a"), by_sum_of_keys("a", "b")]))
    )
    steps = []
    current = db
    for _ in range(draw(st.integers(1, MAX_DELTA_DEPTH + 2))):
        xtuples = current.xtuples
        picks = draw(
            st.lists(
                st.integers(0, len(xtuples) - 1),
                unique=True,
                max_size=len(xtuples),
            )
        )
        changes = {}
        for l in picks:
            xt = xtuples[l]
            # Keep at least one x-tuple: removals only beside survivors.
            removable = len(xtuples) - sum(v is None for v in changes.values()) > 1
            options = list(xt.tids) + ([None] if removable else [])
            changes[xt.xid] = draw(st.sampled_from(options))
        steps.append(changes)
        current = RankedDatabase(current, ranking).with_change_set(changes).db
    return db, ranking, steps


class TestDurableChangeSets:
    @settings(max_examples=40, deadline=None)
    @given(cleaning_chains())
    def test_reopened_delta_chain_is_bitwise_cold(self, case):
        db, ranking, steps = case
        views = [RankedDatabase(db, ranking)]
        for changes in steps:
            views.append(views[-1].with_change_set(changes))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "store"
            store = SnapshotStore(root, durability="none")
            ids = []
            for view in views:
                sid = snapshot_id_of(view.db)
                store.persist(sid, view, base=ids[-1] if ids else None)
                if ids:
                    # The change set round-trips against the base.
                    base = store.snapshots()[ids[-1]]
                    assert base.with_change_set(
                        change_set(base.db, view.db)
                    ).db.content_hash() == view.db.content_hash()
                ids.append(sid)
            reopened = SnapshotStore(root, mode="readonly")
            assert reopened.recovery.quarantined == ()
            loaded = reopened.snapshots()
            for sid, view in zip(ids, views):
                # Fresh x-tuples, no memo shared with the chain.
                cold = RankedDatabase(
                    database_from_dict(database_to_dict(view.db)), ranking
                )
                _assert_ranked_bitwise(loaded[sid], cold)
            status = reopened.status()
            assert status["full_segments"] + status["delta_segments"] == len(
                set(ids)
            )
            assert status["full_segments"] >= 1


class TestDeferredOrder:
    def test_length_reads_keep_the_order_deferred(self):
        db = generate_synthetic(num_xtuples=200, completion=0.85, seed=1)
        ranked = db.ranked()
        xt = db.xtuples[3]
        patched, _ = ranked.with_xtuple_replaced(
            xt.xid, xt.collapsed_to(xt.alternatives[0].tid)
        )
        assert isinstance(patched._order_state, _OrderPatch)
        stop = tail_stop(patched, 10, TAIL_EPSILON)
        assert len(patched) == patched.num_tuples == ranked.num_tuples - (
            len(xt.alternatives) - 1
        )
        assert stop <= patched.num_tuples
        assert isinstance(patched._order_state, _OrderPatch)


class TestOneDeltaPerRound:
    def _problem(self, session, budget):
        db = session.db
        costs = generate_costs(db, seed=1)
        sc = generate_sc_probabilities(db, seed=2)
        return build_cleaning_problem(session.quality(10), costs, sc, budget)

    def test_one_derive_per_round_that_changed_the_database(self):
        db = generate_synthetic(num_xtuples=60, completion=0.85, seed=9)
        session = QuerySession(db)
        session.prefill([5, 10])  # two cached k values
        problem = self._problem(session, budget=150)
        result = clean_adaptively(
            db, problem, GreedyCleaner(), rng=random.Random(7), session=session
        )
        changed = sum(1 for r in result.rounds if r.outcome.num_succeeded)
        succeeded = sum(r.outcome.num_succeeded for r in result.rounds)
        # Several changed rounds, one that changed nothing, and rounds
        # with several successful probes (one derive per probe would
        # read differently).  Each changed round changed rows inside
        # the cached passes, so it carried neither k and the next read
        # of k=10 ran one fresh pass.
        assert len(result.rounds) > changed > 1
        assert succeeded > changed
        assert result.session.delta_derives == changed
        assert result.session.psr_patches == 0
        assert result.session.cold_derives == 0
        assert result.session.psr_misses == 1 + changed

    def test_service_clean_reports_one_derive(self):
        db = generate_synthetic(num_xtuples=60, seed=4)
        service = TopKService()
        sid = service.register(db).snapshot_id
        result = service.clean(sid, CleaningSpec(k=10, budget=60, seed=1))
        succeeded = sum(p["succeeded"] for p in result.payload["probes"])
        assert succeeded > 1
        assert result.counters["delta_derives"] == 1
        assert result.counters["cold_derives"] == 0


@pytest.mark.parametrize("completion", [1.0, 0.85])
def test_clean_outcome_ids_are_pinned(completion):
    for seed in range(10):
        db = generate_synthetic(num_xtuples=300, completion=completion, seed=seed)
        service = TopKService()
        sid = service.register(db).snapshot_id
        for planner in ("greedy", "dp"):
            for adaptive in (False, True):
                spec = CleaningSpec(
                    k=10, budget=30, planner=planner, adaptive=adaptive,
                    seed=seed,
                )
                key = f"{completion}/{seed}/{planner}/{int(adaptive)}"
                new_sid = service.clean(sid, spec).payload["new_snapshot_id"]
                assert new_sid == PINNED_IDS[key], key
                assert new_sid != sid
