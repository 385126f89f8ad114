"""Incremental delta engine: patched views and sessions vs cold rebuilds.

The delta machinery must be *indistinguishable* from recomputing from
scratch: the array-patched :class:`RankedDatabase` has to be bitwise
identical to a cold re-rank, and a delta-derived
:class:`~repro.queries.engine.QuerySession` has to agree with a cold
session to 1e-9 on rank probabilities, quality and all three query
answers -- under arbitrary chains of probe outcomes (collapse /
failure / revealed-null), on both backends.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning.adaptive import clean_adaptively
from repro.cleaning.executor import execute_plan
from repro.cleaning.greedy import GreedyCleaner
from repro.cleaning.model import build_cleaning_problem
from repro.core.tp import compute_quality_tp
from repro.datasets.synthetic import (
    generate_costs,
    generate_sc_probabilities,
    generate_synthetic,
)
from repro.db.database import ProbabilisticDatabase, RankedDatabase
from repro.queries.engine import QuerySession
from repro.queries.psr import (
    CHECKPOINT_INTERVAL,
    apply_rank_delta,
    compute_rank_probabilities,
)

from strategies import databases, ranked_rows_db

ABS = 1e-9

#: Probe outcomes a chain step can take (revealed-null only fires on
#: incomplete x-tuples; the strategy falls back to collapse otherwise).
OUTCOMES = ("collapse", "failure", "null")


def _assert_ranked_equal(patched: RankedDatabase, cold: RankedDatabase):
    assert np.array_equal(patched.scores_array, cold.scores_array)
    assert np.array_equal(patched.probabilities_array, cold.probabilities_array)
    assert np.array_equal(
        patched.xtuple_indices_array, cold.xtuple_indices_array
    )
    assert np.array_equal(patched.insertion_array, cold.insertion_array)
    assert np.array_equal(patched.completion_array, cold.completion_array)
    assert patched.xtuple_ids == cold.xtuple_ids
    assert [t.tid for t in patched.order] == [t.tid for t in cold.order]
    assert patched.position == cold.position


@st.composite
def probe_chains(draw, max_steps: int = 4):
    """A random database plus a chain of probe outcomes to apply."""
    db = draw(databases(max_xtuples=5, min_xtuples=2))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, 10 ** 6),  # x-tuple choice (mod live count)
                st.integers(0, 10 ** 6),  # alternative choice
                st.sampled_from(OUTCOMES),
            ),
            min_size=1,
            max_size=max_steps,
        )
    )
    k = draw(st.integers(1, min(db.num_tuples + 1, 6)))
    return db, steps, k


def _apply_chain_cold(db, steps):
    """The probe chain applied through the public cold constructors.

    Returns the list of databases after each *effective* step
    (failures keep the previous snapshot) together with the realized
    step descriptions for the delta side to mirror.
    """
    realized = []
    current = db
    for xt_choice, alt_choice, outcome in steps:
        if current.num_xtuples == 0:
            break
        xt = current.xtuples[xt_choice % current.num_xtuples]
        if outcome == "failure":
            realized.append(("failure", None, None))
            continue
        if outcome == "null" and not xt.is_complete:
            current = ProbabilisticDatabase(
                [x for x in current.xtuples if x.xid != xt.xid],
                name=current.name,
            )
            realized.append(("null", xt.xid, None))
            continue
        tid = xt.alternatives[alt_choice % len(xt.alternatives)].tid
        current = current.with_xtuple_replaced(xt.xid, xt.collapsed_to(tid))
        realized.append(("collapse", xt.xid, tid))
    return current, realized


class TestRankedPatching:
    @settings(max_examples=60, deadline=None)
    @given(probe_chains())
    def test_patched_view_matches_cold_rerank(self, chain):
        db, steps, _ = chain
        ranked = db.ranked()
        cold_db, realized = _apply_chain_cold(db, steps)
        for outcome, xid, tid in realized:
            if outcome == "failure":
                continue
            if outcome == "null":
                ranked, _ = ranked.with_xtuple_removed(xid)
            else:
                xt = ranked.db.xtuple(xid)
                ranked, _ = ranked.with_xtuple_replaced(
                    xid, xt.collapsed_to(tid)
                )
        _assert_ranked_equal(ranked, cold_db.ranked())

    def test_uncertain_single_alternative_replacement_not_collapsed(self):
        # Same tid/value but probability < 1: must take the general
        # path, not the collapse fast path that pins probability to 1.
        from repro.db.tuples import make_xtuple

        db = generate_synthetic(num_xtuples=20, seed=4)
        ranked = db.ranked()
        xt = db.xtuples[5]
        first = xt.alternatives[0]
        replacement = make_xtuple(xt.xid, [(first.tid, first.value, 0.6)])
        patched, _ = ranked.with_xtuple_replaced(xt.xid, replacement)
        cold = db.with_xtuple_replaced(xt.xid, replacement).ranked()
        _assert_ranked_equal(patched, cold)
        row = patched.rank_of(first.tid)
        assert patched.probabilities_array[row] == 0.6

    def test_general_replacement_with_new_tuples(self):
        # Not a collapse: the replacement brings fresh tids/values, so
        # the searchsorted insert path runs (ties included).
        from repro.db.tuples import make_xtuple

        db = generate_synthetic(num_xtuples=30, seed=1)
        ranked = db.ranked()
        xid = db.xtuples[7].xid
        replacement = make_xtuple(
            xid,
            [(f"{xid}.n0", 5000.0, 0.5), (f"{xid}.n1", 1.0, 0.5)],
        )
        patched, delta = ranked.with_xtuple_replaced(xid, replacement)
        cold = db.with_xtuple_replaced(xid, replacement).ranked()
        _assert_ranked_equal(patched, cold)
        assert delta.inserted_rows.size == 2

    def test_delta_window_bounds(self):
        db = generate_synthetic(num_xtuples=50, seed=2)
        ranked = db.ranked()
        xt = db.xtuples[20]
        patched, delta = ranked.with_xtuple_replaced(
            xt.xid, xt.collapsed_to(xt.alternatives[3].tid)
        )
        assert delta.window_start == int(delta.removed_rows[0])
        # Complete x-tuple + certain replacement: the scans re-coincide
        # right after the member span.
        assert delta.tail_old == int(delta.removed_rows[-1]) + 1
        assert delta.tail_new == delta.tail_old + delta.row_offset
        # Rows above the window and below the tail are untouched.
        n_new = patched.num_tuples
        assert np.array_equal(
            patched.scores_array[: delta.window_start],
            ranked.scores_array[: delta.window_start],
        )
        assert np.array_equal(
            patched.scores_array[delta.tail_new :],
            ranked.scores_array[delta.tail_old :],
        )

    def test_incomplete_xtuple_has_no_tail(self):
        db = generate_synthetic(num_xtuples=40, completion=0.8, seed=3)
        ranked = db.ranked()
        xt = db.xtuples[10]
        _, delta = ranked.with_xtuple_replaced(
            xt.xid, xt.collapsed_to(xt.alternatives[0].tid)
        )
        assert delta.tail_old is None and delta.tail_new is None
        _, removal = ranked.with_xtuple_removed(xt.xid)
        assert removal.tail_old is None
        assert removal.new_index is None
        assert removal.map_xtuple_index(removal.old_index + 1) == (
            removal.old_index
        )


class TestDeltaPSR:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @settings(max_examples=40, deadline=None)
    @given(probe_chains())
    def test_chained_deltas_match_cold_psr(self, backend, chain):
        db, steps, k = chain
        ranked = db.ranked()
        rank_probs = compute_rank_probabilities(ranked, k, backend=backend)
        _, realized = _apply_chain_cold(db, steps)
        for outcome, xid, tid in realized:
            if outcome == "failure":
                continue
            if outcome == "null":
                ranked, delta = ranked.with_xtuple_removed(xid)
            else:
                xt = ranked.db.xtuple(xid)
                ranked, delta = ranked.with_xtuple_replaced(
                    xid, xt.collapsed_to(tid)
                )
            rank_probs = apply_rank_delta(rank_probs, delta, backend=backend)
        cold = compute_rank_probabilities(ranked, k, backend=backend)
        assert rank_probs.cutoff == cold.cutoff
        assert rank_probs.topk_prefix == pytest.approx(
            cold.topk_prefix, abs=ABS
        )
        assert rank_probs.rho_prefix == pytest.approx(cold.rho_prefix, abs=ABS)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("completion", [1.0, 0.85])
    def test_checkpoint_restore_beyond_interval(self, backend, completion):
        # n >> CHECKPOINT_INTERVAL so the delta resumes mid-scan from a
        # stored checkpoint instead of replaying from the top.
        db = generate_synthetic(
            num_xtuples=60, completion=completion, seed=5
        )
        ranked = db.ranked()
        assert ranked.num_tuples > 2 * CHECKPOINT_INTERVAL
        k = 40
        rank_probs = compute_rank_probabilities(ranked, k, backend=backend)
        assert rank_probs.checkpoints  # recorded during the full pass
        rng = random.Random(11)
        for _ in range(4):
            xid = rng.choice(
                [x.xid for x in ranked.db.xtuples if len(x.alternatives) > 1]
            )
            xt = ranked.db.xtuple(xid)
            tid = rng.choice([t.tid for t in xt.alternatives])
            ranked, delta = ranked.with_xtuple_replaced(
                xid, xt.collapsed_to(tid)
            )
            rank_probs = apply_rank_delta(rank_probs, delta, backend=backend)
        cold = compute_rank_probabilities(ranked, k, backend=backend)
        assert rank_probs.cutoff == cold.cutoff
        assert rank_probs.topk_prefix == pytest.approx(
            cold.topk_prefix, abs=ABS
        )
        assert rank_probs.rho_prefix == pytest.approx(cold.rho_prefix, abs=ABS)

    @pytest.mark.parametrize("first_row", [128, 150])
    @pytest.mark.parametrize("mass", [0.5, 0.3])
    def test_window_start_on_and_off_a_block_boundary(self, first_row, mass):
        # The collapsed x-tuple's first member -- the window start --
        # sits on a block boundary (128) or mid-block (150).  Mass 0.5
        # completes the x-tuple (the window ends at a reusable tail);
        # 0.3 leaves it incomplete (the re-scan runs to the bottom).
        rows = [(f"f{i}", 0.3) for i in range(300)]
        rows[first_row] = rows[first_row + 40] = ("target", mass)
        db = ranked_rows_db(rows)
        ranked = db.ranked()
        k = 30
        rank_probs = compute_rank_probabilities(ranked, k, backend="numpy")
        xt = db.xtuple("target")
        patched_ranked, delta = ranked.with_xtuple_replaced(
            "target", xt.collapsed_to(xt.alternatives[1].tid)
        )
        assert delta.window_start == first_row
        assert (delta.tail_new is not None) == (mass == 0.5)
        patched = apply_rank_delta(rank_probs, delta, backend="numpy")
        cold = compute_rank_probabilities(
            patched_ranked, k, backend="python"
        )
        assert patched.cutoff == cold.cutoff
        assert patched.topk_prefix == pytest.approx(cold.topk_prefix, abs=ABS)
        assert patched.rho_prefix == pytest.approx(cold.rho_prefix, abs=ABS)

    def test_delta_from_foreign_view_rejected(self):
        db = generate_synthetic(num_xtuples=10, seed=6)
        ranked = db.ranked()
        other = db.ranked()
        rank_probs = compute_rank_probabilities(other, 5)
        xt = db.xtuples[0]
        _, delta = ranked.with_xtuple_replaced(
            xt.xid, xt.collapsed_to(xt.alternatives[0].tid)
        )
        with pytest.raises(ValueError):
            apply_rank_delta(rank_probs, delta)


class TestDeltaSessions:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @settings(max_examples=25, deadline=None)
    @given(probe_chains())
    def test_delta_sessions_match_cold_sessions(self, backend, chain):
        db, steps, k = chain
        session = QuerySession(db, backend=backend)
        session.quality(k)
        _, realized = _apply_chain_cold(db, steps)
        for outcome, xid, tid in realized:
            if outcome == "failure":
                continue
            if outcome == "null":
                new_ranked, delta = session.ranked.with_xtuple_removed(xid)
            else:
                xt = session.db.xtuple(xid)
                new_ranked, delta = session.ranked.with_xtuple_replaced(
                    xid, xt.collapsed_to(tid)
                )
            session = session.derive(new_ranked, delta=delta)
        cold = QuerySession(session.db, backend=backend)
        assert session.quality(k).quality == pytest.approx(
            cold.quality(k).quality, abs=ABS
        )
        patched_rp = session.rank_probabilities(k)
        cold_rp = cold.rank_probabilities(k)
        assert patched_rp.cutoff == cold_rp.cutoff
        assert patched_rp.topk_prefix == pytest.approx(
            cold_rp.topk_prefix, abs=ABS
        )
        assert patched_rp.rho_prefix == pytest.approx(
            cold_rp.rho_prefix, abs=ABS
        )
        # Answers compare by their defining probabilities, not by tids:
        # the two paths agree to 1e-9, and winners picked by exact
        # argmax / threshold comparisons may legitimately flip between
        # tuples whose values tie within that tolerance.
        mine_ranks = {
            w.rank: w.probability for w in session.ukranks(k).winners
        }
        theirs_ranks = {
            w.rank: w.probability for w in cold.ukranks(k).winners
        }
        for rank in set(mine_ranks) | set(theirs_ranks):
            assert mine_ranks.get(rank, 0.0) == pytest.approx(
                theirs_ranks.get(rank, 0.0), abs=ABS
            )
        threshold = 0.25
        mine_ptk = dict(session.ptk(k, threshold).members)
        theirs_ptk = dict(cold.ptk(k, threshold).members)
        for tid in set(mine_ptk).symmetric_difference(theirs_ptk):
            topk = mine_ptk.get(tid, theirs_ptk.get(tid))
            assert topk == pytest.approx(threshold, abs=ABS)
        assert [p for _, p in session.global_topk(k).members] == pytest.approx(
            [p for _, p in cold.global_topk(k).members], abs=ABS
        )
        assert session.g_by_xtuple(k) == pytest.approx(
            cold.g_by_xtuple(k), abs=ABS
        )

    def test_check_support_fires_on_cached_quality(self):
        from repro.db.tuples import make_xtuple
        from repro.exceptions import InvalidQueryError

        db = ProbabilisticDatabase(
            [
                make_xtuple("a", [("t1", 9.0, 0.5)]),
                make_xtuple("b", [("t2", 8.0, 0.5)]),
            ]
        )
        session = QuerySession(db)
        session.quality(2)  # seed the cache without the check
        with pytest.raises(InvalidQueryError):
            session.quality(2, check_support=True)

    def test_patched_view_rejects_duplicate_foreign_tid(self):
        from repro.db.tuples import make_xtuple
        from repro.exceptions import InvalidDatabaseError

        db = generate_synthetic(num_xtuples=5, seed=8)
        ranked = db.ranked()
        foreign_tid = db.xtuples[1].alternatives[0].tid
        replacement = make_xtuple(
            db.xtuples[0].xid, [(foreign_tid, 1.0, 0.4)]
        )
        with pytest.raises(InvalidDatabaseError):
            ranked.with_xtuple_replaced(db.xtuples[0].xid, replacement)

    def test_counters_accumulate_along_the_chain(self, udb1):
        session = QuerySession(udb1)
        session.quality(2)
        xt = udb1.xtuple("S3")
        new_ranked, delta = session.ranked.with_xtuple_replaced(
            "S3", xt.collapsed_to("t5")
        )
        derived = session.derive(new_ranked, delta=delta)
        assert derived.delta_derives == 1
        assert derived.psr_patches == 1
        assert derived.psr_misses == session.psr_misses == 1
        derived.quality(2)  # patched: no new full pass
        assert derived.psr_misses == 1
        cold = derived.derive(udb1)
        assert cold.cold_derives == 1
        assert cold.delta_derives == 1

    def test_derive_rejects_mismatched_delta(self, udb1):
        session = QuerySession(udb1)
        xt = udb1.xtuple("S3")
        new_ranked, delta = session.ranked.with_xtuple_replaced(
            "S3", xt.collapsed_to("t5")
        )
        other = QuerySession(udb1)
        with pytest.raises(ValueError):
            other.derive(new_ranked, delta=delta)
        unrelated = ProbabilisticDatabase(udb1.xtuples, name="copy")
        with pytest.raises(ValueError):
            session.derive(unrelated, delta=delta)


class TestCleaningDeltaPath:
    def _setup(self, completion=1.0, budget=12, m=40):
        db = generate_synthetic(num_xtuples=m, completion=completion, seed=9)
        costs = generate_costs(db, seed=1)
        sc = generate_sc_probabilities(db, seed=2)
        session = QuerySession(db)
        problem = build_cleaning_problem(
            session.quality(10), costs, sc, budget
        )
        return db, session, problem

    @pytest.mark.parametrize("completion", [1.0, 0.8])
    def test_executor_delta_path_matches_cold_path(self, completion):
        db, session, problem = self._setup(completion=completion)
        plan = GreedyCleaner().plan(problem)
        delta_outcome = execute_plan(
            db, problem, plan, rng=random.Random(4), session=session,
            use_deltas=True,
        )
        cold_outcome = execute_plan(
            db, problem, plan, rng=random.Random(4), session=None
        )
        # Identical rng stream => identical probe records and content.
        assert delta_outcome.records == cold_outcome.records
        assert delta_outcome.cost_spent == cold_outcome.cost_spent
        assert [xt.xid for xt in delta_outcome.cleaned_db.xtuples] == [
            xt.xid for xt in cold_outcome.cleaned_db.xtuples
        ]
        assert delta_outcome.session is not None
        assert delta_outcome.session.db is delta_outcome.cleaned_db
        quality = delta_outcome.session.quality(10).quality
        cold_quality = compute_quality_tp(
            cold_outcome.cleaned_db.ranked(), 10
        ).quality
        assert quality == pytest.approx(cold_quality, abs=ABS)
        if delta_outcome.num_succeeded:
            assert delta_outcome.session.psr_patches > 0

    def test_foreign_session_falls_back_to_cold_derive(self):
        # A session over a different database must not hijack the delta
        # path; probes apply to ``db`` and the outcome session derives
        # cold, exactly as before the incremental engine.
        db, _, problem = self._setup()
        other_db = ProbabilisticDatabase(db.xtuples, name="twin")
        foreign = QuerySession(other_db)
        plan = GreedyCleaner().plan(problem)
        outcome = execute_plan(
            db, problem, plan, rng=random.Random(4), session=foreign,
            use_deltas=True,
        )
        baseline = execute_plan(db, problem, plan, rng=random.Random(4))
        assert outcome.records == baseline.records
        assert outcome.session is not None
        assert outcome.session.db is outcome.cleaned_db
        assert outcome.session.psr_patches == 0

    def test_adaptive_delta_run_is_one_full_pass(self):
        db, session, problem = self._setup(budget=15)
        result = clean_adaptively(
            db,
            problem,
            GreedyCleaner(),
            rng=random.Random(7),
            session=session,
            use_deltas=True,
        )
        assert result.session is not None
        # One full PSR pass for the whole run; every successful probe
        # shows up as a patch instead.
        assert result.session.psr_misses == 1
        succeeded = sum(r.outcome.num_succeeded for r in result.rounds)
        assert result.session.psr_patches == succeeded
        cold = compute_quality_tp(result.final_db.ranked(), 10).quality
        assert result.final_quality == pytest.approx(cold, abs=ABS)

    def test_adaptive_delta_and_cold_agree(self):
        db, session, problem = self._setup(budget=15)
        delta_run = clean_adaptively(
            db, problem, GreedyCleaner(), rng=random.Random(3),
            session=session, use_deltas=True,
        )
        db2, session2, problem2 = self._setup(budget=15)
        cold_run = clean_adaptively(
            db2, problem2, GreedyCleaner(), rng=random.Random(3),
            session=session2, use_deltas=False,
        )
        assert len(delta_run.rounds) == len(cold_run.rounds)
        assert delta_run.budget_spent == cold_run.budget_spent
        assert delta_run.final_quality == pytest.approx(
            cold_run.final_quality, abs=ABS
        )
        assert cold_run.session.psr_misses > delta_run.session.psr_misses

    def test_runs_reproducible_under_seeded_rng(self):
        db, session, problem = self._setup(budget=15)
        first = clean_adaptively(
            db, problem, GreedyCleaner(), rng=random.Random(21),
            session=session, use_deltas=True,
        )
        db2, session2, problem2 = self._setup(budget=15)
        second = clean_adaptively(
            db2, problem2, GreedyCleaner(), rng=random.Random(21),
            session=session2, use_deltas=True,
        )
        assert [r.outcome.records for r in first.rounds] == [
            r.outcome.records for r in second.rounds
        ]
        assert first.final_quality == second.final_quality
