"""Incremental delta engine: patched views and sessions vs cold rebuilds.

The delta machinery must be *indistinguishable* from recomputing from
scratch: the array-patched :class:`RankedDatabase` has to be bitwise
identical to a cold re-rank, and a delta-derived
:class:`~repro.queries.engine.QuerySession` has to agree with a cold
session to 1e-9 on rank probabilities, quality and all three query
answers -- under arbitrary chains of probe outcomes (collapse /
failure / revealed-null).  A derived session carries a cached pass only
when its scan ended at or above the first changed row, and otherwise
runs one fresh pass on the patched view; the ``[python]`` cases run
the scalar oracle on both sides.
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
from repro.queries import engine
from repro.queries.engine import QuerySession
from repro.queries.psr import (
    TAIL_EPSILON,
    apply_rank_delta,
    compute_rank_probabilities,
    tail_stop,
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
        # Same tid/value but probability < 1: the patched row must keep
        # 0.6, not the 1.0 of a collapse to that alternative.
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
        # The first changed row: an old member's row or a new member's.
        old_rows = np.flatnonzero(
            ranked.xtuple_indices_array == ranked.xtuple_index_of(xid)
        )
        new_rows = [patched.rank_of(f"{xid}.n{j}") for j in range(2)]
        assert delta.window_start == min(int(old_rows[0]), *new_rows)

    def test_delta_window_bounds(self):
        db = generate_synthetic(num_xtuples=50, seed=2)
        ranked = db.ranked()
        xt = db.xtuples[20]
        patched, delta = ranked.with_xtuple_replaced(
            xt.xid, xt.collapsed_to(xt.alternatives[3].tid)
        )
        members = np.flatnonzero(
            ranked.xtuple_indices_array == ranked.xtuple_index_of(xt.xid)
        )
        assert delta.window_start == int(members[0])
        # Rows above the window and below the member span are untouched;
        # the collapse keeps one of the x-tuple's rows.
        below = int(members[-1]) + 1
        offset = 1 - members.size
        assert np.array_equal(
            patched.scores_array[: delta.window_start],
            ranked.scores_array[: delta.window_start],
        )
        assert np.array_equal(
            patched.scores_array[below + offset :],
            ranked.scores_array[below:],
        )

    def test_incomplete_xtuple_has_no_tail(self):
        # A replaced x-tuple keeps its dense index; a removed one shifts
        # every index above it down by one, exactly as a cold rank of
        # the smaller database numbers them.
        db = generate_synthetic(num_xtuples=40, completion=0.8, seed=3)
        ranked = db.ranked()
        xt = db.xtuples[10]
        old_index = ranked.xtuple_index_of(xt.xid)
        replacement = xt.collapsed_to(xt.alternatives[0].tid)
        replaced, _ = ranked.with_xtuple_replaced(xt.xid, replacement)
        _assert_ranked_equal(
            replaced, db.with_xtuple_replaced(xt.xid, replacement).ranked()
        )
        assert replaced.xtuple_index_of(xt.xid) == old_index
        removed, _ = ranked.with_xtuple_removed(xt.xid)
        _assert_ranked_equal(
            removed,
            ProbabilisticDatabase(
                [x for x in db.xtuples if x.xid != xt.xid], name=db.name
            ).ranked(),
        )
        after = db.xtuples[old_index + 1].xid
        assert removed.xtuple_index_of(after) == old_index


class TestDeltaPSR:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @settings(max_examples=40, deadline=None)
    @given(probe_chains())
    def test_chained_deltas_match_cold_psr(self, backend, chain):
        # Each step carries the pass exactly when its scan ended at or
        # above the first changed row; a carried pass is the patched
        # view's cold pass, and any other is replaced by one.
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
            carried = apply_rank_delta(rank_probs, delta)
            cold = compute_rank_probabilities(ranked, k, backend=backend)
            assert (carried is None) == (rank_probs.cutoff > delta.window_start)
            if carried is not None:
                assert carried.ranked is ranked
                assert carried.backend == backend
                assert carried.cutoff == cold.cutoff
                assert carried.topk_prefix == pytest.approx(
                    cold.topk_prefix, abs=ABS
                )
                assert carried.rho_prefix == pytest.approx(
                    cold.rho_prefix, abs=ABS
                )
            rank_probs = cold

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


def _assert_derived_matches_cold(old_rp, delta, backend):
    """Derive a session holding ``old_rp``'s pass and its quality
    through ``delta``; its pass, quality and answers must equal a cold
    session's.  Returns the derived session and its pass."""
    k = old_rp.k
    session = QuerySession(old_rp.ranked, backend=backend)
    session.quality(k)
    derived = session.derive(delta.new_ranked, delta=delta)
    cold = QuerySession(delta.new_ranked, backend=backend)
    patched = derived.rank_probabilities(k)
    cold_rp = cold.rank_probabilities(k)
    assert patched.cutoff == cold_rp.cutoff
    assert patched.topk_prefix == pytest.approx(cold_rp.topk_prefix, abs=ABS)
    assert patched.rho_prefix == pytest.approx(cold_rp.rho_prefix, abs=ABS)
    assert derived.quality(k).quality == pytest.approx(
        cold.quality(k).quality, abs=ABS
    )
    assert derived.ukranks(k) == cold.ukranks(k)
    assert derived.ptk(k, 0.1) == cold.ptk(k, 0.1)
    assert derived.global_topk(k) == cold.global_topk(k)
    return derived, patched


def _target_rows(rows_at, masses, filler=0.3, n=400):
    """``n`` singleton rows of mass ``filler``, with x-tuple ``target``
    at the given rows with the given masses."""
    rows = [(f"f{i}", filler) for i in range(n)]
    for row, mass in zip(rows_at, masses):
        rows[row] = ("target", mass)
    return rows


@pytest.mark.parametrize("backend", ["numpy", "python"])
class TestTailStopDeltas:
    """A probe moves the certified tail stop; a derived session follows it.

    400 singleton rows of mass 0.3 put the stop at row 274 for k = 5
    (μ* ≈ 81.99), far above the bottom row.  The derived session's
    cutoff and answers must equal a cold session's.
    """

    K = 5

    def _pass(self, rows, backend):
        ranked = ranked_rows_db(rows).ranked()
        old_rp = compute_rank_probabilities(ranked, self.K, backend=backend)
        assert old_rp.cutoff == tail_stop(ranked, self.K, TAIL_EPSILON)
        return ranked, old_rp

    def test_collapse_above_the_stop_moves_it_up(self, backend):
        ranked, old_rp = self._pass(_target_rows((20, 60), (0.3, 0.3)), backend)
        xt = ranked.db.xtuple("target")
        _, delta = ranked.with_xtuple_replaced(
            "target", xt.collapsed_to(xt.alternatives[0].tid)
        )
        _, patched = _assert_derived_matches_cold(old_rp, delta, backend)
        assert patched.cutoff < old_rp.cutoff

    def test_null_reveal_moves_it_down_past_the_old_cutoff(self, backend):
        ranked, old_rp = self._pass(_target_rows((20, 60), (0.4, 0.5)), backend)
        _, delta = ranked.with_xtuple_removed("target")
        derived, patched = _assert_derived_matches_cold(old_rp, delta, backend)
        assert patched.cutoff > old_rp.cutoff
        # The change lies inside the cached pass: nothing carried, and
        # the derived session ran one fresh pass after the base's.
        assert (derived.psr_patches, derived.psr_misses) == (0, 2)

    def test_window_below_the_stop_scans_nothing(self, backend, monkeypatch):
        ranked, old_rp = self._pass(
            _target_rows((300, 350), (0.3, 0.3)), backend
        )
        xt = ranked.db.xtuple("target")
        _, delta = ranked.with_xtuple_replaced(
            "target", xt.collapsed_to(xt.alternatives[1].tid)
        )
        assert delta.window_start >= old_rp.cutoff

        def no_kernel(*args, **kwargs):
            raise AssertionError("a change below the stop ran a pass")

        session = QuerySession(ranked, backend=backend)
        cached = session.rank_probabilities(self.K)
        session.quality(self.K)
        monkeypatch.setattr(engine, "compute_rank_probabilities", no_kernel)
        monkeypatch.setattr(engine, "compute_quality_tp", no_kernel)
        derived = session.derive(delta.new_ranked, delta=delta)
        patched = derived.rank_probabilities(self.K)
        derived.quality(self.K)
        monkeypatch.undo()
        assert (derived.psr_patches, derived.psr_misses) == (1, 1)
        assert patched.ranked is delta.new_ranked
        assert patched._rho_state is cached._rho_state
        assert patched.topk_prefix is cached.topk_prefix
        _assert_derived_matches_cold(old_rp, delta, backend)

    def test_new_stop_above_the_reusable_tail(self, backend):
        # The collapse completes the x-tuple at row 10, so every row
        # below gains 0.7 of mass above it: the stop moves from 273 to
        # 271, above the old member at row 272.  The window must end at
        # the new stop.
        ranked, old_rp = self._pass(_target_rows((10, 272), (0.3, 0.7)), backend)
        assert old_rp.cutoff == 273
        xt = ranked.db.xtuple("target")
        _, delta = ranked.with_xtuple_replaced(
            "target", xt.collapsed_to(xt.alternatives[0].tid)
        )
        _, patched = _assert_derived_matches_cold(old_rp, delta, backend)
        assert patched.cutoff == 271

    def _near_tie(self, masses, row_from_stop, excess):
        """Rows with ``target`` at rows 5 and 10 whose mass above row
        ``stop - row_from_stop`` is μ* + ``excess``, and that stop."""
        rows = _target_rows((5, 10), masses)
        ranked = ranked_rows_db(rows).ranked()
        stop = tail_stop(ranked, self.K, TAIL_EPSILON)
        row = stop - row_from_stop
        log_term = np.log(self.K / TAIL_EPSILON)
        threshold = self.K + log_term + np.sqrt(log_term * (log_term + 2 * self.K))
        above = np.cumsum(ranked.probabilities_array)[row - 1]
        rows[row - 1] = ("last", 0.3 + (threshold + excess - above))
        return rows, stop

    def _replace_second_member(self, ranked, mass):
        from repro.db.tuples import make_xtuple

        members = [
            (t.tid, t.value, t.probability)
            for t in ranked.db.xtuple("target").alternatives
        ]
        members[1] = (members[1][0], members[1][1], mass)
        _, delta = ranked.with_xtuple_replaced(
            "target", make_xtuple("target", members)
        )
        assert delta.new_ranked.num_tuples == ranked.num_tuples
        return delta

    def test_new_stop_below_the_rows_the_old_pass_kept(self, backend):
        # The stop row's mass sits 2e-13 above μ*.  A replacement that
        # still saturates but holds 5e-13 less mass moves the stop one
        # row down: the old pass stopped one row short of what the
        # patched view needs.
        rows, stop = self._near_tie((0.5, 0.5), 0, 2e-13)
        ranked, old_rp = self._pass(rows, backend)
        assert old_rp.cutoff == stop
        delta = self._replace_second_member(ranked, 0.5 - 5e-13)
        _, patched = _assert_derived_matches_cold(old_rp, delta, backend)
        assert patched.cutoff == stop + 1

    def test_new_stop_inside_the_reused_tail(self, backend):
        # The mirror image: the row above the stop sits 2e-13 below μ*,
        # and 5e-13 more mass moves the stop one row up, into the rows
        # the old pass scanned.
        rows, stop = self._near_tie((0.5, 0.5 - 5e-13), 1, -2e-13)
        ranked, old_rp = self._pass(rows, backend)
        assert old_rp.cutoff == stop
        delta = self._replace_second_member(ranked, 0.5)
        _, patched = _assert_derived_matches_cold(old_rp, delta, backend)
        assert patched.cutoff == stop - 1

    @pytest.mark.parametrize("rows_at", [(100, 120), (250, 260)])
    def test_restricted_result_follows_its_own_stop(self, backend, rows_at):
        # A prefill's restricted k=1 result keeps the k=5 cutoff (274).
        # A change above that cutoff -- above k=1's own stop (237 before
        # the probe), or between the two stops -- drops it, and the
        # derived session's fresh k=1 pass has k=1's own stop.
        ranked = ranked_rows_db(_target_rows(rows_at, (0.3, 0.3))).ranked()
        session = QuerySession(ranked, backend=backend)
        session.prefill([1, self.K])
        assert session.rank_probabilities(1).cutoff == 274
        assert tail_stop(ranked, 1, TAIL_EPSILON) == 237
        xt = ranked.db.xtuple("target")
        new_ranked, delta = ranked.with_xtuple_replaced(
            "target", xt.collapsed_to(xt.alternatives[0].tid)
        )
        patched = session.derive(new_ranked, delta=delta).rank_probabilities(1)
        cold = compute_rank_probabilities(new_ranked, 1, backend=backend)
        assert patched.cutoff == cold.cutoff
        assert patched.topk_prefix == pytest.approx(cold.topk_prefix, abs=ABS)
        assert patched.rho_prefix == pytest.approx(cold.rho_prefix, abs=ABS)


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
        # The k=2 pass kept 5 rows and S3 first changed row 2: nothing
        # carries, and the first read runs one fresh pass.
        assert derived.psr_patches == 0
        assert derived.psr_misses == session.psr_misses == 1
        derived.quality(2)
        assert derived.psr_misses == 2
        derived.quality(2)
        assert derived.psr_misses == 2
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
            db, problem, plan, rng=random.Random(4), session=session
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
        # The round changed rows inside the cached pass, so the outcome
        # session ran one fresh pass for the quality read.
        assert delta_outcome.num_succeeded
        assert delta_outcome.session.psr_patches == 0
        assert delta_outcome.session.psr_misses == 2

    def test_foreign_session_falls_back_to_cold_derive(self):
        # A session over a different database must not hijack the delta
        # path; probes apply to ``db`` and the outcome session derives
        # cold, exactly as before the incremental engine.
        db, _, problem = self._setup()
        other_db = ProbabilisticDatabase(db.xtuples, name="twin")
        foreign = QuerySession(other_db)
        plan = GreedyCleaner().plan(problem)
        outcome = execute_plan(
            db, problem, plan, rng=random.Random(4), session=foreign
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
        )
        assert result.session is not None
        # One full PSR pass for the initial evaluation, then one fresh
        # pass for each round that changed the database.
        changed = sum(1 for r in result.rounds if r.outcome.num_succeeded)
        assert changed
        assert result.session.delta_derives == changed
        assert result.session.psr_patches == 0
        assert result.session.psr_misses == 1 + changed
        cold = compute_quality_tp(result.final_db.ranked(), 10).quality
        assert result.final_quality == pytest.approx(cold, abs=ABS)

    @pytest.mark.parametrize(
        "m, completion, seed, k, budget, cost_seed, sc_seed, probe_seed",
        [
            (40, 1.0, 9, 10, 15, 1, 2, 3),
            (50, 1.0, 7, 50, 20, 11, 13, 17),
            (50, 0.85, 7, 50, 20, 11, 13, 17),
        ],
        ids=["m40-complete-k10", "m50-complete-k50", "m50-incomplete-k50"],
    )
    def test_adaptive_delta_and_cold_agree(
        self, m, completion, seed, k, budget, cost_seed, sc_seed, probe_seed
    ):
        db = generate_synthetic(num_xtuples=m, completion=completion, seed=seed)
        session = QuerySession(db)
        problem = build_cleaning_problem(
            session.quality(k),
            generate_costs(db, seed=cost_seed),
            generate_sc_probabilities(db, seed=sc_seed),
            budget,
        )
        run = clean_adaptively(
            db, problem, GreedyCleaner(), rng=random.Random(probe_seed),
            session=session,
        )
        # Every round that changed the database derived through a
        # delta and cost one pass: a carried one or a fresh one.
        changed = sum(1 for r in run.rounds if r.outcome.num_succeeded)
        assert changed
        assert run.session.delta_derives == changed
        assert run.session.cold_derives == 0
        assert run.session.psr_misses + run.session.psr_patches == 1 + changed
        # Replay the run cold: each round's successful probes applied as
        # one change set through the public constructor, then a cold
        # rank and TP pass to check the quality the next round saw.
        cold_db = db
        for round_ in run.rounds:
            cold = compute_quality_tp(cold_db.ranked(), k).quality
            assert round_.quality_before == pytest.approx(cold, abs=ABS)
            cold_db = cold_db.with_xtuples_changed({
                r.xid: (
                    None
                    if r.revealed_null
                    else cold_db.xtuple(r.xid).collapsed_to(r.revealed_tid)
                )
                for r in round_.outcome.records
                if r.succeeded
            })
        cold = compute_quality_tp(cold_db.ranked(), k).quality
        assert run.final_quality == pytest.approx(cold, abs=ABS)
        assert run.final_db.content_hash() == cold_db.content_hash()

    def test_runs_reproducible_under_seeded_rng(self):
        db, session, problem = self._setup(budget=15)
        first = clean_adaptively(
            db, problem, GreedyCleaner(), rng=random.Random(21),
            session=session,
        )
        db2, session2, problem2 = self._setup(budget=15)
        second = clean_adaptively(
            db2, problem2, GreedyCleaner(), rng=random.Random(21),
            session=session2,
        )
        assert [r.outcome.records for r in first.rounds] == [
            r.outcome.records for r in second.rounds
        ]
        assert first.final_quality == second.final_quality
