"""NumPy-vs-Python backend cross-validation (and both vs the oracle).

The vectorized kernels must be bit-compatible with the scalar
reference implementation up to floating-point reassociation: every
hypothesis case checks agreement within 1e-9 absolute for PSR rank
probabilities, top-k probabilities, TP weights, quality scores and the
per-x-tuple ``g(l, D)`` aggregation -- plus explicit constructions for
the saturation / early-stop (Lemma 2) and high-sibling-mass paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.backend import current_backend, set_backend, use_backend
from repro.core.tp import compute_quality_tp
from repro.core.weights import compute_weights
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import make_xtuple
from repro.queries.brute_force import (
    rank_probabilities_by_enumeration,
    topk_probabilities_by_enumeration,
)
from repro.queries.psr import (
    CHECKPOINT_INTERVAL,
    TAIL_EPSILON,
    compute_rank_probabilities,
    tail_stop,
)

from strategies import BLOCK_BOUNDARY_CASES, databases_with_k, ranked_rows_db

ABS = 1e-9


def _assert_backends_agree(db, k):
    ranked = db.ranked()
    reference = compute_rank_probabilities(ranked, k, backend="python")
    vectorized = compute_rank_probabilities(ranked, k, backend="numpy")
    assert reference.backend == "python"
    assert vectorized.backend == "numpy"
    assert reference.cutoff == vectorized.cutoff
    assert reference.rho_prefix == pytest.approx(
        vectorized.rho_prefix, abs=ABS
    )
    assert reference.topk_prefix == pytest.approx(
        vectorized.topk_prefix, abs=ABS
    )
    assert reference.topk_probability_by_xtuple() == pytest.approx(
        vectorized.topk_probability_by_xtuple(), abs=ABS
    )
    return ranked, reference, vectorized


class TestPSRCrossValidation:
    @settings(max_examples=120, deadline=None)
    @given(databases_with_k())
    def test_backends_agree_on_random_databases(self, db_k):
        _assert_backends_agree(*db_k)

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k(complete=False, max_xtuples=5))
    def test_backends_agree_on_incomplete_databases(self, db_k):
        # Incomplete x-tuples never saturate: exercises long-lived open
        # factors and the backward (q > 1/2) division path.
        _assert_backends_agree(*db_k)

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k())
    def test_numpy_kernel_matches_possible_world_oracle(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        vectorized = compute_rank_probabilities(ranked, k, backend="numpy")
        expected_rho = rank_probabilities_by_enumeration(ranked, k)
        expected_topk = topk_probabilities_by_enumeration(ranked, k)
        for t in ranked.order:
            assert vectorized.rho(t.tid) == pytest.approx(
                expected_rho[t.tid], abs=ABS
            )
            assert vectorized.topk_probability(t.tid) == pytest.approx(
                expected_topk[t.tid], abs=ABS
            )


class TestPSREdgeCases:
    def test_lemma2_early_stop_same_cutoff(self):
        # k certain x-tuples on top: both kernels must stop scanning at
        # the same position and zero out everything below.
        xtuples = [
            make_xtuple(f"c{i}", [(f"top{i}", 100.0 - i, 1.0)]) for i in range(3)
        ]
        xtuples.append(
            make_xtuple("tail", [("low1", 5.0, 0.5), ("low2", 4.0, 0.5)])
        )
        db = ProbabilisticDatabase(xtuples)
        _, reference, vectorized = _assert_backends_agree(db, 3)
        assert reference.cutoff == 3
        assert vectorized.cutoff == 3
        assert vectorized.topk_probability("low1") == 0.0

    def test_saturating_sibling_rows_are_zero(self):
        # Second alternative saturates its x-tuple; the third exists
        # with numerically zero probability in both kernels.
        db = ProbabilisticDatabase(
            [
                make_xtuple(
                    "s", [("a", 9.0, 0.5), ("b", 8.0, 0.5), ("c", 7.0, 1e-13)]
                ),
                make_xtuple("o", [("d", 8.5, 0.6)]),
            ]
        )
        _, reference, vectorized = _assert_backends_agree(db, 2)
        assert vectorized.topk_probability("c") == 0.0

    def test_high_sibling_mass_rebuild_path(self):
        # Last sibling sees q = 0.9 > 1/2: the reference kernel
        # rebuilds, the numpy kernel divides backward.
        db = ProbabilisticDatabase(
            [
                make_xtuple(
                    "big",
                    [("a", 10.0, 0.45), ("b", 9.0, 0.45), ("c", 8.0, 0.1)],
                ),
                make_xtuple("other", [("d", 9.5, 0.6), ("e", 7.0, 0.4)]),
            ]
        )
        for k in (1, 2, 3):
            _assert_backends_agree(db, k)

    def test_interleaved_open_xtuples(self):
        # Three x-tuples open simultaneously: exercises the open
        # polynomial growing and shrinking around close events.
        db = ProbabilisticDatabase(
            [
                make_xtuple(
                    "x", [("x1", 10.0, 0.3), ("x2", 8.0, 0.3), ("x3", 6.0, 0.4)]
                ),
                make_xtuple("y", [("y1", 9.0, 0.5), ("y2", 7.0, 0.5)]),
                make_xtuple("z", [("z1", 8.5, 0.25)]),
            ]
        )
        for k in (1, 2, 3, 4):
            _assert_backends_agree(db, k)


class TestBlockBoundaries:
    """Shapes around the numpy kernel's 64-row blocks."""

    @pytest.mark.parametrize("case", sorted(BLOCK_BOUNDARY_CASES))
    def test_backends_agree(self, case):
        rows, ks = BLOCK_BOUNDARY_CASES[case]
        db = ranked_rows_db(rows)
        for k in ks:
            _assert_backends_agree(db, k)

    def test_case_shapes(self):
        def rows_of(case):
            return len(BLOCK_BOUNDARY_CASES[case][0])

        assert rows_of("n_below_block") < CHECKPOINT_INTERVAL
        assert rows_of("n_not_block_multiple") % CHECKPOINT_INTERVAL
        assert rows_of("spans_four_blocks") > 4 * CHECKPOINT_INTERVAL
        db = ranked_rows_db(BLOCK_BOUNDARY_CASES["lemma2_mid_block"][0])
        cutoff = compute_rank_probabilities(db.ranked(), 5, backend="numpy").cutoff
        assert cutoff == 105 and cutoff // CHECKPOINT_INTERVAL == 1
        for case, row in (
            ("tail_stop_on_block_boundary", 256),
            ("tail_stop_mid_block", 237),
        ):
            rows, (k,) = BLOCK_BOUNDARY_CASES[case]
            ranked = ranked_rows_db(rows).ranked()
            assert tail_stop(ranked, k, TAIL_EPSILON) == row
            for backend in ("numpy", "python"):
                result = compute_rank_probabilities(ranked, k, backend=backend)
                assert result.cutoff == row
        assert 256 % CHECKPOINT_INTERVAL == 0 and 237 % CHECKPOINT_INTERVAL

    @pytest.mark.parametrize("case", sorted(BLOCK_BOUNDARY_CASES))
    def test_checkpoints_match_scalar_kernel(self, case):
        # Both kernels snapshot the same rows; the block kernel's states
        # fall out of its block boundaries.
        rows, ks = BLOCK_BOUNDARY_CASES[case]
        ranked = ranked_rows_db(rows).ranked()
        k = ks[-1]
        scalar = compute_rank_probabilities(ranked, k, backend="python")
        blocks = compute_rank_probabilities(ranked, k, backend="numpy")
        assert [c.row for c in blocks.checkpoints] == [
            c.row for c in scalar.checkpoints
        ]
        for mine, ref in zip(blocks.checkpoints, scalar.checkpoints):
            assert mine.shift == ref.shift
            assert mine.closed_dp == pytest.approx(ref.closed_dp, abs=ABS)
            assert mine.open_masses == pytest.approx(ref.open_masses, abs=ABS)

    def test_rho_stays_deferred_until_read(self):
        rows, _ = BLOCK_BOUNDARY_CASES["n_not_block_multiple"]
        result = compute_rank_probabilities(
            ranked_rows_db(rows).ranked(), 20, backend="numpy"
        )
        assert not isinstance(result._rho_state, np.ndarray)
        assert math.fsum(result.topk_prefix) > 0  # answers need no ρ
        assert not isinstance(result._rho_state, np.ndarray)
        assert result.rho_prefix.shape == (result.cutoff, 20)
        assert isinstance(result._rho_state, np.ndarray)


class TestWeightsAndQuality:
    @settings(max_examples=100, deadline=None)
    @given(databases_with_k())
    def test_weights_agree(self, db_k):
        db, _ = db_k
        ranked = db.ranked()
        reference = compute_weights(ranked, backend="python")
        vectorized = compute_weights(ranked, backend="numpy")
        assert vectorized == pytest.approx(reference, abs=ABS)

    @settings(max_examples=100, deadline=None)
    @given(databases_with_k())
    def test_quality_and_g_agree(self, db_k):
        db, k = db_k
        ranked = db.ranked()
        reference = compute_quality_tp(ranked, k, backend="python")
        vectorized = compute_quality_tp(ranked, k, backend="numpy")
        assert vectorized.quality == pytest.approx(reference.quality, abs=ABS)
        assert vectorized.g_by_xtuple() == pytest.approx(
            reference.g_by_xtuple(), abs=ABS
        )
        assert math.fsum(vectorized.g_by_xtuple()) == pytest.approx(
            vectorized.quality, abs=ABS
        )
        assert np.asarray(vectorized.g_by_xtuple_array()) == pytest.approx(
            np.asarray(reference.g_by_xtuple_array()), abs=ABS
        )


class TestBackendSelection:
    def test_default_backend_honours_environment(self):
        import os

        expected = os.environ.get("REPRO_BACKEND", "numpy")
        assert current_backend() == expected

    def test_set_backend_roundtrip(self):
        previous = current_backend()
        set_backend("python")
        try:
            assert current_backend() == "python"
        finally:
            set_backend(previous)

    def test_use_backend_restores_on_exit(self):
        previous = current_backend()
        with use_backend("python"):
            assert current_backend() == "python"
        assert current_backend() == previous

    def test_invalid_backend_rejected(self, udb1):
        for name in ("fortran", "parallel"):
            with pytest.raises(ValueError):
                set_backend(name)
            with pytest.raises(ValueError):
                compute_rank_probabilities(udb1.ranked(), 2, backend=name)

    def test_kernel_argument_overrides_default(self, udb1):
        with use_backend("python"):
            result = compute_rank_probabilities(udb1.ranked(), 2, backend="numpy")
        assert result.backend == "numpy"
