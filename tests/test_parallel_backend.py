"""Parallel (sharded) PSR backend cross-validation and determinism.

Three layers of guarantees, matching the serial backends' test
discipline:

* **Exactness** -- the sharded scan (serial in-process and pooled)
  agrees with the scalar ``python`` oracle within 1e-9 absolute on
  every rank probability and top-k probability, across random
  databases, shard sizes down to one row, and the edge shapes the
  planner must get right (k >= block size, all-certain prefixes with
  mid-block cutoffs, x-tuples straddling several blocks, saturation
  landing exactly on a boundary).
* **Determinism** -- block size is fixed by ``REPRO_BLOCK_ROWS``
  alone, never by worker count, so the same arrays produce
  byte-identical ``rho_prefix`` / ``topk_prefix`` across repeated runs
  *and* across worker counts (1, 2, 4).  There is no worker-side RNG
  to seed; this suite pins that equivalence at the byte level.
* **Integration** -- delta replay over parallel-built checkpoints,
  the ``parallel_info`` fallback contract, worker-count resolution
  precedence, spec round-trips, and session counters.

Pooled tests share one module-level process pool and shut it down at
module teardown.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.core.parallel import (
    DEFAULT_BLOCK_ROWS,
    resolve_workers,
    set_workers,
    shutdown_pool,
    use_workers,
)
from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import make_xtuple
from repro.datasets.synthetic import generate_synthetic
from repro.exceptions import InvalidSpecError
from repro.api.specs import BatchSpec, QualitySpec, QuerySpec
from repro.queries.engine import QuerySession
from repro.queries.psr import apply_rank_delta, compute_rank_probabilities

from strategies import BLOCK_BOUNDARY_CASES, databases_with_k, ranked_rows_db

ABS = 1e-9


@pytest.fixture(autouse=True, scope="module")
def _pool_teardown():
    yield
    shutdown_pool()


@pytest.fixture()
def block_rows(monkeypatch):
    """Set ``REPRO_BLOCK_ROWS`` for one test (read per call, not cached)."""

    def _set(rows):
        monkeypatch.setenv("REPRO_BLOCK_ROWS", str(rows))

    return _set


@contextmanager
def _block_rows_env(rows):
    """Scoped ``REPRO_BLOCK_ROWS`` for hypothesis tests (which cannot
    take function-scoped fixtures alongside ``@given``)."""
    previous = os.environ.get("REPRO_BLOCK_ROWS")
    os.environ["REPRO_BLOCK_ROWS"] = str(rows)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_BLOCK_ROWS"]
        else:
            os.environ["REPRO_BLOCK_ROWS"] = previous


def _assert_matches_oracle(ranked, k, parallel, abs_tol=ABS):
    oracle = compute_rank_probabilities(ranked, k, backend="python")
    assert parallel.backend == "parallel"
    assert parallel.cutoff == oracle.cutoff
    assert parallel.rho_prefix == pytest.approx(oracle.rho_prefix, abs=abs_tol)
    assert parallel.topk_prefix == pytest.approx(
        oracle.topk_prefix, abs=abs_tol
    )


class TestShardedScanExactness:
    """In-process sharded scan vs the scalar oracle (no pool)."""

    @settings(max_examples=100, deadline=None)
    @given(databases_with_k())
    def test_random_databases_tiny_blocks(self, db_k):
        db, k = db_k
        with _block_rows_env(2):
            parallel = compute_rank_probabilities(
                db.ranked(), k, backend="parallel", workers=1
            )
        _assert_matches_oracle(db.ranked(), k, parallel)

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k(complete=False, max_xtuples=5))
    def test_incomplete_databases_single_row_blocks(self, db_k):
        # One row per block: every boundary is live, every multi-
        # alternative x-tuple straddles, and no factor is degenerate.
        db, k = db_k
        with _block_rows_env(1):
            parallel = compute_rank_probabilities(
                db.ranked(), k, backend="parallel", workers=1
            )
        _assert_matches_oracle(db.ranked(), k, parallel)

    @settings(max_examples=60, deadline=None)
    @given(databases_with_k(complete=True))
    def test_complete_databases_saturate_at_boundaries(self, db_k):
        db, k = db_k
        with _block_rows_env(2):
            parallel = compute_rank_probabilities(
                db.ranked(), k, backend="parallel", workers=1
            )
        _assert_matches_oracle(db.ranked(), k, parallel)

    def test_k_larger_than_block_size(self, block_rows):
        block_rows(4)
        db = generate_synthetic(num_xtuples=30, completion=0.85, seed=3)
        k = 25  # >> block size: factors and prefixes stay k-wide
        parallel = compute_rank_probabilities(
            db.ranked(), k, backend="parallel", workers=1
        )
        _assert_matches_oracle(db.ranked(), k, parallel)

    def test_all_certain_prefix_cuts_off_mid_block(self, block_rows):
        # Ten certain singletons saturate rank by rank; with k=4 the
        # Lemma 2 stop lands inside the second 3-row block and the
        # remaining blocks must be planned away entirely.
        block_rows(3)
        xtuples = [
            make_xtuple(f"c{i}", [(f"t{i}", 100.0 - i, 1.0)])
            for i in range(10)
        ]
        db = ProbabilisticDatabase(xtuples, name="certain")
        k = 4
        parallel = compute_rank_probabilities(
            db.ranked(), k, backend="parallel", workers=1
        )
        _assert_matches_oracle(db.ranked(), k, parallel)
        assert parallel.cutoff == k

    def test_xtuple_straddles_many_blocks(self, block_rows):
        # One x-tuple's alternatives interleave across the whole ranked
        # order: it stays open over every boundary of the 2-row blocks.
        block_rows(2)
        spread = make_xtuple(
            "wide",
            [(f"w{i}", 90.0 - 10 * i, 0.2) for i in range(4)],
        )
        fillers = [
            make_xtuple(f"f{i}", [(f"g{i}", 85.0 - 10 * i, 0.7)])
            for i in range(4)
        ]
        db = ProbabilisticDatabase([spread] + fillers, name="straddle")
        for k in (1, 3, 8):
            parallel = compute_rank_probabilities(
                db.ranked(), k, backend="parallel", workers=1
            )
            _assert_matches_oracle(db.ranked(), k, parallel)

    @pytest.mark.parametrize("rows", [37, 100])
    @pytest.mark.parametrize("case", sorted(BLOCK_BOUNDARY_CASES))
    def test_block_boundary_cases(self, block_rows, rows, case):
        # Shards that are not a multiple of the numpy kernel's 64-row
        # blocks start mid-block, so each shard's first block is partial.
        block_rows(rows)
        db_rows, ks = BLOCK_BOUNDARY_CASES[case]
        ranked = ranked_rows_db(db_rows).ranked()
        for k in ks:
            parallel = compute_rank_probabilities(
                ranked, k, backend="parallel", workers=1
            )
            _assert_matches_oracle(ranked, k, parallel)

    def test_saturation_exactly_on_boundary(self, block_rows):
        # Each complete x-tuple's two alternatives are rank-adjacent,
        # so with 2-row blocks every boundary coincides with an x-tuple
        # reaching full mass -- the planner's clamp-at-boundary path.
        block_rows(2)
        xtuples = [
            make_xtuple(
                f"x{i}",
                [
                    (f"a{i}", 100.0 - 10 * i, 0.5),
                    (f"b{i}", 99.0 - 10 * i, 0.5),
                ],
            )
            for i in range(4)
        ]
        db = ProbabilisticDatabase(xtuples, name="boundary")
        for k in (2, 5, 8):
            parallel = compute_rank_probabilities(
                db.ranked(), k, backend="parallel", workers=1
            )
            _assert_matches_oracle(db.ranked(), k, parallel)


class TestPooledExecution:
    """Real multiprocessing runs over shared-memory shards."""

    def test_pooled_matches_oracle(self, block_rows):
        block_rows(32)
        db = generate_synthetic(num_xtuples=120, completion=0.85, seed=11)
        k = 50
        parallel = compute_rank_probabilities(
            db.ranked(), k, backend="parallel", workers=2
        )
        assert parallel.parallel_info["mode"] == "pool"
        assert parallel.parallel_info["fallback"] is None
        assert parallel.parallel_info["workers"] == 2
        _assert_matches_oracle(db.ranked(), k, parallel)

    def test_bit_identical_across_worker_counts(self, block_rows):
        # Block size is fixed by REPRO_BLOCK_ROWS alone, every write is
        # disjoint, and there is no worker-side RNG: worker count must
        # not change a single byte of the output.
        block_rows(32)
        db = generate_synthetic(num_xtuples=150, completion=0.9, seed=13)
        ranked = db.ranked()
        k = 40
        runs = {
            workers: compute_rank_probabilities(
                ranked, k, backend="parallel", workers=workers
            )
            for workers in (1, 2, 4)
        }
        assert runs[1].parallel_info["mode"] == "serial"
        assert runs[2].parallel_info["mode"] == "pool"
        assert runs[4].parallel_info["mode"] == "pool"
        base = runs[1]
        for workers in (2, 4):
            other = runs[workers]
            assert other.cutoff == base.cutoff
            assert other.rho_prefix.tobytes() == base.rho_prefix.tobytes()
            assert other.topk_prefix.tobytes() == base.topk_prefix.tobytes()

    def test_bit_identical_across_worker_counts_unaligned_shards(
        self, block_rows
    ):
        # 100-row shards start mid-block for the numpy block kernel.
        block_rows(100)
        rows, _ = BLOCK_BOUNDARY_CASES["spans_four_blocks"]
        ranked = ranked_rows_db(rows).ranked()
        runs = [
            compute_rank_probabilities(
                ranked, 12, backend="parallel", workers=workers
            )
            for workers in (1, 2)
        ]
        assert runs[1].parallel_info["mode"] == "pool"
        assert runs[0].rho_prefix.tobytes() == runs[1].rho_prefix.tobytes()
        assert runs[0].topk_prefix.tobytes() == runs[1].topk_prefix.tobytes()
        _assert_matches_oracle(ranked, 12, runs[1])

    def test_bit_identical_across_repeated_runs(self, block_rows):
        block_rows(32)
        db = generate_synthetic(num_xtuples=100, completion=0.8, seed=17)
        ranked = db.ranked()
        first = compute_rank_probabilities(
            ranked, 30, backend="parallel", workers=2
        )
        second = compute_rank_probabilities(
            ranked, 30, backend="parallel", workers=2
        )
        assert first.rho_prefix.tobytes() == second.rho_prefix.tobytes()
        assert first.topk_prefix.tobytes() == second.topk_prefix.tobytes()

    @pytest.mark.parametrize("completion", [1.0, 0.85])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_sweep(self, block_rows, completion, workers):
        block_rows(16)
        db = generate_synthetic(
            num_xtuples=80, completion=completion, seed=19
        )
        for k in (1, 10, 64):
            parallel = compute_rank_probabilities(
                db.ranked(), k, backend="parallel", workers=workers
            )
            _assert_matches_oracle(db.ranked(), k, parallel)


class TestDeltaReplayOverParallelCheckpoints:
    """Incremental cleaning deltas against a parallel-built cache."""

    @pytest.mark.parametrize("completion", [1.0, 0.85])
    def test_delta_in_first_block(self, block_rows, completion):
        block_rows(16)
        db = generate_synthetic(
            num_xtuples=60, completion=completion, seed=23
        )
        ranked = db.ranked()
        k = 30
        rank_probs = compute_rank_probabilities(
            ranked, k, backend="parallel", workers=1
        )
        assert rank_probs.checkpoints  # block-boundary checkpoints
        xid = ranked.order[0].xtuple_id  # top-ranked row: first block
        xt = ranked.db.xtuple(xid)
        ranked2, delta = ranked.with_xtuple_replaced(
            xid, xt.collapsed_to(xt.alternatives[0].tid)
        )
        patched = apply_rank_delta(rank_probs, delta, backend="parallel")
        cold = compute_rank_probabilities(
            ranked2, k, backend="parallel", workers=1
        )
        assert patched.cutoff == cold.cutoff
        assert patched.rho_prefix == pytest.approx(cold.rho_prefix, abs=ABS)
        assert patched.topk_prefix == pytest.approx(cold.topk_prefix, abs=ABS)

    @pytest.mark.parametrize("completion", [1.0, 0.85])
    def test_delta_in_later_block(self, block_rows, completion):
        block_rows(16)
        db = generate_synthetic(
            num_xtuples=60, completion=completion, seed=29
        )
        ranked = db.ranked()
        k = 40
        rank_probs = compute_rank_probabilities(
            ranked, k, backend="parallel", workers=1
        )
        # Pick an x-tuple whose first appearance is past the second
        # block boundary, so replay resumes from a block checkpoint.
        target = None
        for row, t in enumerate(ranked.order):
            if row >= 32:
                target = t.xtuple_id
                break
        assert target is not None
        xt = ranked.db.xtuple(target)
        ranked2, delta = ranked.with_xtuple_replaced(
            target, xt.collapsed_to(xt.alternatives[-1].tid)
        )
        patched = apply_rank_delta(rank_probs, delta, backend="parallel")
        cold = compute_rank_probabilities(
            ranked2, k, backend="parallel", workers=1
        )
        assert patched.cutoff == cold.cutoff
        assert patched.rho_prefix == pytest.approx(cold.rho_prefix, abs=ABS)
        assert patched.topk_prefix == pytest.approx(cold.topk_prefix, abs=ABS)

    def test_chained_deltas_match_scalar_cold(self, block_rows):
        block_rows(8)
        db = generate_synthetic(num_xtuples=40, completion=0.9, seed=31)
        ranked = db.ranked()
        k = 20
        rank_probs = compute_rank_probabilities(
            ranked, k, backend="parallel", workers=1
        )
        import random

        rng = random.Random(37)
        for _ in range(3):
            candidates = [
                x.xid for x in ranked.db.xtuples if len(x.alternatives) > 1
            ]
            if not candidates:
                break
            xid = rng.choice(candidates)
            xt = ranked.db.xtuple(xid)
            tid = rng.choice([t.tid for t in xt.alternatives])
            ranked, delta = ranked.with_xtuple_replaced(
                xid, xt.collapsed_to(tid)
            )
            rank_probs = apply_rank_delta(
                rank_probs, delta, backend="parallel"
            )
        cold = compute_rank_probabilities(ranked, k, backend="python")
        assert rank_probs.cutoff == cold.cutoff
        assert rank_probs.rho_prefix == pytest.approx(
            cold.rho_prefix, abs=ABS
        )
        assert rank_probs.topk_prefix == pytest.approx(
            cold.topk_prefix, abs=ABS
        )


class TestFallbackContract:
    """``parallel_info`` names why a pool was (not) used."""

    def test_workers_one_falls_back_serial(self, block_rows):
        block_rows(8)
        db = generate_synthetic(num_xtuples=30, completion=0.85, seed=41)
        result = compute_rank_probabilities(
            db.ranked(), 10, backend="parallel", workers=1
        )
        info = result.parallel_info
        assert info["mode"] == "serial"
        assert info["fallback"] == "workers <= 1"
        assert info["blocks"] > 1

    def test_single_block_falls_back_serial(self, block_rows):
        block_rows(DEFAULT_BLOCK_ROWS)
        db = generate_synthetic(num_xtuples=20, completion=0.85, seed=43)
        result = compute_rank_probabilities(
            db.ranked(), 10, backend="parallel", workers=4
        )
        info = result.parallel_info
        assert info["mode"] == "serial"
        assert info["fallback"] == "single live block"
        assert info["blocks"] == 1

    def test_serial_backends_have_no_parallel_info(self):
        db = generate_synthetic(num_xtuples=10, completion=0.85, seed=47)
        for backend in ("python", "numpy"):
            result = compute_rank_probabilities(db.ranked(), 5, backend=backend)
            assert result.parallel_info is None


class TestWorkerResolution:
    """Precedence: scoped override > explicit arg > env > cpu count."""

    def test_explicit_argument(self):
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5
        assert resolve_workers(2) == 2  # explicit beats env

    def test_scoped_override_beats_explicit(self):
        with use_workers(2):
            assert resolve_workers(8) == 2
        assert resolve_workers(8) == 8

    def test_use_workers_none_is_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with use_workers(None):
            assert resolve_workers() == 3

    def test_nested_overrides_restore(self):
        with use_workers(4):
            with use_workers(2):
                assert resolve_workers() == 2
            assert resolve_workers() == 4

    def test_set_workers_round_trip(self):
        set_workers(6)
        try:
            assert resolve_workers(1) == 6
        finally:
            set_workers(None)

    def test_invalid_counts_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            set_workers(-1)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)


class TestSpecsAndSessions:
    """The workers knob through specs, sessions, and counters."""

    def test_query_spec_workers_round_trip(self):
        spec = QuerySpec(k=3, workers=2)
        assert QuerySpec.from_dict(spec.to_dict()).workers == 2
        assert QuerySpec.from_dict(QuerySpec(k=3).to_dict()).workers is None

    def test_quality_spec_workers_round_trip(self):
        spec = QualitySpec(k=2, workers=4)
        assert QualitySpec.from_dict(spec.to_dict()).workers == 4

    def test_batch_spec_workers_round_trip(self):
        spec = BatchSpec(items=[QuerySpec(k=2)], workers=2)
        assert BatchSpec.from_dict(spec.to_dict()).workers == 2

    def test_invalid_spec_workers_rejected(self):
        with pytest.raises(InvalidSpecError):
            QuerySpec(k=3, workers=0)
        with pytest.raises(InvalidSpecError):
            QualitySpec(k=3, workers=-2)
        with pytest.raises(InvalidSpecError):
            QuerySpec(k=3, workers=True)

    def test_batch_items_must_not_set_workers(self):
        with pytest.raises(InvalidSpecError):
            BatchSpec(items=[QuerySpec(k=2, workers=2)])

    def test_session_counts_parallel_passes(self, block_rows):
        block_rows(8)
        db = generate_synthetic(num_xtuples=30, completion=0.85, seed=53)
        session = QuerySession(db.ranked(), backend="parallel", workers=1)
        session.ukranks(10)
        assert session.psr_parallel_passes == 1
        assert session.psr_parallel_fallbacks == 1  # workers=1 -> serial
        session.ukranks(10)  # cache hit: no new pass
        assert session.psr_parallel_passes == 1

    def test_session_rejects_invalid_workers(self):
        db = generate_synthetic(num_xtuples=5, completion=1.0, seed=59)
        with pytest.raises(ValueError):
            QuerySession(db.ranked(), backend="parallel", workers=0)
