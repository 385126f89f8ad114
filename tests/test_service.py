"""TopKService: façade behavior, batch sharing, cleaning snapshots."""

import pytest

from repro.api import (
    BatchSpec,
    CleaningSpec,
    QualitySpec,
    QuerySpec,
    SessionPool,
    TopKService,
    snapshot_id_of,
)
from repro.datasets.synthetic import (
    generate_costs,
    generate_sc_probabilities,
    generate_synthetic,
)
from repro.exceptions import UnknownSnapshotError, UnknownXTupleError
from repro.queries.engine import QuerySession

from conftest import assert_payloads_close


@pytest.fixture
def service():
    return TopKService()


@pytest.fixture
def udb1_id(service, udb1):
    return service.register(udb1).snapshot_id


class TestRegister:
    def test_register_reports_shape(self, service, udb1):
        result = service.register(udb1)
        assert result.kind == "register"
        assert result.payload == {
            "num_xtuples": 4,
            "num_tuples": 7,
            "name": "udb1",
        }
        assert result.snapshot_id == snapshot_id_of(udb1)

    def test_idempotent_by_content(self, service, udb1):
        from repro.datasets.paper import udb1 as factory

        first = service.register(udb1).snapshot_id
        second = service.register(factory()).snapshot_id
        assert first == second
        assert service.pool.num_snapshots == 1

    def test_content_hash_ignores_name(self, udb1):
        from repro.db.database import ProbabilisticDatabase

        renamed = ProbabilisticDatabase(udb1.xtuples, name="other")
        assert snapshot_id_of(renamed) == snapshot_id_of(udb1)

    def test_unknown_snapshot_rejected(self, service):
        with pytest.raises(UnknownSnapshotError):
            service.query("snap-missing", QuerySpec(k=2))

    def test_conflicting_ranking_rejected(self, service, udb1):
        from repro.db.ranking import custom

        service.register(udb1)  # by-value default
        reverse = udb1.ranked(custom(lambda t: -t.value, name="reverse"))
        with pytest.raises(ValueError, match="already registered"):
            service.register(reverse)

    def test_equivalent_ranking_accepted(self, service, udb1):
        from repro.db.ranking import by_value

        first = service.register(udb1.ranked(by_value())).snapshot_id
        # A fresh by_value() instance is demonstrably the same ordering.
        second = service.register(udb1.ranked(by_value())).snapshot_id
        assert first == second


class TestQueryAndQuality:
    def test_query_matches_engine(self, service, udb1, udb1_id):
        result = service.query(udb1_id, QuerySpec(k=2, threshold=0.4))
        report = QuerySession(udb1).evaluate(2, threshold=0.4)
        payload = result.payload
        assert [t for t, _ in payload["ptk"]["members"]] == report.ptk.tids
        assert [
            t for t, _ in payload["global_topk"]["members"]
        ] == report.global_topk.tids
        assert [
            w["tid"] for w in payload["ukranks"]["winners"]
        ] == report.ukranks.tids
        assert payload["quality"] == pytest.approx(report.quality_score)

    def test_single_semantics_payload(self, service, udb1_id):
        result = service.query(udb1_id, QuerySpec(k=2, semantics="ptk"))
        assert set(result.payload) == {"k", "ptk"}

    def test_quality_tp(self, service, udb1_id):
        result = service.quality(udb1_id, QualitySpec(k=2))
        assert result.payload["quality"] == pytest.approx(-2.551326, abs=1e-6)

    def test_quality_pwr_reports_result_count(self, service, udb1_id):
        result = service.quality(udb1_id, QualitySpec(k=2, method="pwr"))
        assert result.payload["num_results"] == 7

    def test_repeat_queries_reuse_the_session(self, service, udb1_id):
        first = service.query(udb1_id, QuerySpec(k=2))
        second = service.query(udb1_id, QuerySpec(k=2))
        assert first.counters["psr_misses"] == 1
        assert second.counters["psr_misses"] == 0
        assert second.payload == first.payload


class TestBatch:
    def test_mixed_k_batch_costs_one_psr_pass(self, service, small_synthetic):
        sid = service.register(small_synthetic).snapshot_id
        spec = BatchSpec(
            items=(
                QuerySpec(k=5),
                QualitySpec(k=20),
                QuerySpec(k=11, semantics="ptk"),
                QuerySpec(k=20),
                QualitySpec(k=5),
            )
        )
        result = service.batch(sid, spec)
        assert result.kind == "batch"
        assert result.payload["max_k"] == 20
        assert len(result.payload["items"]) == 5
        # The whole batch shares one max-k pass: exactly one PSR miss,
        # smaller ks seeded by prefix restriction.
        assert result.counters["psr_misses"] == 1
        assert result.counters["psr_prefills"] == 2

    @pytest.mark.parametrize(
        "db_kwargs, items",
        [
            (
                dict(num_xtuples=30, seed=42),
                (QuerySpec(k=4), QualitySpec(k=9), QuerySpec(k=2)),
            ),
            (
                dict(num_xtuples=50, completion=0.85, seed=7),
                tuple(
                    QuerySpec(k=k, threshold=0.1) for k in (15, 25, 50, 100) * 2
                ),
            ),
        ],
        ids=["m30-mixed-kinds", "m50-incomplete-mixed-k"],
    )
    def test_batch_matches_serial_service_calls(self, service, db_kwargs, items):
        db = generate_synthetic(**db_kwargs)
        sid = service.register(db).snapshot_id
        result = service.batch(sid, BatchSpec(items=items))
        assert result.counters["psr_misses"] == 1
        batched = result.payload["items"]

        serial = TopKService()
        serial_sid = serial.register(db).snapshot_id
        for item, spec in zip(batched, items):
            if isinstance(spec, QuerySpec):
                expected = serial.query(serial_sid, spec)
            else:
                expected = serial.quality(serial_sid, spec)
            assert_payloads_close(item["payload"], expected.payload)
            assert item["spec"] == spec.to_dict()

    def test_non_tp_quality_k_does_not_size_the_shared_pass(
        self, service, udb1
    ):
        sid = service.register(udb1).snapshot_id
        spec = BatchSpec(
            items=(
                QuerySpec(k=2),
                # Enumeration quality never reads the PSR cache; its k
                # must not inflate the shared pass.
                QualitySpec(k=6, method="pw"),
            )
        )
        result = service.batch(sid, spec)
        assert result.counters["psr_misses"] == 1
        with service.pool.lease(sid) as session:
            assert sorted(session._rank_probabilities) == [2]

    def test_warm_session_batch_costs_nothing(self, service, small_synthetic):
        sid = service.register(small_synthetic).snapshot_id
        spec = BatchSpec(items=(QuerySpec(k=5), QuerySpec(k=9)))
        service.batch(sid, BatchSpec(items=(QuerySpec(k=9),)))
        result = service.batch(sid, spec)
        assert result.counters["psr_misses"] == 0


class TestClean:
    def _full_spec(self, db, **overrides):
        kwargs = dict(
            k=2,
            budget=3,
            planner="dp",
            costs={xt.xid: 1 for xt in db.xtuples},
            sc_probabilities={xt.xid: 1.0 for xt in db.xtuples},
        )
        kwargs.update(overrides)
        return CleaningSpec(**kwargs)

    def test_clean_registers_new_snapshot(self, service, udb1, udb1_id):
        result = service.clean(udb1_id, self._full_spec(udb1))
        payload = result.payload
        assert result.snapshot_id == udb1_id
        assert payload["new_snapshot_id"] != udb1_id
        assert payload["new_snapshot_id"] in service.pool
        assert payload["expected_improvement"] == pytest.approx(
            2.551326, abs=1e-6
        )
        # Certain successes: the quality reaches the optimum of 0.
        assert payload["quality_after"] == pytest.approx(0.0, abs=1e-9)
        # The input snapshot is untouched.
        again = service.quality(udb1_id, QualitySpec(k=2))
        assert again.payload["quality"] == pytest.approx(-2.551326, abs=1e-6)

    def test_clean_runs_on_the_delta_path(self, service, udb1, udb1_id):
        result = service.clean(udb1_id, self._full_spec(udb1))
        assert result.counters["delta_derives"] >= 1
        assert result.counters["cold_derives"] == 0
        assert result.counters["psr_misses"] == 1

    def test_outcome_session_is_seeded_for_the_new_snapshot(
        self, service, udb1, udb1_id
    ):
        new_id = service.clean(udb1_id, self._full_spec(udb1)).payload[
            "new_snapshot_id"
        ]
        follow_up = service.query(new_id, QuerySpec(k=2))
        # Served from the delta-patched session: no fresh PSR pass.
        assert follow_up.counters["psr_misses"] == 0

    def test_plan_only_registers_nothing(self, service, udb1, udb1_id):
        before = service.pool.num_snapshots
        result = service.clean(
            udb1_id, self._full_spec(udb1, execute=False)
        )
        assert "new_snapshot_id" not in result.payload
        assert service.pool.num_snapshots == before

    def test_deterministic_given_seed(self, service, udb1, udb1_id):
        spec = self._full_spec(udb1, sc_probabilities=None, sc_seed=5, seed=3)
        first = service.clean(udb1_id, spec).payload
        second = service.clean(udb1_id, spec).payload
        assert first == second

    def test_adaptive_mode(self, service, small_synthetic):
        sid = service.register(small_synthetic).snapshot_id
        costs = generate_costs(small_synthetic, seed=1)
        sc = generate_sc_probabilities(small_synthetic, seed=2)
        spec = CleaningSpec(
            k=5, budget=12, costs=costs, sc_probabilities=sc, adaptive=True
        )
        result = service.clean(sid, spec)
        assert result.payload["rounds"] >= 1
        assert result.payload["cost_spent"] <= 12
        assert (
            result.payload["quality_after"]
            >= result.payload["quality_before"] - 1e-9
        )
        # The adaptive loop plans each round itself: the payload's plan
        # is round 1's probe assignment and there is no upfront
        # expected improvement.
        assert "expected_improvement" not in result.payload
        plan = result.payload["plan"]
        assert plan["total_cost"] <= 12
        assert plan["total_operations"] == sum(plan["operations"].values())

    def test_missing_cost_names_offending_xid(self, service, udb1, udb1_id):
        spec = self._full_spec(udb1)
        costs = dict(spec.costs)
        del costs["S3"]
        with pytest.raises(UnknownXTupleError, match="S3") as excinfo:
            service.clean(udb1_id, self._full_spec(udb1, costs=costs))
        assert excinfo.value.xid == "S3"
        assert excinfo.value.field == "costs"

    def test_typed_error_raised_by_shared_builder_too(self, udb1):
        # Direct library callers get the same named-xid error the
        # service surfaces (UnknownXTupleError extends the historical
        # InvalidCleaningProblemError).
        from repro.cleaning.model import build_cleaning_problem
        from repro.exceptions import InvalidCleaningProblemError

        quality = QuerySession(udb1).quality(2)
        with pytest.raises(InvalidCleaningProblemError, match="S2") as excinfo:
            build_cleaning_problem(quality, {"S1": 1}, {"S1": 0.5}, 5)
        assert isinstance(excinfo.value, UnknownXTupleError)
        assert excinfo.value.xid == "S2"  # first missing x-tuple, named

    def test_unknown_sc_xid_named(self, service, udb1, udb1_id):
        spec = self._full_spec(udb1)
        sc = dict(spec.sc_probabilities)
        sc["S99"] = 0.5
        with pytest.raises(UnknownXTupleError, match="S99"):
            service.clean(udb1_id, self._full_spec(udb1, sc_probabilities=sc))


class TestPoolSharing:
    def test_shared_pool_across_services(self, udb1):
        pool = SessionPool()
        a = TopKService(pool=pool)
        b = TopKService(pool=pool)
        sid = a.register(udb1).snapshot_id
        assert b.query(sid, QuerySpec(k=2)).payload["quality"] is not None

    def test_pool_kwargs_rejected_with_explicit_pool(self):
        with pytest.raises(ValueError):
            TopKService(pool=SessionPool(), max_sessions=3)


class TestDeprecatedEntryPoints:
    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_thing
