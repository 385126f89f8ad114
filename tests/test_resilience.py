"""Resilient-serving tests: deadlines, admission, faults, error envelopes.

The deadline primitive and its thread-local scope; the fault plan the
store suites drive (:mod:`repro.testing.faults`); service-level
deadline shedding (an expired deadline consumes no PSR pass), the
admission gate (``ServiceOverloadedError`` on saturation), spec
round-trips for ``deadline_ms``, and the CLI's typed JSON error
envelope.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api.pool import SessionPool
from repro.api.service import TopKService
from repro.api.specs import BatchSpec, QuerySpec, spec_from_dict
from repro.cli import main as cli_main
from repro.core.resilience import (
    Deadline,
    check_deadline,
    current_deadline,
    scoped,
)
from repro.db import io
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjectedError,
    InvalidSpecError,
    ReproError,
    ResilienceError,
    ServiceOverloadedError,
)
from repro.testing import FaultEvent, FaultPlan, active_faults


# ---------------------------------------------------------------------------
# Deadline primitive
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_scoped_check_and_restore(self):
        assert current_deadline() is None
        with scoped(deadline=Deadline.after_ms(60_000.0)):
            assert current_deadline() is not None
            check_deadline("mid-test")  # plenty of budget: no raise
        assert current_deadline() is None

    def test_expired_deadline_raises(self):
        with scoped(deadline=Deadline.after_ms(1e-6)):
            time.sleep(0.001)
            with pytest.raises(DeadlineExceededError, match="mid-test"):
                check_deadline("mid-test")

    def test_nested_scopes_restore_outer(self):
        outer = Deadline.after_ms(60_000.0)
        with scoped(deadline=outer):
            with scoped(deadline=Deadline.after_ms(30_000.0)):
                assert current_deadline() is not outer
            assert current_deadline() is outer


# ---------------------------------------------------------------------------
# The fault plan itself
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_draw_consumes_budget(self):
        plan = FaultPlan([FaultEvent(kind="crash", step="segment:*", times=2)])
        assert plan.draw_disk("segment:payload") == {
            "kind": "crash",
            "step": "segment:payload",
        }
        assert plan.draw_disk("journal:payload") is None  # wrong step
        assert plan.draw_disk("segment:written") is not None
        assert plan.draw_disk("segment:payload") is None  # budget spent
        assert plan.fired("crash") == 2

    def test_plan_copy_is_fresh(self):
        event = FaultEvent(kind="crash", step="segment:payload", times=1)
        plan_a, plan_b = FaultPlan([event]), FaultPlan([event])
        assert plan_a.draw_disk("segment:payload") is not None
        assert plan_b.draw_disk("segment:payload") is not None  # own budget

    def test_json_round_trip(self):
        plan = FaultPlan(
            [FaultEvent(kind="torn", step="journal:*", times=3, skip=1)]
        )
        clone = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert [e.to_dict() for e in clone.events] == [
            e.to_dict() for e in plan.events
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "meteor"},
            {"kind": "kill", "step": "segment:payload", "times": 0},
            {"kind": "kill", "step": "segment:payload", "skip": -1},
            {"kind": "crash", "step": ""},
            {"kind": "kill", "step": "segment:payload", "surprise": 1},
            # Every kind is a disk kind: it needs a step, and no event
            # carries a shard index.
            {"kind": "hang"},
            {"kind": "kill"},
            {"kind": "crash", "step": "x", "block": 0},
        ],
    )
    def test_event_validation(self, payload):
        with pytest.raises(InvalidSpecError):
            FaultEvent.from_dict(payload)

    def test_env_activation(self, monkeypatch):
        plan = FaultPlan([FaultEvent(kind="crash", step="segment:payload")])
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(plan.to_dict()))
        armed = active_faults()
        assert armed is not None
        assert armed.events[0].kind == "crash"
        # Parsed once: the same (budget-carrying) plan comes back.
        assert active_faults() is armed


# ---------------------------------------------------------------------------
# Service-level resilience
# ---------------------------------------------------------------------------
class TestServiceDeadlines:
    def test_expired_deadline_shed_without_psr_pass(self, small_synthetic):
        service = TopKService()
        sid = service.register(small_synthetic).snapshot_id
        with pytest.raises(DeadlineExceededError):
            service.query(sid, QuerySpec(k=5, deadline_ms=1e-6))
        # Shed at admission: no lease was taken, no session built, no
        # PSR pass consumed.
        assert service.pool.session_misses == 0
        assert service.pool.session_hits == 0
        assert service.pool.in_flight == 0

    def test_generous_deadline_serves_normally(self, small_synthetic):
        service = TopKService()
        sid = service.register(small_synthetic).snapshot_id
        result = service.query(sid, QuerySpec(k=5, deadline_ms=60_000.0))
        assert result.payload["ukranks"]["winners"]
        assert result.counters["psr_misses"] == 1

    def test_deadline_does_not_leak_across_requests(self, small_synthetic):
        service = TopKService()
        sid = service.register(small_synthetic).snapshot_id
        with pytest.raises(DeadlineExceededError):
            service.query(sid, QuerySpec(k=5, deadline_ms=1e-6))
        # The next (deadline-free) request on the same thread is clean.
        assert service.query(sid, QuerySpec(k=5)).payload["ukranks"]

    def test_clean_respects_deadline(self, small_synthetic):
        from repro.api.specs import CleaningSpec

        service = TopKService()
        sid = service.register(small_synthetic).snapshot_id
        with pytest.raises(DeadlineExceededError):
            service.clean(
                sid, CleaningSpec(k=5, budget=10, deadline_ms=1e-6)
            )


class TestAdmissionGate:
    def test_saturated_pool_sheds(self, small_synthetic):
        service = TopKService(
            pool=SessionPool(max_in_flight=1, admission_timeout_ms=50.0)
        )
        sid = service.register(small_synthetic).snapshot_id
        entered = threading.Event()
        release = threading.Event()
        errors = []

        def hog():
            with service.pool.lease(sid):
                entered.set()
                release.wait(timeout=10.0)

        holder = threading.Thread(target=hog)
        holder.start()
        try:
            assert entered.wait(timeout=10.0)
            with pytest.raises(ServiceOverloadedError):
                service.query(sid, QuerySpec(k=5))
            assert service.pool.shed_requests == 1
        finally:
            release.set()
            holder.join(timeout=10.0)
        # The slot frees up once the holder exits.
        assert service.query(sid, QuerySpec(k=5)).payload["ukranks"]
        assert not errors

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            SessionPool(max_in_flight=0)
        with pytest.raises(ValueError):
            SessionPool(admission_timeout_ms=-1.0)

    def test_tight_deadline_bounds_admission_wait(self, small_synthetic):
        service = TopKService(
            pool=SessionPool(max_in_flight=1, admission_timeout_ms=30_000.0)
        )
        sid = service.register(small_synthetic).snapshot_id
        entered = threading.Event()
        release = threading.Event()

        def hog():
            with service.pool.lease(sid):
                entered.set()
                release.wait(timeout=10.0)

        holder = threading.Thread(target=hog)
        holder.start()
        try:
            assert entered.wait(timeout=10.0)
            start = time.monotonic()
            with pytest.raises(
                (DeadlineExceededError, ServiceOverloadedError)
            ):
                service.query(sid, QuerySpec(k=5, deadline_ms=100.0))
            # Bounded by the 100ms deadline, not the 30s admission wait.
            assert time.monotonic() - start < 10.0
        finally:
            release.set()
            holder.join(timeout=10.0)


class TestResilienceSpecs:
    def test_query_spec_round_trip(self):
        spec = QuerySpec(k=5, deadline_ms=1500)
        assert spec.deadline_ms == 1500.0
        wire = json.loads(json.dumps(spec.to_dict()))
        assert spec_from_dict(wire) == spec

    @pytest.mark.parametrize("deadline_ms", [0, -5, float("nan"), "soon"])
    def test_bad_deadline_rejected(self, deadline_ms):
        with pytest.raises(InvalidSpecError):
            QuerySpec(k=5, deadline_ms=deadline_ms)

    def test_batch_forbids_per_item_resilience(self):
        with pytest.raises(InvalidSpecError, match="deadline_ms"):
            BatchSpec(items=(QuerySpec(k=5, deadline_ms=10.0),))

    def test_batch_level_settings_round_trip(self):
        spec = BatchSpec(items=(QuerySpec(k=5),), deadline_ms=2000.0)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert spec_from_dict(wire) == spec

    def test_error_taxonomy(self):
        for exc in (
            DeadlineExceededError,
            ServiceOverloadedError,
            FaultInjectedError,
        ):
            assert issubclass(exc, ResilienceError)
            assert issubclass(exc, ReproError)


# ---------------------------------------------------------------------------
# CLI error envelopes
# ---------------------------------------------------------------------------
class TestCliErrorEnvelope:
    @pytest.fixture()
    def db_file(self, tmp_path, small_synthetic):
        path = tmp_path / "db.json"
        io.save_json(small_synthetic, path)
        return path

    def test_deadline_error_serializes(self, tmp_path, db_file, capsys):
        out = tmp_path / "out.json"
        code = cli_main(
            [
                "query",
                "--db",
                str(db_file),
                "-k",
                "5",
                "--deadline-ms",
                "0.000001",
                "--json",
                str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "DeadlineExceededError" in err
        assert "Traceback" not in err
        envelope = json.loads(out.read_text())
        assert envelope["error"]["type"] == "DeadlineExceededError"
        assert "deadline exceeded" in envelope["error"]["message"]

    def test_spec_error_serializes(self, tmp_path, db_file, capsys):
        out = tmp_path / "out.json"
        code = cli_main(
            [
                "query",
                "--db",
                str(db_file),
                "-k",
                "5",
                "--deadline-ms",
                "-3",
                "--json",
                str(out),
            ]
        )
        assert code == 1
        envelope = json.loads(out.read_text())
        assert envelope["error"]["type"] == "InvalidSpecError"

    def test_error_without_json_flag(self, db_file, capsys):
        code = cli_main(
            ["query", "--db", str(db_file), "--deadline-ms", "0.000001"]
        )
        assert code == 1
        assert "DeadlineExceededError" in capsys.readouterr().err

    def test_healthy_run_still_exits_zero(self, tmp_path, db_file):
        out = tmp_path / "out.json"
        code = cli_main(
            [
                "query",
                "--db",
                str(db_file),
                "-k",
                "5",
                "--deadline-ms",
                "60000",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        envelope = json.loads(out.read_text())
        assert "error" not in envelope
        assert envelope["result"]["spec"]["deadline_ms"] == 60000.0

