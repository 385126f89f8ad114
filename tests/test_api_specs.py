"""Request specs and result envelopes: validation and JSON round-trips."""

import json

import pytest

from repro.api.results import ServiceResult
from repro.api.specs import (
    BatchSpec,
    CleaningSpec,
    QualitySpec,
    QuerySpec,
    spec_from_dict,
)
from repro.exceptions import InvalidSpecError

ALL_SPECS = [
    QuerySpec(k=5),
    QuerySpec(k=1, semantics="ptk", threshold=0.25),
    QuerySpec(k=100, semantics="global-topk", threshold=0.0),
    QualitySpec(k=7),
    QualitySpec(k=2, method="pwr"),
    QualitySpec(k=3, method="montecarlo", samples=500),
    CleaningSpec(k=5, budget=10),
    CleaningSpec(
        k=2,
        budget=3,
        planner="dp",
        costs={"S1": 1, "S2": 4},
        sc_probabilities={"S1": 0.5, "S2": 1.0},
        cost_seed=7,
        sc_seed=9,
        execute=False,
        adaptive=True,
        seed=11,
    ),
    BatchSpec(items=(QuerySpec(k=5), QualitySpec(k=9))),
    BatchSpec(
        items=(
            QuerySpec(k=2, semantics="ukranks"),
            QuerySpec(k=20, threshold=0.4),
            QualitySpec(k=4, method="pw"),
        )
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).TYPE)
    def test_from_dict_of_to_dict_is_identity(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).TYPE)
    def test_survives_json_wire_format(self, spec):
        wire = json.loads(json.dumps(spec.to_dict()))
        assert spec_from_dict(wire) == spec

    def test_dispatch_by_type_tag(self):
        assert isinstance(spec_from_dict({"type": "query", "k": 3}), QuerySpec)
        assert isinstance(
            spec_from_dict({"type": "cleaning", "k": 3, "budget": 1}),
            CleaningSpec,
        )

    def test_defaults_materialize_on_decode(self):
        spec = spec_from_dict({"type": "query", "k": 3})
        assert spec == QuerySpec(k=3, semantics="all", threshold=0.1)


class TestSpecValidation:
    @pytest.mark.parametrize("k", [0, -1, 1.5, True, "3"])
    def test_bad_k_rejected(self, k):
        with pytest.raises(InvalidSpecError):
            QuerySpec(k=k)

    def test_bad_semantics_rejected(self):
        with pytest.raises(InvalidSpecError, match="semantics"):
            QuerySpec(k=3, semantics="topk")

    @pytest.mark.parametrize("threshold", [-0.1, 1.1, float("nan")])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(InvalidSpecError, match="threshold"):
            QuerySpec(k=3, threshold=threshold)

    def test_bad_quality_method_rejected(self):
        with pytest.raises(InvalidSpecError, match="method"):
            QualitySpec(k=3, method="magic")

    @pytest.mark.parametrize("budget", [-1, 2.5, True])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(InvalidSpecError, match="budget"):
            CleaningSpec(k=3, budget=budget)

    def test_bad_planner_rejected(self):
        with pytest.raises(InvalidSpecError, match="planner"):
            CleaningSpec(k=3, budget=1, planner="magic")

    def test_bad_cost_value_named_in_error(self):
        with pytest.raises(InvalidSpecError, match="S2"):
            CleaningSpec(k=3, budget=1, costs={"S1": 1, "S2": 0})

    def test_bad_sc_value_named_in_error(self):
        with pytest.raises(InvalidSpecError, match="S9"):
            CleaningSpec(k=3, budget=1, sc_probabilities={"S9": 1.5})

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidSpecError, match="at least one"):
            BatchSpec(items=())

    def test_cleaning_cannot_ride_in_a_batch(self):
        with pytest.raises(InvalidSpecError, match="batch items"):
            BatchSpec(items=(CleaningSpec(k=3, budget=1),))

    def test_unknown_fields_rejected_on_decode(self):
        with pytest.raises(InvalidSpecError, match="unknown spec fields"):
            QuerySpec.from_dict({"type": "query", "k": 3, "kk": 4})
        # Specs carry no worker count or retry policy: a payload that
        # sets either is refused, naming the field.
        minimal = (
            {"type": "query", "k": 3},
            {"type": "quality", "k": 3},
            {"type": "cleaning", "k": 3, "budget": 1},
            {"type": "batch", "items": [{"type": "query", "k": 3}]},
        )
        for payload in minimal:
            for extra in ({"workers": 2}, {"retry_policy": None}):
                (field_name,) = extra
                with pytest.raises(InvalidSpecError, match=field_name):
                    spec_from_dict({**payload, **extra})

    def test_missing_type_tag_rejected(self):
        with pytest.raises(InvalidSpecError, match="type"):
            spec_from_dict({"k": 3})

    def test_unknown_type_tag_rejected(self):
        with pytest.raises(InvalidSpecError, match="unknown spec type"):
            spec_from_dict({"type": "mystery", "k": 3})

    def test_mismatched_type_tag_rejected(self):
        with pytest.raises(InvalidSpecError, match="declares type"):
            QualitySpec.from_dict({"type": "query", "k": 3})

    def test_batch_max_k(self):
        spec = BatchSpec(items=(QuerySpec(k=5), QualitySpec(k=9), QuerySpec(k=2)))
        assert spec.max_k == 9

    def test_batch_max_k_ignores_non_tp_quality(self):
        spec = BatchSpec(
            items=(QuerySpec(k=5), QualitySpec(k=500, method="montecarlo"))
        )
        # The sampling item never reads the PSR cache, so it does not
        # size the shared pass.
        assert spec.max_k == 5
        only_sampling = BatchSpec(
            items=(QualitySpec(k=500, method="montecarlo"),)
        )
        assert only_sampling.max_k is None

    def test_batch_missing_items_rejected_on_decode(self):
        with pytest.raises(InvalidSpecError, match="items"):
            spec_from_dict({"type": "batch"})


class TestServiceResult:
    def _result(self):
        return ServiceResult(
            kind="query",
            snapshot_id="snap-abc",
            payload={"k": 3, "quality": -1.25, "tids": ["t1", "t2"]},
            spec=QuerySpec(k=3).to_dict(),
            timing_ms=1.75,
            counters={"psr_misses": 1, "psr_hits": 2},
        )

    def test_round_trip_identity(self):
        result = self._result()
        assert ServiceResult.from_dict(result.to_dict()) == result

    def test_round_trip_through_json(self):
        result = self._result()
        wire = json.loads(json.dumps(result.to_dict()))
        assert ServiceResult.from_dict(wire) == result

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidSpecError, match="kind"):
            ServiceResult(kind="mystery", snapshot_id="snap-abc")

    def test_missing_required_key_rejected(self):
        with pytest.raises(InvalidSpecError, match="snapshot_id"):
            ServiceResult.from_dict({"kind": "query"})
