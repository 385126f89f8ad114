"""Uniform response envelopes for the service façade.

Every :class:`~repro.api.service.TopKService` call returns a
:class:`ServiceResult`: the request kind, the snapshot id the request
was served against, a plain-data payload (JSON types only -- ``dict``
/ ``list`` / ``str`` / ``float`` / ``int`` / ``bool`` / ``None``), and
operational metadata (wall-clock timing plus the session/pool cache
counters the request consumed).  Like the specs, results are values:
``from_dict(to_dict(r)) == r`` holds exactly, including through a
``json.dumps``/``json.loads`` round-trip, which keeps the envelope
wire-ready for a future HTTP layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.exceptions import InvalidSpecError

#: Request kinds a result may carry.
RESULT_KINDS = ("register", "query", "quality", "clean", "batch")


@dataclass(frozen=True)
class ServiceResult:
    """One service response: payload plus provenance and cost metadata.

    Attributes
    ----------
    kind:
        Which request shape produced this result (one of
        :data:`RESULT_KINDS`).
    snapshot_id:
        Content-hash id of the snapshot the request was served against.
        For ``clean`` requests that executed probes, the payload's
        ``"new_snapshot_id"`` names the registered outcome snapshot;
        ``snapshot_id`` here stays the input snapshot.
    payload:
        The answer itself, as plain JSON-serializable data.
    spec:
        The request spec's ``to_dict`` encoding (``None`` for
        ``register``, which takes no spec), so a response is
        self-describing.
    timing_ms:
        Wall-clock service time of this request.
    counters:
        Cache/cost counters consumed by this request, as per-request
        deltas of the session's cumulative totals: ``psr_hits`` /
        ``psr_misses`` / ``psr_patches`` / ``psr_prefills`` /
        ``cold_derives`` / ``delta_derives``.  Store-backed services
        add the store counters' deltas
        (:data:`~repro.core.counters.STORE_COUNTERS`).
    """

    kind: str
    snapshot_id: str
    payload: Dict[str, Any] = field(default_factory=dict)
    spec: Optional[Dict[str, Any]] = None
    timing_ms: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in RESULT_KINDS:
            raise InvalidSpecError(
                f"result kind must be one of {RESULT_KINDS}, got {self.kind!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable encoding of the whole envelope."""
        return {
            "kind": self.kind,
            "snapshot_id": self.snapshot_id,
            "payload": self.payload,
            "spec": self.spec,
            "timing_ms": self.timing_ms,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServiceResult":
        """Reconstruct an envelope equal to the one ``to_dict`` encoded."""
        if not isinstance(payload, Mapping):
            raise InvalidSpecError(
                f"result payload must be a mapping, got {payload!r}"
            )
        try:
            return cls(
                kind=payload["kind"],
                snapshot_id=payload["snapshot_id"],
                payload=dict(payload.get("payload") or {}),
                spec=(
                    dict(payload["spec"])
                    if payload.get("spec") is not None
                    else None
                ),
                timing_ms=float(payload.get("timing_ms", 0.0)),
                counters=dict(payload.get("counters") or {}),
            )
        except KeyError as exc:
            raise InvalidSpecError(
                f"result payload lacks required key {exc.args[0]!r}"
            ) from None
