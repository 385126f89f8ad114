"""Deterministic fault injection for the snapshot store.

The crash-safety guarantees of :mod:`repro.store` -- a write cut short
at any step recovers the pre-write or the post-write state, corrupt
files are quarantined, a full disk fails typed, two processes
coordinate through the store lock -- are only worth anything if CI can
exercise each path on demand.  Real crashes are not schedulable, so
this module fakes them *deterministically*: a :class:`FaultPlan` is a
list of :class:`FaultEvent` triggers, each naming a fault ``kind``,
the store step it fires at, and how many ``times`` it fires before
disarming.  The same plan against the same input replays the same
faults.

Fault kinds (consumed by :mod:`repro.store` at its named write / read
steps; every event's ``step`` is an ``fnmatch`` pattern against step
names like ``"segment:payload"`` or ``"journal:*"``):

``crash``
    Raise :class:`~repro.exceptions.SimulatedCrashError` at the step:
    the in-process stand-in for a power cut.  The store runs *no*
    cleanup on this path, so reopen recovers exactly the state a real
    crash would leave.
``torn``
    Write only a prefix of the payload, fsync it, then crash -- the
    classic torn write.  Recovery must detect the truncated frame and
    roll back to the pre-write state.
``bitflip``
    Flip one bit of the payload and complete the write *successfully*
    -- silent media corruption.  The reader's checksums must catch it
    and quarantine the file instead of serving it.
``shortread``
    The reader sees only a prefix of the file -- a truncation that
    happened after the write.  Must surface as
    :class:`~repro.exceptions.CorruptSnapshotError`, never as garbage
    data.
``enospc``
    Raise ``OSError(ENOSPC)`` at the step -- disk full.  The store
    must fail the write with a typed error and leave no partial state
    (and the pool must roll back / never publish the in-memory entry).
``kill``
    SIGKILL the whole process at the step -- how the end-to-end
    kill-and-restart test crashes a real child process at a
    deterministic point.
``contend``
    Run the event's ``command`` (a Python script) in a **second real
    process** at the step, waiting for it to exit, then continue.
    This is how the contention tests interleave two genuine processes
    at a deterministic point of the store's protocols: the script
    typically opens the same store root and persists / cleans /
    checkpoints against it, so cross-process locking is exercised
    exactly where the plan says -- inside a writer's critical section
    (the child must wait or shed typed) or just before one (the child
    wins the lock and the parent waits).  The child inherits the
    environment minus ``REPRO_FAULTS`` (the plan must not recursively
    re-arm itself in the child).

The store's step vocabulary covers the whole write/read/maintenance
surface: ``segment:*`` and ``journal:*`` (PR 9), plus
``lock:acquire`` (before every cross-process lock acquisition),
``checkpoint:begin`` / ``checkpoint:payload`` / ``checkpoint:written``
/ ``checkpoint:synced`` / ``checkpoint:renamed`` /
``checkpoint:committed`` (journal compaction), and ``gc:tombstone`` /
``gc:unlink`` (the two phases of segment deletion).

Activation: programmatically via :func:`install_faults` /
:func:`use_faults`, or from the environment via ``REPRO_FAULTS`` (a
JSON :meth:`FaultPlan.to_dict` encoding), which is how CI smoke jobs
switch plans on without touching test code.
"""

from __future__ import annotations

import errno
import fnmatch
import json
import os
import signal
import subprocess
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import InvalidSpecError, SimulatedCrashError

#: Recognized fault kinds (see the module docstring for semantics).
FAULT_KINDS = (
    "crash",
    "torn",
    "bitflip",
    "shortread",
    "enospc",
    "kill",
    "contend",
)

#: Upper bound on a ``contend`` child's runtime, in seconds: a wedged
#: child must fail the test loudly, not hang the parent forever.
CONTEND_TIMEOUT_S = 120.0


@dataclass
class FaultEvent:
    """One armed fault: ``kind`` at ``step``, up to ``times`` firings.

    ``step`` is an ``fnmatch`` pattern against the snapshot store's
    step names (``"segment:payload"``, ``"journal:*"``, ...); every
    kind requires one.  ``times`` is the remaining-firing budget; each
    :meth:`FaultPlan.draw_disk` match decrements it.  ``skip`` ignores
    that many matching draws before firing, so a test can let a base
    snapshot persist cleanly and crash the *second* write at the same
    step.

    ``command`` is the Python script a ``contend`` event runs in a
    second real process at its step (required for ``contend``, invalid
    for every other kind).
    """

    kind: str
    step: str
    times: int = 1
    skip: int = 0
    command: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InvalidSpecError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not (isinstance(self.step, str) and self.step):
            raise InvalidSpecError(
                f"fault kind {self.kind!r} requires a non-empty step "
                f"pattern, got {self.step!r}"
            )
        if self.kind == "contend" and not (
            isinstance(self.command, str) and self.command
        ):
            raise InvalidSpecError(
                "contend faults need a 'command' script to run in the "
                "second process"
            )
        if self.command is not None and self.kind != "contend":
            raise InvalidSpecError(
                f"fault kind {self.kind!r} cannot carry a command"
            )
        if not isinstance(self.skip, int) or isinstance(self.skip, bool) \
                or self.skip < 0:
            raise InvalidSpecError(
                f"fault skip must be a non-negative integer, got {self.skip!r}"
            )
        if not isinstance(self.times, int) or isinstance(self.times, bool) \
                or self.times < 1:
            raise InvalidSpecError(
                f"fault times must be a positive integer, got {self.times!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable encoding."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "times": self.times,
            "step": self.step,
        }
        if self.skip:
            payload["skip"] = self.skip
        if self.command is not None:
            payload["command"] = self.command
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultEvent":
        if not isinstance(payload, Mapping):
            raise InvalidSpecError(
                f"fault event must be a mapping, got {payload!r}"
            )
        unknown = sorted(
            set(payload) - {"kind", "times", "step", "skip", "command"}
        )
        if unknown:
            raise InvalidSpecError(f"unknown fault-event fields {unknown!r}")
        try:
            kind = payload["kind"]
        except KeyError:
            raise InvalidSpecError(
                f"fault event lacks a 'kind': {dict(payload)!r}"
            ) from None
        return cls(
            kind=kind,
            step=payload.get("step"),
            times=payload.get("times", 1),
            skip=payload.get("skip", 0),
            command=payload.get("command"),
        )


class FaultPlan:
    """A seeded, consumable schedule of faults for one (or more) runs.

    The plan is mutable on purpose -- each :meth:`draw_disk` burns
    budget -- so a fresh plan per test gives a fresh schedule.
    ``drawn`` records every directive issued (``(step, directive)``),
    letting tests assert the fault actually fired rather than silently
    testing the happy path.
    """

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self.events: List[FaultEvent] = [replace(e) for e in events]
        #: Every directive issued: ``(step, directive)``.
        self.drawn: List[Tuple[str, Dict[str, Any]]] = []

    # -- wire form -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable encoding (``REPRO_FAULTS`` format)."""
        return {"events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise InvalidSpecError(
                f"fault plan must be a mapping, got {payload!r}"
            )
        events = payload.get("events")
        if not isinstance(events, (list, tuple)):
            raise InvalidSpecError(
                f"fault plan needs an 'events' list, got {events!r}"
            )
        return cls([FaultEvent.from_dict(e) for e in events])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpecError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    # -- consumption ---------------------------------------------------
    def draw_disk(self, step: str) -> Optional[Dict[str, Any]]:
        """The directive (if any) armed for this disk step.

        ``step`` is the store's step name (``"segment:payload"``,
        ``"journal:synced"``, ``"segment:read"``, ...); an event fires
        when its ``step`` pattern ``fnmatch``-es it, its ``skip``
        budget is exhausted (matching draws decrement it first), and
        ``times`` budget remains.  The directive carries the event's
        ``kind`` plus the concrete step it fired at.
        """
        for event in self.events:
            if event.times < 1:
                continue
            if not fnmatch.fnmatchcase(step, event.step):
                continue
            if event.skip > 0:
                event.skip -= 1
                continue
            event.times -= 1
            directive: Dict[str, Any] = {"kind": event.kind, "step": step}
            if event.command is not None:
                directive["command"] = event.command
            self.drawn.append((step, directive))
            return directive
        return None

    def fired(self, kind: Optional[str] = None) -> int:
        """How many directives were issued (optionally of one kind)."""
        if kind is None:
            return len(self.drawn)
        return sum(1 for _, d in self.drawn if d["kind"] == kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan: {self.events!r}, {len(self.drawn)} drawn>"


# ---------------------------------------------------------------------------
# Activation
# ---------------------------------------------------------------------------

_installed: Optional[FaultPlan] = None


def install_faults(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) the process-wide fault plan."""
    global _installed
    _installed = plan


def clear_faults() -> None:
    """Disarm fault injection."""
    install_faults(None)


@contextmanager
def use_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped fault plan: armed inside the ``with``, restored after."""
    global _installed
    previous = _installed
    _installed = plan
    try:
        yield plan
    finally:
        _installed = previous


def active_faults() -> Optional[FaultPlan]:
    """The armed fault plan: the installed one, else ``REPRO_FAULTS``.

    The environment plan is parsed **once** and installed, so its
    ``times`` budgets persist across runs within the process -- an env
    plan with ``times=1`` faults exactly one run, the same contract as
    a programmatic plan.
    """
    global _installed
    if _installed is not None:
        return _installed
    raw = os.environ.get("REPRO_FAULTS")
    if raw:
        _installed = FaultPlan.from_json(raw)
        return _installed
    return None


# ---------------------------------------------------------------------------
# Disk faults (snapshot-store side)
# ---------------------------------------------------------------------------


def draw_disk_fault(step: str) -> Optional[Dict[str, Any]]:
    """The active plan's directive for this disk step, or ``None``.

    The store calls this at every named step of its write and read
    protocols; with no plan armed the call is a cheap ``None`` and the
    production path pays nothing else.
    """
    plan = active_faults()
    if plan is None:
        return None
    return plan.draw_disk(step)


def execute_disk_fault(directive: Mapping[str, Any]) -> None:
    """Carry out the raising / killing disk directives.

    ``crash`` raises :class:`~repro.exceptions.SimulatedCrashError`
    (the store lets it propagate with no cleanup); ``kill`` SIGKILLs
    the whole process -- for subprocess tests that reopen the store in
    a fresh interpreter; ``enospc`` raises a genuine
    ``OSError(ENOSPC)`` so the store's error handling is exercised by
    the same exception a full disk produces.  The data-transforming
    kinds (``torn`` / ``bitflip`` / ``shortread``) return without
    raising: the store applies them to the bytes in flight via
    :func:`torn_payload` / :func:`flip_one_bit` / read truncation.
    ``contend`` runs the directive's ``command`` script in a *second
    real interpreter* at this step -- while the faulted process is
    frozen mid-protocol, typically holding the store's cross-process
    lock -- waits for it, then returns so the step continues; the
    child inherits the environment minus ``REPRO_FAULTS`` (it must not
    re-arm the plan recursively).
    """
    kind = directive.get("kind")
    step = directive.get("step", "?")
    if kind == "crash":
        raise SimulatedCrashError(f"injected crash at disk step {step!r}")
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "enospc":
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(step))
    if kind == "contend":
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        subprocess.run(
            [sys.executable, "-c", str(directive.get("command", ""))],
            env=env,
            timeout=CONTEND_TIMEOUT_S,
            check=False,
        )


def torn_payload(data: bytes) -> bytes:
    """The prefix a torn write leaves behind: half the bytes.

    Deterministic in the payload alone; always a *strict* prefix (at
    least one byte short) so the tear is guaranteed detectable.
    """
    return bytes(data[: len(data) // 2])


def flip_one_bit(data: bytes) -> bytes:
    """``data`` with exactly one bit flipped, chosen deterministically.

    The bit index is derived from the payload's own CRC, so the same
    payload always corrupts the same way (replayable) while different
    payloads exercise different offsets.  Empty payloads return empty.
    """
    if not data:
        return b""
    bit = zlib.crc32(data) % (8 * len(data))
    corrupted = bytearray(data)
    corrupted[bit // 8] ^= 1 << (bit % 8)
    return bytes(corrupted)
