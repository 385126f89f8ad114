"""Request-level resilience primitive: deadlines.

:class:`Deadline` is an absolute expiry derived from a request's
``deadline_ms``.  The service checks it at admission and after
queueing for a session lease, and an adaptive clean before every
round, raising
:class:`~repro.exceptions.DeadlineExceededError` the moment the budget
is gone instead of finishing an answer nobody is waiting for; the
admission gate and the store lock cap their bounded waits at it.

The deadline travels from the service to the waits below it through a
**thread-local** scope (:func:`scoped`) rather than parameters: the
waits are several layers below :class:`~repro.api.service.TopKService`
and the deadline must not leak between concurrently served requests --
a module-level global would cross-cancel other threads' requests.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.exceptions import DeadlineExceededError


class Deadline:
    """An absolute expiry a request must finish by.

    Built from a relative budget (:meth:`after_ms`) at request
    admission; monotonic-clock based, so wall-clock adjustments cannot
    spuriously expire requests.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        """A deadline ``budget_ms`` from now."""
        return cls(time.monotonic() + budget_ms / 1000.0)

    def remaining_s(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining_s() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deadline: {self.remaining_s() * 1000.0:.1f}ms remaining>"


# ---------------------------------------------------------------------------
# Thread-local request scope
# ---------------------------------------------------------------------------

_scope = threading.local()


@contextmanager
def scoped(deadline: Optional[Deadline] = None) -> Iterator[None]:
    """Attach a deadline to the current thread's work.

    ``None`` is transparent: the surrounding scope stays in effect, so
    callers can wrap unconditionally.  Scopes nest and restore on exit.
    """
    previous_deadline = getattr(_scope, "deadline", None)
    if deadline is not None:
        _scope.deadline = deadline
    try:
        yield
    finally:
        _scope.deadline = previous_deadline


def current_deadline() -> Optional[Deadline]:
    """The deadline attached to the current thread's request, if any."""
    deadline = getattr(_scope, "deadline", None)
    return deadline if isinstance(deadline, Deadline) else None


def check_deadline(what: str) -> None:
    """Raise :class:`DeadlineExceededError` if the scoped deadline passed."""
    deadline = current_deadline()
    if deadline is not None and deadline.expired:
        raise DeadlineExceededError(
            f"deadline exceeded "
            f"({-deadline.remaining_s() * 1000.0:.1f}ms past) {what}"
        )
