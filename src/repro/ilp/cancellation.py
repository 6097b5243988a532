"""Cooperative cancellation for solver backends (and anything else slow).

The async execution core (:mod:`repro.exec`) and the composite pipeline
stages (:mod:`repro.pipeline.composite`) need a way to *stop* work that is
already running: a ``race(...)`` stage cancels losing branches once the
winner is decided, and a per-stage ``budget=<seconds>s`` wall-clock limit
must actually interrupt a long solve instead of merely being checked after
the fact.

The mechanism is a cooperative :class:`CancelToken` installed per thread
with :func:`cancel_scope`; long-running code polls
:func:`current_cancel_token`:

* the pure-Python branch-and-bound backend checks the token in its node
  loop, so cancellation (or an expired deadline) stops the solve at node
  granularity and returns the incumbent found so far;
* the scipy/HiGHS backend refuses to dispatch when the token is already
  cancelled, installs HiGHS's MIP-interrupt callback, which polls the
  token, so a cancelled solve stops at the next branch-and-bound poll
  point, and clamps its ``time_limit`` to the token's remaining deadline
  (see :func:`clamped_time_limit`).  The callback changes when a solve
  stops, never what an uncancelled solve returns.

Tokens nest: a token created with ``parent=current_cancel_token()`` is
cancelled whenever the parent is, and its remaining time is the minimum
over the chain — a race branch under a budgeted race observes both the
race's budget and its own cancellation.

Determinism caveat: a deadline that actually *binds* makes results depend
on wall clock, exactly like ``SolverOptions.time_limit``.  Sweeps that must
be reproducible should use node limits and budgets generous enough not to
bind; the budget value itself is part of the canonical stage spec (and so
of the job hash), so a cached budgeted outcome is replayed as-is.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class CancelToken:
    """A cooperative cancellation signal with an optional wall-clock deadline."""

    def __init__(
        self,
        deadline: Optional[float] = None,
        parent: Optional["CancelToken"] = None,
    ) -> None:
        #: Absolute ``time.perf_counter()`` deadline (``None`` = no deadline).
        self.deadline = deadline
        self.parent = parent
        self._event = threading.Event()
        self._reason: Optional[str] = None

    @classmethod
    def after(
        cls, seconds: float, parent: Optional["CancelToken"] = None
    ) -> "CancelToken":
        """A token whose deadline is ``seconds`` from now."""
        return cls(deadline=time.perf_counter() + float(seconds), parent=parent)

    def cancel(self, reason: Optional[str] = None) -> None:
        """Request cancellation (idempotent, thread-safe).

        The first non-empty ``reason`` wins and is reported by
        :meth:`cancel_reason` — race/budget telemetry records *why* a
        branch stopped, not just that it did.
        """
        if reason is not None and self._reason is None and not self._event.is_set():
            self._reason = reason
        self._event.set()

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`cancel` was called on this token or an ancestor."""
        if self._event.is_set():
            return True
        return self.parent.cancel_requested if self.parent is not None else False

    def deadline_expired(self) -> bool:
        """Whether this token's (or an ancestor's) deadline has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def cancelled(self) -> bool:
        """Whether work should stop: cancel requested or deadline expired."""
        return self.cancel_requested or self.deadline_expired()

    def cancel_reason(self) -> Optional[str]:
        """Why work stopped: the nearest explicit reason in the chain,
        ``"deadline expired"`` for a binding deadline, else ``None``."""
        token: Optional[CancelToken] = self
        while token is not None:
            if token._event.is_set():
                return token._reason if token._reason else "cancelled"
            token = token.parent
        if self.deadline_expired():
            return "deadline expired"
        return None

    def remaining(self) -> Optional[float]:
        """Seconds until the tightest deadline in the chain (``None`` = no
        deadline anywhere; may be negative once expired)."""
        now = time.perf_counter()
        remaining: Optional[float] = None
        token: Optional[CancelToken] = self
        while token is not None:
            if token.deadline is not None:
                left = token.deadline - now
                remaining = left if remaining is None else min(remaining, left)
            token = token.parent
        return remaining


_CURRENT = threading.local()


def current_cancel_token() -> Optional[CancelToken]:
    """The token installed in this thread (``None`` outside any scope)."""
    return getattr(_CURRENT, "token", None)


@contextmanager
def cancel_scope(token: Optional[CancelToken]) -> Iterator[Optional[CancelToken]]:
    """Install ``token`` as this thread's current cancellation token.

    Scopes restore the previous token on exit and may nest; installing
    ``None`` temporarily shields the body from an outer scope.
    """
    previous = current_cancel_token()
    _CURRENT.token = token
    try:
        yield token
    finally:
        _CURRENT.token = previous


def clamped_time_limit(time_limit: Optional[float]) -> Optional[float]:
    """``time_limit`` clamped to the current token's remaining deadline.

    The HiGHS backend calls this even though its interrupt callback stops
    branch and bound: the callback is polled at MIP search points, not
    inside presolve or an LP solve, so the clamp is what bounds presolve
    and the root LP under a wall-clock budget.  Returns the tighter of the two (``None`` =
    unlimited); an already-expired deadline yields a tiny positive limit
    rather than zero, which some solvers treat as "no limit".
    """
    token = current_cancel_token()
    remaining = token.remaining() if token is not None else None
    if remaining is None:
        return time_limit
    remaining = max(remaining, 1e-3)
    if time_limit is None:
        return remaining
    return min(float(time_limit), remaining)
