"""Small helpers for writing simulation processes."""

from __future__ import annotations

from typing import Any, Optional

from ..simkernel.core import Environment
from ..simkernel.events import Event

__all__ = ["with_timeout", "TimeoutResult", "TIMED_OUT", "is_timeout"]


class TimeoutResult:
    """Sentinel returned by :func:`with_timeout` when the deadline won."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<timed out>"


TIMED_OUT = TimeoutResult()


def with_timeout(env: Environment, event: Event, timeout: float):
    """Wait for ``event`` or ``timeout`` seconds, whichever first.

    Usage::

        outcome = yield from with_timeout(env, conn.recv(), 5.0)
        if outcome is TIMED_OUT: ...

    Returns the event's value, or the :data:`TIMED_OUT` sentinel.  If the
    event fails, its exception propagates to the caller.
    """
    deadline = env.timeout(timeout, value=TIMED_OUT)
    expire = getattr(event, "expire", None)
    if expire is not None and not event.triggered:
        # A pending store get: the caller owns it and it can be
        # withdrawn, so park on the get itself and let the deadline
        # expire it — no race event between the two.  An interrupt
        # finds the get as the process's wait target and withdraws it.
        wait_on, waker = event, expire
        deadline.callbacks.append(waker)
    else:
        wait_on = env.any_of([event, deadline])
        waker = wait_on._check
    try:
        result = yield wait_on
    finally:
        # Whoever won — or if the event failed, or we were interrupted
        # — do not leave a dead deadline in the heap (a relay loop
        # calls this millions of times; leaked deadlines would come to
        # dominate the schedule).  Detach our callback first:
        # ``Timeout.cancel`` only tombstones a timeout nobody waits on.
        callbacks = deadline.callbacks
        if callbacks is not None:
            callbacks.remove(waker)
            cancel = getattr(deadline, "cancel", None)
            if cancel is not None:
                cancel()
    if wait_on is event:
        return result
    if event in result:
        return result[event]
    # Cancel the pending get if the event supports it, so an unread
    # queue item is not consumed later by a stale getter.
    cancel = getattr(event, "cancel", None)
    if cancel is not None:
        cancel()
    return TIMED_OUT


def is_timeout(value: Any) -> bool:
    """True if ``value`` is the :func:`with_timeout` sentinel."""
    return isinstance(value, TimeoutResult)
