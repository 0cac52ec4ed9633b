"""Small helpers for writing simulation processes."""

from __future__ import annotations

from ..simkernel.core import Environment
from ..simkernel.events import TIMED_OUT, Event, TimeoutResult

__all__ = ["with_timeout", "TimeoutResult", "TIMED_OUT"]


def with_timeout(env: Environment, event: Event, timeout: float):
    """Wait for ``event`` or ``timeout`` seconds, whichever first.

    Usage::

        outcome = yield from with_timeout(env, attempt, 5.0)
        if outcome is TIMED_OUT: ...

    Returns the event's value, or the :data:`TIMED_OUT` sentinel.  If the
    event fails, its exception propagates to the caller.

    This races ``event`` against a fresh timeout, so it suits an event
    other parties also decide or wait on (a connect attempt, a process,
    a condition).  A wait on the caller's own event — a receive — takes
    its deadline as an argument instead (``recv(timeout=...)``,
    ``env.within``): no race, and one timer per process.
    """
    deadline = env.timeout(timeout, value=TIMED_OUT)
    race = env.any_of([event, deadline])
    try:
        result = yield race
    finally:
        # Whoever won — or if the event failed, or we were interrupted
        # — do not leave a dead deadline in the heap.  Detach our
        # callback first: ``Timeout.cancel`` only tombstones a timeout
        # nobody waits on.
        callbacks = deadline.callbacks
        if callbacks is not None:
            callbacks.remove(race._check)
            deadline.cancel()
    if event in result:
        return result[event]
    # Cancel the pending get if the event supports it, so an unread
    # queue item is not consumed later by a stale getter.
    cancel = getattr(event, "cancel", None)
    if cancel is not None:
        cancel()
    return TIMED_OUT
