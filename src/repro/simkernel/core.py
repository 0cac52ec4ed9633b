"""The simulation :class:`Environment`: clock, event queue, run loop.

Hot-path layout (see also :mod:`repro.simkernel.events`): the scheduler
is *two-lane* — events triggered at the current simulation time live in
plain FIFO deques (one per priority) and never touch the heap, while
future events go through a binary heap.  The run loop inlines
:meth:`Environment.step` so a multi-million-event run pays one Python
frame per *run*, not per event, and dispatch short-circuits the
overwhelmingly common single-callback case.

Pop order is the strict ``(time, priority, event id)`` order of the
classic single-heap design: for any time ``t``, heap entries at ``t``
were pushed while ``now < t`` and therefore carry smaller event ids
than every deque entry at ``t`` (pushed while ``now == t``), so
draining same-time heap entries before the same-priority deque — and
the URGENT lane before the NORMAL lane — reproduces heap order exactly.
The pre-optimization implementation is frozen in
:mod:`repro.simkernel.reference` and the differential tests in
``tests/perf/`` prove the two produce identical runs (everything but
the scheduled-event count, which is lower here: see
:mod:`repro.simkernel.resources`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop
from typing import Any, Generator, Optional

from .events import (
    NORMAL,
    PENDING,
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Timeout,
    _push,
)

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to stop :meth:`Environment.run` from within a callback."""


class Environment:
    """A deterministic discrete-event simulation environment.

    Time is a monotonically non-decreasing float (we use seconds by
    convention throughout this project).  All state mutation happens inside
    event callbacks, which are executed in (time, priority, insertion)
    order, so simulations are fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Future events only: a heap of ``(time, priority, eid, event)``.
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Same-time lanes: URGENT and NORMAL events at ``self._now``.
        self._urgent: deque[Event] = deque()
        self._ready: deque[Event] = deque()
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Cancelled future timeouts still sitting in the heap as
        #: tombstones (see :meth:`repro.simkernel.events.Timeout.cancel`).
        self._cancelled = 0
        #: The last heap key a deferred deadline reserved (see
        #: :meth:`repro.simkernel.events.Process._bound`).
        self._deferred_key = -1.0

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (or ``None``)."""
        return self._active_process

    def stats(self) -> dict:
        """The kernel's own counts, as of now: events scheduled so far,
        the clock, future events on the heap and the timeouts cancelled
        since its last compaction (a ceiling on the tombstones among
        them: one popped at its expiry is not uncounted)."""
        return {"events": self._eid, "now": self._now,
                "heap": len(self._queue), "tombstones": self._cancelled}

    # -- event creation ----------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Condition event that triggers once all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Condition event that triggers once any of ``events`` succeeds."""
        return AnyOf(self, events)

    def within(self, event: Event, timeout: float) -> Event:
        """What the running process yields to wait on ``event`` for at
        most ``timeout``: ``event``'s value, or ``TIMED_OUT``.

        ``event`` must be the caller's own — a store get it made, or an
        event only it waits on and whose producer tolerates it being
        decided early — because a deadline that passes first succeeds
        ``event`` itself with ``TIMED_OUT`` (a store get is withdrawn
        too).  Its process's one timer carries the deadline: no race
        event, no timeout per wait (see ``Process._bound``).
        """
        if event._value is PENDING:
            process = self._active_process
            if process is None:
                raise SimulationError("only a running process can wait "
                                      "under a deadline")
            process._bound(event, timeout)
        return event

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay``."""
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        _push(self, event, priority, self._now + delay)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._ready:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def _note_cancelled(self) -> None:
        """Count a heap tombstone; reclaim in bulk when they dominate.

        Called by :meth:`repro.simkernel.events.Timeout.cancel` and for
        a tombstoned :class:`~repro.simkernel.events.Deadline`.  The
        threshold keeps compaction amortized O(1) per cancellation, and
        the floor keeps tiny simulations from ever paying a heapify.
        """
        self._cancelled += 1
        if self._cancelled > 64 and self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled-timeout tombstones from the future heap.

        A tombstone is a *succeeded* event with no callbacks left that
        was explicitly defused by ``Timeout.cancel`` or by a process
        that dropped its armed deadline timer — popping it would be a
        no-op, so removing it early changes neither pop order (heap
        keys are unique) nor event ids (cancel never pushes).
        """
        queue = self._queue
        live = [entry for entry in queue
                if not (entry[3]._defused and entry[3]._ok
                        and not entry[3].callbacks)]
        if len(live) != len(queue):
            # In place: the run loop holds a local reference to this list.
            queue[:] = live
            heapify(queue)
        self._cancelled = 0

    def _pop(self) -> Event:
        """Remove and return the next event in (time, priority, id) order.

        Advances the clock when the next event comes from the future
        heap.  Raises :class:`EmptySchedule` when nothing is left.
        """
        queue = self._queue
        urgent = self._urgent
        if queue:
            entry = queue[0]
            if entry[0] == self._now and (entry[1] == 0 or not urgent):
                # Same-time heap entries precede their lane's deque
                # (smaller event ids), and an URGENT heap entry beats
                # the NORMAL lanes outright.
                return heappop(queue)[3]
        if urgent:
            return urgent.popleft()
        ready = self._ready
        if ready:
            return ready.popleft()
        if queue:
            self._now, _, _, event = heappop(queue)
            return event
        raise EmptySchedule()

    def step(self) -> None:
        """Process the single next event."""
        event = self._pop()
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            callbacks[0](event)
        else:
            for callback in callbacks:
                callback(event)

        if not event._ok and not event._defused:
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"Event failed with non-exception: {value!r}")

    # -- run loop ------------------------------------------------------------

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulation time), or an :class:`Event` (run until
        that event is processed, returning its value).
        """
        stop_at: Optional[float] = None
        stop_event = None

        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event.value
                stop_event.callbacks.append(self._stop_callback)
            else:
                stop_at = float(until)
                if stop_at <= self._now:
                    raise ValueError(
                        f"until ({stop_at}) must be greater than now ({self._now})")

        # The inlined step loop.  Semantics are identical to calling
        # :meth:`step` until ``EmptySchedule``/``stop_at`` (the frozen
        # reference run loop); the pop logic of :meth:`_pop` and the
        # dispatch are simply unrolled here so each event costs zero
        # extra Python frames.
        queue = self._queue
        urgent = self._urgent
        ready = self._ready
        pop = heappop
        try:
            while True:
                if queue and queue[0][0] == self._now and (
                        queue[0][1] == 0 or not urgent):
                    event = pop(queue)[3]
                elif urgent:
                    event = urgent.popleft()
                elif ready:
                    event = ready.popleft()
                elif queue:
                    if stop_at is not None and queue[0][0] > stop_at:
                        self._now = stop_at
                        break
                    self._now, _, _, event = pop(queue)
                else:
                    if stop_at is not None:
                        self._now = stop_at
                    break
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise SimulationError(
                        f"Event failed with non-exception: {value!r}")
        except StopSimulation as stop:
            event = stop.args[0]
            if not event._ok:
                # The awaited event failed: surface its exception.
                raise event._value
            return event._value

        if stop_event is not None and stop_event.callbacks is not None:
            raise SimulationError(
                "Simulation ended before the awaited event was triggered")
        if stop_event is not None:
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        event._defused = True
        raise StopSimulation(event)
