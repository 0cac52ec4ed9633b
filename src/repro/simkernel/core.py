"""The simulation :class:`Environment`: clock, event queue, run loop.

Hot-path layout (see also :mod:`repro.simkernel.events`): the scheduler
is *two-lane* — events triggered at the current simulation time live in
plain FIFO deques (one per priority) and never touch the heap, while
future events go through a binary heap; either also holds *call
entries*, ``(fn, arg)`` pairs (:meth:`Environment.call_later`) whose
dispatch is ``fn(arg)``.  The run loop inlines
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
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Generator, Optional

from .events import (
    NORMAL,
    PENDING,
    AllOf,
    AnyOf,
    Deadline,
    Event,
    Process,
    SimulationError,
    Timeout,
    _push,
)

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]

#: Builds a slotted event without its class call (see
#: :meth:`Environment.timeout`).
_new = object.__new__


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
        #: The last heap key a deadline reserved (see
        #: :meth:`repro.simkernel.events.Process._bound`).
        self._reserved_key = -1.0
        #: Pending deadlines, a heap of ``(time, key, Deadline)``; the
        #: schedule holds one entry, for its head (:meth:`_arm_deadline`).
        self._deadlines: list[tuple[float, float, Deadline]] = []
        #: Waiters woken in place by ``deliver`` (not scheduled).
        self._handoffs = 0

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
        """The kernel's own counts: events scheduled so far, the clock,
        future events, what compaction can drop — timeouts cancelled and
        finished processes' deadline records since the last one (a
        ceiling: one popped is not uncounted) — pending deadlines, and
        waiters ``deliver`` woke in place: ``events + handoffs`` counts
        every wake-up, so moving one in place is seen."""
        return {"events": self._eid, "now": self._now,
                "heap": len(self._queue), "tombstones": self._cancelled,
                "deadlines": len(self._deadlines),
                "handoffs": self._handoffs}

    # -- event creation ----------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now.

        The timeout is built in place — no class call, no ``__init__``
        frame: this is the only way one is made."""
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        event = _new(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        # ``_push(self, event, NORMAL, at)``, inlined: one frame per timeout.
        now = self._now
        at = now + delay
        if at == now:
            self._ready.append(event)
            self._eid += 1
        else:
            self._eid = eid = self._eid + 1
            heappush(self._queue, (at, NORMAL, eid, event))
        return event

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
        too).  The environment's deadline heap carries the deadline: no
        race event, no timeout per wait (see ``Process._bound``).
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

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any) -> None:
        """Call ``fn(arg)`` after ``delay``: one event, at the key a
        timeout made now would have, but no event object."""
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        # ``_push``, inlined: one frame per network delivery.
        now = self._now
        at = now + delay
        if at == now:
            self._ready.append((fn, arg))
            self._eid += 1
        else:
            self._eid = eid = self._eid + 1
            heappush(self._queue, (at, NORMAL, eid, (fn, arg)))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._ready:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def _arm_deadline(self, record: Deadline) -> None:
        """Put a fresh record in the deadline heap.  A new head (keys
        only grow: only an earlier time makes one) strips the old head's
        schedule entry, revived if it heads again, and gets its own."""
        deadlines = self._deadlines
        head = not deadlines or record._at < deadlines[0][0]
        if deadlines and head:
            deadlines[0][2]._entry.callbacks.clear()
        heappush(deadlines, (record._at, record._key, record))
        if head:
            self._schedule_deadline(record)

    def _schedule_deadline(self, record: Deadline) -> None:
        """Give the head record a schedule entry at its heap key, or
        revive the one it had before an earlier record came."""
        entry = record._entry
        if entry is None:
            entry = record._entry = Event(self)
            entry._ok = True
            self._eid += 1
            heappush(self._queue, (record._at, NORMAL, record._key, entry))
        entry.callbacks.append(self._on_deadline)

    def _on_deadline(self, _entry: Event) -> None:
        """The head's entry popped: expire its wait if it is still due.
        A record reaching the head is dropped (its wait is over) or
        re-keyed (deferred) at no event, until a live one heads the heap
        and gets an entry.  The expiry, which may wake its waiter in
        place, comes last."""
        deadlines = self._deadlines
        due = True
        expired = None
        while deadlines:
            at, key, record = deadlines[0]
            event = record._event
            if event is not None and event._value is PENDING:
                if record._key != key:
                    record._at, record._entry = record._until, None
                    heapreplace(deadlines, (record._at, record._key, record))
                    due = False
                    continue
                if not due:
                    self._schedule_deadline(record)
                    break
                expired = event
            heappop(deadlines)
            record._at = record._event = record._entry = None
            due = False
        if expired is not None:
            expired._expire()

    def _note_cancelled(self) -> None:
        """Count a heap tombstone; reclaim in bulk when they dominate.

        Called by :meth:`repro.simkernel.events.Timeout.cancel` and for
        a finished process's deadline record.  The threshold keeps
        compaction amortized O(1) per cancellation, and
        the floor keeps tiny simulations from ever paying a heapify.
        """
        self._cancelled += 1
        if self._cancelled > 64 and self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled timeouts and finished processes' deadlines.

        A tombstone is a *succeeded* event with no callbacks left that
        was explicitly defused by ``Timeout.cancel`` — popping it would
        be a no-op, so removing it early changes neither pop order (heap
        keys are unique) nor event ids (cancel never pushes).
        """
        queue = self._queue
        live = [entry for entry in queue
                if type(entry[3]) is tuple  # a call entry
                or not (entry[3]._defused and entry[3]._ok
                        and not entry[3].callbacks)]
        if len(live) != len(queue):
            # In place: the run loop holds a local reference to this list.
            queue[:] = live
            heapify(queue)
        deadlines = self._deadlines
        if deadlines:
            head = deadlines[0]  # it keeps its schedule entry and place
            deadlines[:] = [entry for entry in deadlines
                            if entry[2]._at is not None or entry is head]
            heapify(deadlines)
        self._cancelled = 0

    def _pop(self):
        """Remove and return the next event (or call entry) in (time,
        priority, id) order.

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
        if type(event) is tuple:  # a call entry
            return event[0](event[1])
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
        call_entry = tuple
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
                if type(event) is call_entry:
                    event[0](event[1])
                    continue
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
