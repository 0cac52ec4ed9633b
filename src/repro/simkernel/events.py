"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-coroutine style popularized by
SimPy: simulation *processes* are Python generators that ``yield`` events
(timeouts, queue operations, other processes) and are resumed by the
:class:`~repro.simkernel.core.Environment` when those events trigger.

Everything here is deterministic: given the same seed streams and the same
sequence of scheduled events, a simulation replays identically.

Fast path
---------
This is the hottest code in the repository — every packet, timer and
request in a multi-million-event run flows through it — so the classes
here are optimized:

* every kernel class declares ``__slots__`` (no per-event dict);
* the environment runs a *two-lane* scheduler: events triggered at the
  current simulation time (``succeed``/``fail``/``_finish``/zero-delay
  timeouts — 40–50 % of all events on the ``bench/`` workloads) go
  into plain FIFO deques (one per priority) with no heap entry, no key
  tuple and no sift, while only *future* events touch the heap;
* a network delivery is a call entry (``Environment.call_later``):
  one event, keyed as its timeout was, and no event object;
* a hand-off the run loop would pop next runs in place
  (``Event.deliver``, ``Store.deliver``): an expired wait, a socket
  arrival, an accept or a connect result costs no wake-up event;
* a relay's steady state resumes no process: its handler parks once
  on a ``Relay`` (``env.relay()``, in ``resources``), and each item is
  a step — a plain call armed as the store's reader, for a delay or for
  a CPU charge's completion — at the pop where the generator would
  have resumed; the handler resumes in place at the window edge;
* the events a hop builds are built in place by their factories
  (``Environment.timeout``, ``Store.get``): ``object.__new__``, the
  slot stores and, for a timeout, the push — no class call and no
  ``__init__`` frame (:class:`Timeout` and ``StoreGetEvent`` have no
  ``__init__``, so the factory is the only way to build one);
* :meth:`Process._resume` keeps the generator drive loop free of
  redundant attribute lookups and re-checks, calls ``generator.send``
  without building a bound method first, and a park appends the
  process's one wake-up callback (``_wake``, bound at start), not a
  fresh bound method;
* a wait under a deadline (``Store.get(timeout=...)``,
  ``env.within``) parks the process on its own event and the deadline
  goes into its environment's deadline heap, one :class:`Deadline`
  record per process; the schedule holds a single entry, for the
  heap's head, so waits whose deadline does not fire push no timeout
  each, build no race and leave no tombstone (:meth:`Process._bound`,
  ``Environment._arm_deadline``).

Why the deques are order-preserving: the total order is ``(time,
priority, event id)`` with ids strictly increasing.  A deque holds only
events triggered *while* ``now`` equals their timestamp, and the heap
holds only events pushed when their timestamp was still in the future —
so for any given time ``t``, every heap entry at ``t`` carries a
smaller id than every deque entry at ``t`` (time is non-decreasing, so
all pushes made while ``now < t`` precede all pushes made while
``now == t``).  The run loop therefore drains, at each ``t``: same-time
URGENT heap entries, then the URGENT deque, then same-time NORMAL heap
entries, then the NORMAL deque — exactly heap order.

Every event is built by its environment (``env.timeout``,
``env.process``, ``env.any_of``, ``env.make_store`` …; nothing outside
this package constructs an event class by name).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "TIMED_OUT",
    "Event",
    "Timeout",
    "Deadline",
    "Process",
    "Interrupt",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class _Pending:
    """Sentinel for "this event has no value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


#: Sentinel value stored in an event before it is triggered.
PENDING = _Pending()

#: Scheduling priority for process resumptions (served first at equal time).
URGENT = 0
#: Scheduling priority for ordinary events such as timeouts.
NORMAL = 1


class TimeoutResult:
    """Type of :data:`TIMED_OUT`."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<timed out>"


#: What a wait under a deadline yields when the deadline passed first.
TIMED_OUT = TimeoutResult()

#: Spacing of the heap keys deadlines reserve between two event ids
#: (see :meth:`Process._bound`).
_KEY_STEP = 2.0 ** -24


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupt ``cause`` is available both as ``exc.cause`` and as
    ``exc.args[0]``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The value passed to :meth:`Process.interrupt`."""
        return self.args[0]


def _push(env, event, priority: int, at: float) -> None:
    """Schedule ``event`` at absolute time ``at`` (two-lane fast path).

    Same-time events go to the environment's FIFO deques (see the
    module docstring for the order-preservation argument); future
    events go to the heap.
    """
    if at == env._now:
        (env._ready if priority else env._urgent).append(event)
        env._eid += 1
        return
    env._eid = eid = env._eid + 1
    heappush(env._queue, (at, priority, eid, event))


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*, becomes *triggered* when it gets a value
    (via :meth:`succeed` or :meth:`fail`) and is scheduled, and becomes
    *processed* after the environment has run its callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been run."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("Event has not yet been triggered")
        return self._value

    def defused(self) -> "Event":
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True
        return self

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._ready.append(self)
        env._eid += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        env._ready.append(self)
        env._eid += 1
        return self

    def deliver(self, value: Any = None) -> None:
        """:meth:`succeed`, as the last act of a kernel callback: the
        callbacks run here and now if the run loop would pop this event
        next — no process running, both same-instant lanes empty, no
        heap entry at ``now`` — so this reorders nothing, not even under
        a float-time tie; otherwise the event is scheduled."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        queue = env._queue
        if (env._active_process is not None or env._ready or env._urgent
                or queue and queue[0][0] == env._now):
            env._ready.append(self)
            env._eid += 1
            return
        env._handoffs += 1
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def _expire(self) -> None:
        """The waiter's deadline passed first: deliver
        :data:`TIMED_OUT` (see :meth:`Process._bound`)."""
        self.deliver(TIMED_OUT)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    It has no ``__init__``: ``Environment.timeout`` builds every timeout
    in place."""

    __slots__ = ("_delay",)

    def cancel(self) -> None:
        """Withdraw a timeout nobody is waiting on anymore.

        Only takes effect once ``callbacks`` is empty (the caller must
        detach its own callback first): a timeout other processes still
        wait on keeps firing for them.  A cancelled timeout stays in the
        schedule as a tombstone — it pops as a no-op at its original
        time, so event ids and the clock advance identically to an
        uncancelled run — but the environment reclaims tombstones in
        bulk once they dominate the heap (see ``Environment._compact``),
        which keeps races that cancel their loser (``with_timeout``)
        from growing the heap without bound.

        ``Process.interrupt`` calls this through its generic
        ``target.cancel`` hook, so interrupting a process parked on a
        private timeout also reclaims that timeout.
        """
        callbacks = self.callbacks
        if callbacks is None or callbacks:
            return  # already processed, or others still waiting
        # Reuse the (otherwise meaningless for succeeded events)
        # ``_defused`` flag as the tombstone marker: succeeded heap
        # entries only ever carry it through this method.
        self._defused = True
        if self._delay > 0:
            self.env._note_cancelled()


class Deadline:
    """A process's record in the deadline heap (:meth:`Process._bound`):
    heap entry time ``_at`` (None: out), deadline ``_until`` / ``_key``,
    bounded wait ``_event`` and schedule ``_entry`` while it was head."""

    __slots__ = ("_at", "_until", "_key", "_event", "_entry")


class Initialize(Event):
    """Internal event used to start a new :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):  # noqa: F821
        self.env = env
        self.callbacks = [process._wake]
        self._value = None
        self._ok = True
        self._defused = False
        env._urgent.append(self)
        env._eid += 1


class Process(Event):
    """Wraps a generator and drives it through the events it yields.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the exception the
    generator raised.
    """

    __slots__ = ("_generator", "_target", "_deadline", "_wake")

    def __init__(self, env: "Environment", generator: Generator):  # noqa: F821
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The one wake-up callback every park appends (bound once, not
        #: per park; dropped in ``_finish``).
        self._wake = self._resume
        self._target: Optional[Event] = Initialize(env, self)
        self._deadline: Optional[Deadline] = None

    @property
    def is_alive(self) -> bool:
        """``True`` until the generator has finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        Interrupting a dead process, or a process from within itself, is an
        error.  The interrupt is delivered at the current simulation time
        with urgent priority.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("A process is not allowed to interrupt itself")
        # Detach from whatever we were waiting on, so that the old target
        # does not resume us a second time once it triggers.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._wake)
            except ValueError:
                pass
            # Withdraw queue registrations (store gets etc.): a dead
            # waiter must not consume an item that arrives later.
            cancel = getattr(self._target, "cancel", None)
            if cancel is not None:
                cancel()
        env = self.env
        event = Event(env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._wake)
        env._urgent.append(event)
        env._eid += 1

    def _bound(self, event: Event, delay: float) -> None:
        """Bound the wait this process is about to make on ``event`` by
        ``delay``: if ``event`` is still pending then, it is expired
        (:meth:`Event._expire`) and the process wakes with
        :data:`TIMED_OUT`.  The process must park on ``event`` next;
        parking on anything else ends the bound.

        The deadline reserves the heap key a timeout pushed now would
        sort at, between the last event id and the next one.  If the
        process's record has a heap entry no later than it, the record
        just carries it (re-keyed when it reaches the head); otherwise
        the record gets an entry (``Environment._arm_deadline``).  So it
        fires at the float and in the order a timeout per wait would,
        costing an event only as the heap's head.  One due at once is a
        zero-delay call entry.
        """
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        env = self.env
        now = env._now
        until = now + delay
        if until == now:
            env.call_later(0, lambda event: self._target is event
                           and event._value is PENDING and event._expire(),
                           event)
            return
        eid = env._eid
        last = env._reserved_key
        base = last if last > eid else eid
        key = base + _KEY_STEP
        if not base < key < eid + 1:
            # No key left between two event ids: take the next id.
            key = env._eid = eid + 1
        env._reserved_key = key
        record = self._deadline
        if record is not None and record._at is not None:
            if record._at <= until:
                record._until, record._key, record._event = until, key, event
                return
            record._event = record._at = None  # its entry comes too late
            record = None
        if record is None:
            record = self._deadline = Deadline()
        record._at = record._until = until
        record._key, record._event, record._entry = key, event, None
        env._arm_deadline(record)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        if self._value is not PENDING:
            # Already finished (e.g. the event we once waited on fires after
            # an interrupt ended us).  Nothing to do.
            return
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            if event._ok:
                try:
                    # Called, not bound first: a method call builds no
                    # bound method object.
                    next_target = generator.send(event._value)
                except StopIteration as stop:
                    self._finish(True, stop.value)
                    break
                except BaseException as exc:
                    self._finish(False, exc)
                    break
            else:
                # The event failed: throw the exception into the generator.
                event._defused = True
                try:
                    next_target = generator.throw(event._value)
                except StopIteration as stop:
                    self._finish(True, stop.value)
                    break
                except BaseException as exc:
                    if isinstance(exc, Interrupt) and exc is event._value:
                        # An uncaught interrupt cancels the process quietly
                        # (the asyncio.CancelledError convention): process
                        # teardown interrupts every task of an exiting OS
                        # process and most tasks have nothing to clean up.
                        # Nobody reads its traceback, which would hold
                        # this frame and so the interrupt itself: a
                        # cycle that only the collector could free.
                        exc.__traceback__ = None
                        self._finish(True, None)
                        break
                    self._finish(False, exc)
                    break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"Process yielded a non-event: {next_target!r}")
                try:
                    event = Event(env)
                    event._ok = False
                    event._value = exc
                    event._defused = True
                    generator.throw(exc)
                except StopIteration as stop:
                    self._finish(True, stop.value)
                except BaseException as err:
                    self._finish(False, err)
                break

            callbacks = next_target.callbacks
            if callbacks is not None:
                # Target not yet processed: park until it triggers.
                callbacks.append(self._wake)
                self._target = next_target
                record = self._deadline
                if record is not None and record._event is not next_target:
                    # The bounded wait is over: let go of its event
                    # (and the item it holds) before the deadline.
                    record._event = None
                break
            # Target already processed: loop immediately with its value.
            event = next_target

        env._active_process = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        self._target = self._wake = None
        record, self._deadline = self._deadline, None
        if record is not None and record._at is not None:
            # Its record holds neither this process nor its wait; it
            # leaves the heap at its head or at the next compaction.
            record._event = record._at = None
            self.env._note_cancelled()
        if ok and not self.callbacks:
            # Nobody waits on it: born processed, nothing scheduled.
            # (A failure always is, so that the run loop raises it.)
            self.callbacks = None
            return
        env = self.env
        env._ready.append(self)
        env._eid += 1


class Condition(Event):
    """An event that triggers when a predicate over child events holds."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env: "Environment", evaluate: Callable, events: Iterable[Event]):  # noqa: F821
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("Condition spans multiple environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_event(events: list[Event], count: int) -> bool:
        return count > 0 or not events

    def _collect_values(self) -> dict[Event, Any]:
        """Values of the children that *have been processed* and succeeded.

        Known quirk (kept deliberately — see ``tests/simkernel/
        test_condition_quirk.py``): a child that succeeds *after* the
        condition has already triggered is excluded from the value dict,
        and so is a child that is triggered but whose callbacks have not
        yet run at trigger time.  For an :class:`AnyOf` race this means
        the dict holds exactly the winners processed so far, not every
        child that eventually succeeds.  Callers that need late values
        must read ``child.value`` directly.
        """
        return {e: e._value for e in self._events if e.callbacks is None and e._ok}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                # The race is over but a late loser failed: absorb it so
                # the kernel does not treat it as an unhandled error.
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())
        else:
            return
        # Decided: nothing reads the children again.  A loser still
        # holds this check in its callbacks; letting go of the loser
        # here leaves no cycle, so refcounting frees both.
        self._events = None


class AllOf(Condition):
    """Triggers once *all* of ``events`` have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):  # noqa: F821
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers once *any* of ``events`` has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):  # noqa: F821
        super().__init__(env, Condition.any_event, events)
