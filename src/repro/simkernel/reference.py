"""Frozen reference kernel: the pure, unoptimized simulation engine.

This module is a verbatim snapshot of ``events.py`` + ``core.py`` as
they stood *before* the fast-path optimizations (``__slots__``, inlined
resume loop, two-lane scheduling, single-callback dispatch)
landed.  It exists so that every optimization can be *proven*
behavior-identical rather than eyeballed:

* ``tests/perf/test_differential.py`` replays fuzz scenarios and figure
  experiments on both kernels and asserts bit-identical metrics
  snapshots and event-tap orderings.
* ``tests/simkernel/test_kernel_properties.py`` drives property-drawn
  micro programs through both and compares their event logs, scheduled-
  event counts included.

DO NOT OPTIMIZE THIS FILE.  It is the oracle, and its code is the
historical text with no deviations: the two kernels never meet inside a
run.  Model code builds every event through its environment
(``env.timeout``, ``env.process``, ``env.any_of``/``env.all_of``,
``env.make_store``), so a simulation handed a
reference :class:`Environment` consists of the classes below and nothing
else — ``Condition`` included — and the differential compares two whole
kernels.  Only the sentinels and exception types are shared: model
code catches ``Interrupt`` by class.

What this file no longer carries, and why it was not a reference for
anything: the tuple naming both kernels' event classes and the
largest-key bookkeeping in :meth:`Environment.schedule` (shims for
live-hierarchy events driven by this environment, which no longer
occur), and the filtering store, the continuous-quantity container,
the counted resource and their factories (the live kernel lost those
primitives, so nothing was compared against them; a host's cores are
model code, ``netsim.cpu.CpuModel``, the same on both kernels).
``Store`` keeps its capacity, put events and filter hook exactly as
frozen: the live ``Store`` is compared against it.

What it carries that the historical text did not: a wait under a
deadline (``env.within``, ``Store.get(timeout=...)``) is the race the
model once built around each such wait (:class:`Within`), so the live
kernel's one timer per process is compared against it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from . import events as _live

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Within",
    "Store",
]

# Re-use the live kernel's sentinels and exception types: model code
# catches ``Interrupt`` by class whichever kernel threw it.
PENDING = _live.PENDING
URGENT = _live.URGENT
NORMAL = _live.NORMAL
TIMED_OUT = _live.TIMED_OUT
SimulationError = _live.SimulationError
Interrupt = _live.Interrupt


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to stop :meth:`Environment.run` from within a callback."""


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*, becomes *triggered* when it gets a value
    (via :meth:`succeed` or :meth:`fail`) and is scheduled, and becomes
    *processed* after the environment has run its callbacks.
    """

    def __init__(self, env: "Environment"):
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
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("Event has not yet been triggered")
        return self._ok

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
        self.env.schedule(self, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self, priority=NORMAL)

    # -- composition ---------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_event, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, priority=NORMAL, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay

    def cancel(self) -> None:
        """A no-op: this kernel pops a timeout nobody waits on as it
        always did (the live kernel tombstones it)."""


class Initialize(Event):
    """Internal event used to start a new :class:`Process`."""

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """Wraps a generator and drives it through the events it yields.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the exception the
    generator raised.
    """

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

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
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # Withdraw queue registrations (store gets etc.): a dead
            # waiter must not consume an item that arrives later.
            cancel = getattr(self._target, "cancel", None)
            if cancel is not None:
                cancel()
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env.schedule(event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        if not self.is_alive:
            # Already finished (e.g. the event we once waited on fires after
            # an interrupt ended us).  Nothing to do.
            return
        self.env._active_process = self
        while True:
            if event._ok:
                try:
                    next_target = self._generator.send(event._value)
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
                    next_target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._finish(True, stop.value)
                    break
                except BaseException as exc:
                    if isinstance(exc, Interrupt) and exc is event._value:
                        # An uncaught interrupt cancels the process quietly
                        # (the asyncio.CancelledError convention): process
                        # teardown interrupts every task of an exiting OS
                        # process and most tasks have nothing to clean up.
                        self._finish(True, None)
                        break
                    self._finish(False, exc)
                    break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"Process yielded a non-event: {next_target!r}")
                try:
                    event = Event(self.env)
                    event._ok = False
                    event._value = exc
                    event._defused = True
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._finish(True, stop.value)
                except BaseException as err:
                    self._finish(False, err)
                break

            if next_target.callbacks is not None:
                # Target not yet processed: park until it triggers.
                next_target.callbacks.append(self._resume)
                self._target = next_target
                break
            # Target already processed: loop immediately with its value.
            event = next_target

        self.env._active_process = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        if not ok and isinstance(value, BaseException):
            # Will be re-raised by the environment if nobody handles it.
            pass
        self.env.schedule(self, priority=NORMAL)
        self._target = None


class Condition(Event):
    """An event that triggers when a predicate over child events holds."""

    def __init__(self, env: "Environment", evaluate: Callable, events: Iterable[Event]):
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
        return {e: e._value for e in self._events if e.callbacks is None and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
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


class AllOf(Condition):
    """Triggers once *all* of ``events`` have succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers once *any* of ``events`` has succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_event, events)


class Within(AnyOf):
    """``event`` raced against a deadline, exactly as the model's
    ``with_timeout`` helper raced it before a wait carried its deadline.

    Not historical text: it puts that race behind the live kernel's
    ``env.within`` / ``Store.get(timeout=...)``.  Its first callback
    turns the race's value into what the helper returned — ``event``'s
    value, or ``TIMED_OUT`` with ``event`` withdrawn if it can be — and
    detaches the race from the deadline, as the helper's ``finally``
    did; an interrupt does that detaching through :meth:`cancel`.
    """

    def __init__(self, env: "Environment", event: Event, timeout: float):
        self._event = event
        self._deadline = Timeout(env, timeout, TIMED_OUT)
        super().__init__(env, [event, self._deadline])
        self.callbacks.append(self._unwrap)

    def cancel(self) -> None:
        callbacks = self._deadline.callbacks
        if callbacks is not None and self._check in callbacks:
            callbacks.remove(self._check)

    def _unwrap(self, _event: Event) -> None:
        self.cancel()
        if not self._ok:
            return
        if self._event in self._value:
            self._value = self._value[self._event]
            return
        cancel = getattr(self._event, "cancel", None)
        if cancel is not None:
            cancel()
        self._value = TIMED_OUT


class Environment:
    """The pure (pre-optimization) deterministic simulation environment.

    Identical semantics to :class:`repro.simkernel.core.Environment`;
    every heap push goes through :func:`heapq.heappush`, every step
    through one method call, every event through a dict-backed object.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (or ``None``)."""
        return self._active_process

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

    def within(self, event: Event, timeout: float) -> Within:
        """``event``'s value, or ``TIMED_OUT`` after ``timeout``: the race."""
        return Within(self, event, timeout)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay``."""
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        callbacks, event.callbacks = event.callbacks, None
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
        stop_event: Optional[Event] = None

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

        try:
            while True:
                if stop_at is not None and self.peek() > stop_at:
                    self._now = stop_at
                    break
                try:
                    self.step()
                except EmptySchedule:
                    if stop_at is not None:
                        self._now = stop_at
                    break
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

    # -- resource factories --------------------------------------------------
    # The frozen counterpart of ``Environment.make_store`` (attached
    # to the live Environment by ``repro.simkernel.resources``).  A
    # simulation built against a reference environment therefore uses the
    # frozen resource machinery end to end.

    def make_store(self, capacity: float = float("inf")) -> "Store":
        """A frozen-kernel :class:`Store` bound to this environment."""
        return Store(self, capacity)


# -- frozen resource primitives ---------------------------------------------
# Verbatim snapshot of ``resources.py`` before the constructor fast paths
# landed, rebased onto the frozen Event class.  Same trigger-scan
# algorithm, same succeed ordering.


class StorePutEvent(Event):
    """Event returned by :meth:`Store.put`; succeeds when the item is stored."""

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGetEvent(Event):
    """Event returned by :meth:`Store.get`; succeeds with the item."""

    def __init__(self, store: "Store", filter_fn: Optional[Callable[[Any], bool]] = None):
        super().__init__(store.env)
        self.filter_fn = filter_fn
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw this get request if it has not yet been fulfilled."""
        if not self.triggered:
            self._cancelled = True


class Store:
    """A FIFO store of items with optional capacity (frozen kernel)."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._put_queue: list[StorePutEvent] = []
        self._get_queue: list[StoreGetEvent] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePutEvent:
        """Queue ``item`` for storage; returns an event."""
        return StorePutEvent(self, item)

    #: The live store's in-place hand-off; here it schedules, as ``put``.
    deliver = put

    def get(self, timeout: Optional[float] = None) -> Event:
        """Request the next item; returns an event (raced against
        ``timeout`` if given: :class:`Within`)."""
        if timeout is None:
            return StoreGetEvent(self)
        return self.env.within(StoreGetEvent(self), timeout)

    def try_get(self) -> Any:
        """Synchronously pop the next item, or ``None`` if empty."""
        if self.items:
            item = self.items.pop(0)
            self._trigger()
            return item
        return None

    # -- internal -----------------------------------------------------------

    def _match(self, event: StoreGetEvent) -> Optional[int]:
        """Index of the first item satisfying ``event``, or ``None``."""
        if event.filter_fn is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if event.filter_fn(item):
                return i
        return None

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit pending puts while there is room.
            while self._put_queue and len(self.items) < self.capacity:
                put_event = self._put_queue.pop(0)
                self.items.append(put_event.item)
                put_event.succeed()
                progressed = True
            # Serve pending gets that have a matching item.
            remaining: list[StoreGetEvent] = []
            for get_event in self._get_queue:
                if getattr(get_event, "_cancelled", False):
                    progressed = True
                    continue
                idx = self._match(get_event)
                if idx is None:
                    remaining.append(get_event)
                else:
                    item = self.items.pop(idx)
                    get_event.succeed(item)
                    progressed = True
            self._get_queue = remaining
