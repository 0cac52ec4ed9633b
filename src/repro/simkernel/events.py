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
* :meth:`Process._resume` keeps the generator drive loop free of
  redundant attribute lookups and re-checks;
* a wait under a deadline (``Store.get(timeout=...)``,
  ``env.within``) parks the process on its own event and the
  process's one :class:`Deadline` carries the deadline: armed at the
  first one, re-armed from there, so waits whose deadline does not fire
  push no timeout each, build no race and leave no tombstone
  (:meth:`Process._bound`).

Why the deques are order-preserving: the total order is ``(time,
priority, event id)`` with ids strictly increasing.  A deque holds only
events triggered *while* ``now`` equals their timestamp, and the heap
holds only events pushed when their timestamp was still in the future —
so for any given time ``t``, every heap entry at ``t`` carries a
smaller id than every deque entry at ``t`` (time is non-decreasing, so
all pushes made while ``now < t`` precede all pushes made while
``now == t``).  The run loop therefore drains, at each ``t``: same-time
URGENT heap entries, then the URGENT deque, then same-time NORMAL heap
entries, then the NORMAL deque — exactly heap order, which the
differential tests against the frozen single-heap reference kernel
(:mod:`repro.simkernel.reference`) check on whole runs.

Every event is built by its environment (``env.timeout``,
``env.process``, ``env.any_of``, ``env.make_store`` …; nothing outside
this package constructs an event class by name), so the classes here
only ever meet :class:`~repro.simkernel.core.Environment` and a run
under the frozen reference environment contains none of them.

The pre-optimization implementation is frozen verbatim in
:mod:`repro.simkernel.reference`; ``tests/perf/test_differential.py``
proves the two produce identical runs — every counter, series, tap
ordering and the final clock.  The one thing that differs is the
scheduled-event count: stores and resources here schedule only events
some process waits on (see :mod:`repro.simkernel.resources`), and a
deadline is pushed once per timer period, not once per wait.
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

#: Spacing of the heap keys a deferred deadline reserves between two
#: event ids (see :meth:`Process._bound`).
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

    def _expire(self) -> None:
        """The waiter's deadline passed first: succeed with
        :data:`TIMED_OUT` (see :meth:`Process._bound`)."""
        self.succeed(TIMED_OUT)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        # ``_push(env, self, NORMAL, at)``, inlined: one frame per timeout.
        now = env._now
        at = now + delay
        if at == now:
            env._ready.append(self)
            env._eid += 1
        else:
            env._eid = eid = env._eid + 1
            heappush(env._queue, (at, NORMAL, eid, self))

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


class Deadline(Event):
    """A process's one timer (see :meth:`Process._bound`).

    ``_at`` is when its schedule entry pops, ``_until`` the deadline of
    the wait it bounds, ``_event`` that wait's event.  ``_key`` is None
    when the entry is the deadline's own; otherwise the deadline was
    deferred behind an earlier entry and ``_key`` is the heap key it
    reserved when it was set.
    """

    __slots__ = ("_at", "_until", "_key", "_event")

    def __init__(self, env: "Environment"):  # noqa: F821
        self.env = env
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False

    def _tombstone(self) -> None:
        """Withdraw the armed entry: it pops (or is compacted) as a
        no-op and holds neither its process nor the wait's event."""
        self.callbacks = []
        self._event = None
        self._defused = True
        self.env._note_cancelled()


class Initialize(Event):
    """Internal event used to start a new :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):  # noqa: F821
        self.env = env
        self.callbacks = [process._resume]
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

    __slots__ = ("_generator", "_target", "_timer")

    def __init__(self, env: "Environment", generator: Generator):  # noqa: F821
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)
        self._timer: Optional[Deadline] = None

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
        env = self.env
        event = Event(env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        env._urgent.append(event)
        env._eid += 1

    def _bound(self, event: Event, delay: float) -> None:
        """Bound the wait this process is about to make on ``event`` by
        ``delay``: if ``event`` is still pending then, it is expired
        (:meth:`Event._expire`) and the process wakes with
        :data:`TIMED_OUT`.  The process must park on ``event`` next;
        parking on anything else ends the bound.

        The process owns one :class:`Deadline`, armed at its first
        deadline as a ``Timeout`` would be (``now + delay``, the next
        event id).  While it is armed no later than a new deadline,
        nothing is pushed: the new deadline reserves a heap key between
        the last event id and the next one — where a timeout pushed now
        would sort — and the timer, on firing early, re-arms at that
        time with that key.  A deadline earlier than the armed entry
        tombstones it and arms afresh.  So a deadline pops at the time
        and in the order a timeout pushed per wait would, and a process
        that waits under deadlines which do not fire pushes one entry
        per deadline period instead of one per wait.
        """
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        env = self.env
        now = env._now
        until = now + delay
        timer = self._timer
        if timer is not None and timer.callbacks:
            if timer._at <= until and now < until:
                eid = env._eid
                last = env._deferred_key
                key = (last if last > eid else eid) + _KEY_STEP
                if last < key < eid + 1:
                    env._deferred_key = timer._key = key
                    timer._until = until
                    timer._event = event
                    return
            # The armed entry pops too late (or no key is left between
            # two event ids).
            timer._tombstone()
            timer = None
        if timer is None:
            timer = self._timer = Deadline(env)
        timer.callbacks = [self._on_deadline]
        timer._at = timer._until = until
        timer._key = None
        timer._event = event
        # ``_push(env, timer, NORMAL, until)``, inlined.
        if until == now:
            env._ready.append(timer)
            env._eid += 1
        else:
            env._eid = eid = env._eid + 1
            heappush(env._queue, (until, NORMAL, eid, timer))

    def _on_deadline(self, timer: Deadline) -> None:
        """The timer popped: expire the bounded wait, re-arm at its
        deferred deadline, or — the wait is over — stay disarmed."""
        event = timer._event
        if event is None or event._value is not PENDING:
            # The process parked on something else since (which let go
            # of the event), or the event was decided this instant.
            timer._event = None
            return
        key = timer._key
        if key is None:
            timer._event = None
            event._expire()
            return
        env = self.env
        timer._key = None
        timer._at = until = timer._until
        timer.callbacks = [self._on_deadline]
        env._eid += 1
        heappush(env._queue, (until, NORMAL, key, timer))

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        if self._value is not PENDING:
            # Already finished (e.g. the event we once waited on fires after
            # an interrupt ended us).  Nothing to do.
            return
        env = self.env
        env._active_process = self
        generator = self._generator
        send = generator.send
        while True:
            if event._ok:
                try:
                    next_target = send(event._value)
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
                callbacks.append(self._resume)
                self._target = next_target
                timer = self._timer
                if timer is not None and timer._event is not next_target:
                    # The bounded wait is over: let go of its event
                    # (and the item it holds) before the timer pops.
                    timer._event = None
                break
            # Target already processed: loop immediately with its value.
            event = next_target

        env._active_process = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        self._target = None
        timer = self._timer
        if timer is not None:
            self._timer = None
            if timer.callbacks:
                # Armed: the schedule must not keep this process alive
                # until the entry pops.
                timer._tombstone()
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
