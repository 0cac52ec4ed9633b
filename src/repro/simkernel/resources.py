"""The kernel's one shared-resource primitive: the store.

:class:`Store` is an unbounded FIFO of items (socket receive queues,
accept queues, message mailboxes).  It covers every coordination
pattern the network simulation needs; a host's cores are a counter its
:class:`~repro.netsim.cpu.CpuModel` keeps itself.

Only what somebody waits on is scheduled
----------------------------------------
Store operations happen once per packet/request, so they schedule an
event only where a process can be parked on it:

* ``Store.put`` hands the item to the oldest parked getter (that *get*
  event is scheduled) or appends it to ``items``; it returns nothing
  and schedules nothing for itself.
* ``Store.deliver`` is ``put`` for a kernel callback that ends by
  feeding a store — a network delivery reaching a socket inbox or a
  listener's accept queue, or the HTTP/2 demux that socket hands its
  arrivals to: it hands the item to the parked getter with
  ``Event.deliver``, so whenever the run loop would pop that get next,
  the delivery itself is the reader's wake-up and the get is never
  scheduled.
* A store holds at most one *reader* (:meth:`Relay.read`): a relay
  handler's step, armed for the next item the way a parked get is.  A
  queued item runs it as a same-instant call entry (one event id, as a
  get that finds an item); ``put`` schedules it, as ``succeed`` does;
  ``deliver`` runs it here and now under ``Event.deliver``'s condition
  (counted in ``handoffs``) and schedules it otherwise.  So a relayed
  item is handed on with no get event, and no process resumes for it.
* Likewise a process that finishes successfully with no callback
  registered is born processed (``events.Process._finish``).
* ``Store.get(timeout=...)`` schedules nothing for its deadline unless
  it becomes the head of the environment's deadline heap, which keeps
  one schedule entry; the heap expires the get (withdrawn, handed
  ``TIMED_OUT`` by ``Event.deliver``) only if it is still pending at
  its deadline (``events.Process._bound``).

Construct a store through the
:class:`~repro.simkernel.core.Environment` factory method
(``env.make_store()``), like every other event, and a relay through
``env.relay()``.  A get is built by its
factory, :meth:`Store.get`, in place — ``object.__new__`` and the slot
stores, no class call and no ``__init__`` frame per receive
(:class:`StoreGetEvent` has no ``__init__``), as
``Environment.timeout`` builds a timeout.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .core import Environment
from .events import NORMAL, PENDING, TIMED_OUT, Event, SimulationError, _push

#: Builds a slotted event without its class call (see :meth:`Store.get`).
_new = object.__new__

__all__ = ["Store", "StoreGetEvent", "Relay"]


class StoreGetEvent(Event):
    """Event returned by :meth:`Store.get`; succeeds with the item.

    It has no ``__init__``: ``Store.get`` builds every get in place."""

    __slots__ = ("_cancelled",)

    def cancel(self) -> None:
        """Withdraw this get request if it has not yet been fulfilled."""
        if self._value is PENDING:
            self._cancelled = True

    def _expire(self) -> None:
        """The waiter's deadline passed first: withdraw this get and
        wake the waiter with ``TIMED_OUT``."""
        if not self._cancelled:
            self._cancelled = True
            self.deliver(TIMED_OUT)


class Store:
    """An unbounded FIFO store of items; ``get`` blocks while it is empty."""

    __slots__ = ("env", "items", "_get_queue", "_reader")

    def __init__(self, env: Environment):
        self.env = env
        self.items: list[Any] = []
        #: Parked getters, oldest first; withdrawn ones are dropped
        #: lazily (see :meth:`put`).
        self._get_queue: list[StoreGetEvent] = []
        #: The relay armed for the next item, if any (:meth:`Relay.read`);
        #: a store with a reader has no live getter.
        self._reader: Optional[Relay] = None

    def put(self, item: Any) -> None:
        """Hand ``item`` to the reader or the oldest parked getter (both
        scheduled), or store it."""
        reader = self._reader
        if reader is not None:
            self._reader = None
            env = self.env
            env._ready.append((reader.step, item))
            env._eid += 1
            return
        get_queue = self._get_queue
        while get_queue:
            get_event = get_queue.pop(0)
            if not get_event._cancelled:
                get_event.succeed(item)
                return
        self.items.append(item)

    def deliver(self, item: Any) -> None:
        """:meth:`put` for a kernel callback whose last act it is: the
        reader runs, or the oldest parked getter is handed ``item`` by
        ``Event.deliver``, here and now if the run loop would pop its
        entry next."""
        reader = self._reader
        if reader is not None:
            self._reader = None
            env = self.env
            queue = env._queue
            # ``Event.deliver``'s condition.
            if (env._active_process is not None or env._ready
                    or env._urgent or queue and queue[0][0] == env._now):
                env._ready.append((reader.step, item))
                env._eid += 1
                return
            env._handoffs += 1
            reader.step(item)
            return
        get_queue = self._get_queue
        while get_queue:
            get_event = get_queue.pop(0)
            if not get_event._cancelled:
                get_event.deliver(item)
                return
        self.items.append(item)

    def get(self, timeout: Optional[float] = None) -> StoreGetEvent:
        """Request the next item; returns an event.

        With a ``timeout`` the running process waits at most that long:
        the event yields the item, or ``TIMED_OUT`` and the get is
        withdrawn (:meth:`Environment.within`, inlined).  The event is
        built in place — no class call, no ``__init__`` frame per receive.
        """
        env = self.env
        event = _new(StoreGetEvent)
        event.env = env
        event.callbacks = []
        event._defused = False
        event._cancelled = False
        items = self.items
        if items:
            # ``put`` never leaves an item beside a live getter, so the
            # head item is this getter's; a deadline has nothing to
            # bound.
            event._ok = True
            event._value = items.pop(0)
            _push(env, event, NORMAL, env._now)
            return event
        event._ok = None
        event._value = PENDING
        get_queue = self._get_queue
        # Withdrawn getters are dropped lazily; doing it here as well
        # as in ``put`` bounds the queue of a store that is polled
        # under a deadline but rarely fed.
        while get_queue and get_queue[0]._cancelled:
            get_queue.pop(0)
        if self._reader is not None:
            raise SimulationError("a store with a reader takes no getter")
        get_queue.append(event)
        if timeout is None:
            return event
        process = env._active_process
        if process is None:
            raise SimulationError("only a running process can wait "
                                  "under a deadline")
        process._bound(event, timeout)
        return event

    def try_get(self) -> Any:
        """Synchronously pop the next item, or ``None`` if empty."""
        return self.items.pop(0) if self.items else None


class Relay(Event):
    """What a relay handler parks on while its steps relay for it.

    A relay's steady state — take the next item, maybe burn CPU, send
    it on, again — runs as *steps*: plain calls, each armed for the
    next item of a store (:meth:`read`), for a delay (:meth:`later`) or
    for the end of a CPU burst (:meth:`charge`).  The handler's
    generator arms the first step and yields the relay once.  A step
    runs as the handler (``env.active_process`` is the handler while it
    runs), at the pop where the loop it replaces would have resumed the
    handler, so every event id, every hand-off in place and every
    decision that asks for the running process come out as that
    loop's.  At the window edge —
    the last item, the peer gone, anything but the steady state — the
    step hands back to the handler with :meth:`wake`, here and now:
    the loop continued in that same pop, so this adds no event.

    An interrupt still lands on the handler: ``Process.interrupt``
    calls :meth:`cancel`, which withdraws the reader and drops a step
    already scheduled, as it withdraws a parked get; the handler's
    ``finally`` calls :meth:`close`, which withdraws a burst still
    charged when the interrupt is thrown, as ``execute``'s interrupt
    arm did.

    It has no ``__init__``: ``env.relay()`` builds it in place, for the
    running process.
    """

    __slots__ = ("_process", "_next", "_store", "_work")

    def read(self, store: Store, fn: Callable[[Any], None]) -> None:
        """Make ``fn`` the step for ``store``'s next item: the relay is
        the store's reader until an item comes (a queued one runs it as
        a same-instant call entry, the event a get that finds an item
        schedules)."""
        self._next = fn
        items = store.items
        if items:
            env = self.env
            env._ready.append((self.step, items.pop(0)))
            env._eid += 1
            return
        get_queue = store._get_queue
        while get_queue and get_queue[0]._cancelled:
            get_queue.pop(0)
        if get_queue:
            raise SimulationError("a store with a parked getter takes "
                                  "no reader")
        self._store = store
        store._reader = self

    def later(self, delay: float, fn: Callable[[Any], None],
              arg: Any) -> None:
        """Make ``fn(arg)`` the step due after ``delay``: a call entry
        at the key a timeout made now would have."""
        self._next = fn
        self.env.call_later(delay, self.step, arg)

    def charge(self, cpu, work_units: float, fn: Callable[[Any], None],
               arg: Any) -> None:
        """Make ``fn(arg)`` the step due when a burst of ``work_units``
        on ``cpu`` ends (``cpu.charge``, the callback form of
        ``CpuModel.execute``).  The relay holds the burst until then,
        for :meth:`close`; with no work, ``fn`` has run already."""
        self._next = fn
        work = cpu.charge(work_units, self.step, arg)
        if work is not None:
            self._work = work

    def step(self, arg: Any) -> None:
        """Run the pending step on ``arg``, as the handler; nothing once
        the handler was interrupted."""
        fn = self._next
        if fn is None:
            return
        self._next = self._work = None
        env = self.env
        outer = env._active_process
        env._active_process = self._process
        fn(arg)
        env._active_process = outer

    def wake(self, value: Any = None) -> None:
        """The window edge: the parked handler resumes with ``value``
        here and now, as the loop it replaces went on in this pop."""
        self._hand_back(True, value)

    def throw(self, exception: BaseException) -> None:
        """:meth:`wake`, raising ``exception`` in the handler where it
        is parked: what the loop raised in this pop (a failed send), its
        own ``except`` clauses catch."""
        self._hand_back(False, exception)

    def _hand_back(self, ok: bool, value: Any) -> None:
        self._next = None
        self._ok = ok
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def cancel(self) -> None:
        """Withdraw the reader and drop a pending step (a scheduled one
        pops as a no-op): ``Process.interrupt``'s hook, as a parked
        get's withdrawal is."""
        self._next = None
        store = self._store
        if store is not None and store._reader is self:
            store._reader = None

    def close(self) -> None:
        """The handler leaves (its ``finally``): a burst still charged
        is withdrawn, its core handed on (``Charge.cancel``)."""
        work = self._work
        if work is not None:
            self._work = None
            work.cancel()


# -- Environment factory methods -------------------------------------------
#
# Attached here (rather than defined on Environment) to avoid a circular
# import; ``repro.simkernel.__init__`` imports this module, so the
# factories exist whenever the package is in use.

def _make_store(self: Environment) -> Store:
    """A :class:`Store` bound to this environment's kernel."""
    return Store(self)


def _relay(self: Environment) -> Relay:
    """A :class:`Relay` for the running process, built in place."""
    process = self._active_process
    if process is None:
        raise SimulationError("only a running process can relay")
    relay = _new(Relay)
    relay.env = self
    relay.callbacks = []
    relay._value = PENDING
    relay._ok = None
    relay._defused = False
    relay._process = process
    relay._next = relay._store = relay._work = None
    return relay


Environment.make_store = _make_store  # type: ignore[attr-defined]
Environment.relay = _relay  # type: ignore[attr-defined]
