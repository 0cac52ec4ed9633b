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
* Likewise a process that finishes successfully with no callback
  registered is born processed (``events.Process._finish``).
* ``Store.get(timeout=...)`` schedules nothing for its deadline unless
  it becomes the head of the environment's deadline heap, which keeps
  one schedule entry; the heap expires the get (withdrawn, handed
  ``TIMED_OUT`` by ``Event.deliver``) only if it is still pending at
  its deadline (``events.Process._bound``).

The frozen kernel in :mod:`repro.simkernel.reference` still schedules
every put, get and finish (its ``Store.deliver`` is its ``put``, its
``Event.deliver`` its ``succeed``), and races each get under a deadline
against a timeout of its own.  A put event had no waiter — it popped as
a no-op — and removing a no-op from the schedule changes no other pop;
a getter woken in place is the event the run loop would have popped
next, so running it there moves no other pop either.  So a run here
differs from a reference run in the scheduled-event count
(``env._eid``) and in nothing a model observes:
``tests/perf/test_differential.py`` holds every other field equal.

Construct a store through the
:class:`~repro.simkernel.core.Environment` factory method
(``env.make_store()``), like every other event: a simulation driven by
the reference environment then gets the frozen implementation and
never meets these classes.  A get is built by its factory,
:meth:`Store.get`, in place — ``object.__new__`` and the slot stores,
no class call and no ``__init__`` frame per receive
(:class:`StoreGetEvent` has no ``__init__``), as
``Environment.timeout`` builds a timeout.
"""

from __future__ import annotations

from typing import Any, Optional

from .core import Environment
from .events import NORMAL, PENDING, TIMED_OUT, Event, SimulationError, _push

#: Builds a slotted event without its class call (see :meth:`Store.get`).
_new = object.__new__

__all__ = ["Store", "StoreGetEvent"]


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

    __slots__ = ("env", "items", "_get_queue")

    def __init__(self, env: Environment):
        self.env = env
        self.items: list[Any] = []
        #: Parked getters, oldest first; withdrawn ones are dropped
        #: lazily (see :meth:`put`).
        self._get_queue: list[StoreGetEvent] = []

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest parked getter, or store it."""
        get_queue = self._get_queue
        while get_queue:
            get_event = get_queue.pop(0)
            if not get_event._cancelled:
                get_event.succeed(item)
                return
        self.items.append(item)

    def deliver(self, item: Any) -> None:
        """:meth:`put` for a kernel callback whose last act it is: the
        oldest parked getter is handed ``item`` by ``Event.deliver``, so
        it resumes here and now if the run loop would pop it next."""
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


# -- Environment factory method --------------------------------------------
#
# Attached here (rather than defined on Environment) to avoid a circular
# import; ``repro.simkernel.__init__`` imports this module, so the
# factory exists whenever the package is in use.  The frozen reference
# environment defines its own factory returning the frozen store, which
# is how differential runs swap the *entire* kernel — events, run loop
# and store — in one place.

def _make_store(self: Environment) -> Store:
    """A :class:`Store` bound to this environment's kernel."""
    return Store(self)


Environment.make_store = _make_store  # type: ignore[attr-defined]
