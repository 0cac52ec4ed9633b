"""Shared-resource primitives: stores (queues) and capacity resources.

These cover all the coordination patterns the network simulation needs:

* :class:`Store` — an unbounded/bounded FIFO of items (socket receive
  queues, accept queues, message mailboxes).
* :class:`Resource` — a counted resource with FIFO waiters (CPU cores).

Fast path
---------
Store and resource events are created once per packet/request, so the
constructors here take the uncontended path inline: when no other
operation is queued, a ``put``/``get``/``request`` resolves immediately
without round-tripping through the trigger scan.  The succeed *ordering*
is exactly what the scan would have produced (the fast-path guards are
precisely the conditions under which the scan would resolve only this
event), so runs are bit-identical to the frozen reference kernel in
:mod:`repro.simkernel.reference` — see ``tests/perf/test_differential.py``.

Construct these through the :class:`~repro.simkernel.core.Environment`
factory methods (``env.make_store()`` etc.) so that a simulation driven
by the reference environment gets the matching frozen implementations.
"""

from __future__ import annotations

from typing import Any

from .core import Environment
from .events import NORMAL, PENDING, Event, _push

__all__ = ["Store", "Resource", "StorePutEvent", "StoreGetEvent",
           "ResourceRequest"]


class StorePutEvent(Event):
    """Event returned by :meth:`Store.put`; succeeds when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        env = store.env
        self.env = env
        self.callbacks = []
        self._defused = False
        self.item = item
        items = store.items
        if not store._put_queue and not store._get_queue and len(items) < store.capacity:
            # Uncontended: the trigger scan would admit exactly this put.
            items.append(item)
            self._ok = True
            self._value = None
            _push(env, self, NORMAL, env._now)
        else:
            self._ok = None
            self._value = PENDING
            store._put_queue.append(self)
            store._trigger()


class StoreGetEvent(Event):
    """Event returned by :meth:`Store.get`; succeeds with the item."""

    __slots__ = ("_cancelled",)

    def __init__(self, store: "Store"):
        env = store.env
        self.env = env
        self.callbacks = []
        self._defused = False
        self._cancelled = False
        if not store._get_queue and not store._put_queue:
            # Uncontended: serve the next item immediately if present.
            items = store.items
            if items:
                self._ok = True
                self._value = items.pop(0)
                _push(env, self, NORMAL, env._now)
                return
            # Empty and both queues empty: the trigger scan would be a
            # no-op, so just park.
            self._ok = None
            self._value = PENDING
            store._get_queue.append(self)
            return
        self._ok = None
        self._value = PENDING
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw this get request if it has not yet been fulfilled."""
        if self._value is PENDING:
            self._cancelled = True


class Store:
    """A FIFO store of items with optional capacity.

    ``put`` blocks (i.e. the returned event stays untriggered) while the
    store is full; ``get`` blocks while it is empty.
    """

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

    def get(self) -> StoreGetEvent:
        """Request the next item; returns an event."""
        return StoreGetEvent(self)

    def try_get(self) -> Any:
        """Synchronously pop the next item, or ``None`` if empty."""
        if self.items:
            item = self.items.pop(0)
            self._trigger()
            return item
        return None

    # -- internal -----------------------------------------------------------

    def _trigger(self) -> None:
        items = self.items
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            # Admit pending puts while there is room.
            put_queue = self._put_queue
            while put_queue and len(items) < capacity:
                put_event = put_queue.pop(0)
                items.append(put_event.item)
                put_event.succeed()
                progressed = True
            # Serve pending gets while there are items.
            get_queue = self._get_queue
            if get_queue:
                remaining: list[StoreGetEvent] = []
                for get_event in get_queue:
                    if get_event._cancelled:
                        progressed = True
                    elif items:
                        get_event.succeed(items.pop(0))
                        progressed = True
                    else:
                        remaining.append(get_event)
                self._get_queue = remaining


class ResourceRequest(Event):
    """A request for one unit of a :class:`Resource`.

    Usable as a context manager inside a process::

        with cpu.request() as req:
            yield req
            yield env.timeout(work)
    """

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        env = resource.env
        self.env = env
        self.callbacks = []
        self._defused = False
        self.resource = resource
        self._released = False
        users = resource.users
        if not resource._queue and len(users) < resource.capacity:
            # Uncontended: the grant loop would serve exactly this request.
            users.append(self)
            self._ok = True
            self._value = None
            _push(env, self, NORMAL, env._now)
        else:
            self._ok = None
            self._value = PENDING
            resource._queue.append(self)
            resource._trigger()

    def release(self) -> None:
        """Release the unit held (or withdraw the pending request)."""
        if self._released:
            return
        self._released = True
        self.resource._release(self)

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Resource:
    """A counted resource (e.g. CPU cores) with FIFO waiters."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[ResourceRequest] = []
        self._queue: list[ResourceRequest] = []

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting."""
        return len(self._queue)

    def request(self) -> ResourceRequest:
        """Request one unit; returns an event that succeeds on grant."""
        return ResourceRequest(self)

    def _release(self, request: ResourceRequest) -> None:
        if request in self.users:
            self.users.remove(request)
        elif request in self._queue:
            self._queue.remove(request)
        self._trigger()

    def _trigger(self) -> None:
        queue = self._queue
        users = self.users
        capacity = self.capacity
        while queue and len(users) < capacity:
            request = queue.pop(0)
            users.append(request)
            request.succeed()


# -- Environment factory methods -------------------------------------------
#
# Attached here (rather than defined on Environment) to avoid a circular
# import; ``repro.simkernel.__init__`` imports this module, so the
# factories exist whenever the package is in use.  The frozen reference
# environment defines its own factories returning the frozen resource
# classes, which is how differential runs swap the *entire* kernel —
# events, run loop, and resource machinery — in one place.

def _make_store(self: Environment, capacity: float = float("inf")) -> Store:
    """A :class:`Store` bound to this environment's kernel."""
    return Store(self, capacity)


def _make_resource(self: Environment, capacity: int = 1) -> Resource:
    """A :class:`Resource` bound to this environment's kernel."""
    return Resource(self, capacity)


Environment.make_store = _make_store  # type: ignore[attr-defined]
Environment.make_resource = _make_resource  # type: ignore[attr-defined]
