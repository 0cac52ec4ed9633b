"""LRU connection-table cache for the L4LB (§5.1 remediation).

"To avoid instability in routing due to momentary shuffle in the routing
topology ... we recommend adopting a connection table cache for the most
recent flows.  In Facebook we employ a Least Recently Used (LRU) cache in
the Katran (L4LB layer) to absorb such momentary shuffles and facilitate
connections to be routed consistently to the same end server."
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

__all__ = ["LruConnectionTable"]

Key = TypeVar("Key", bound=Hashable)
Value = TypeVar("Value")


class LruConnectionTable(Generic[Key, Value]):
    """A bounded most-recent-flows cache."""

    def __init__(self, capacity: int = 10_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._table: OrderedDict[Key, Value] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Key) -> bool:
        return key in self._table

    def get(self, key: Key) -> Optional[Value]:
        """Look up a flow (refreshes recency on hit)."""
        if key in self._table:
            self._table.move_to_end(key)
            self.hits += 1
            return self._table[key]
        self.misses += 1
        return None

    def put(self, key: Key, value: Value) -> None:
        """Record the routing decision for a flow.

        A refresh of an existing flow only updates value/recency — it can
        never evict.  A genuinely new flow at capacity evicts the LRU
        entry *before* inserting, so the table never transiently exceeds
        its capacity and the eviction counter counts exactly the new
        inserts that displaced someone.
        """
        if key in self._table:
            self._table.move_to_end(key)
            self._table[key] = value
            return
        if len(self._table) >= self.capacity:
            self._table.popitem(last=False)
            self.evictions += 1
        self._table[key] = value

    def invalidate_value(self, value: Value) -> int:
        """Drop every flow pinned to ``value`` (a dead backend)."""
        stale = [k for k, v in self._table.items() if v == value]
        for key in stale:
            del self._table[key]
        return len(stale)
