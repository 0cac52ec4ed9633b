"""Consistent hashing ring (used by Katran and by broker selection).

Two places in the paper need consistent hashing:

* Katran picks an L7LB for each flow by consistent-hashing the packet
  header (§2.1), so routing survives small membership changes;
* MQTT user-id → broker mapping (§4.2), so *any* Origin proxy can find
  the broker holding a user's session context.
"""

from __future__ import annotations

import bisect
from typing import Generic, Hashable, Optional, Sequence, TypeVar

from ..netsim.addresses import stable_hash

__all__ = ["ConsistentHashRing"]

Node = TypeVar("Node", bound=Hashable)


class ConsistentHashRing(Generic[Node]):
    """A classic ring-hash with virtual nodes.

    ``replicas`` virtual points per node keep the load spread even;
    lookups walk clockwise to the first point at or after the key hash.
    """

    def __init__(self, replicas: int = 100, salt: int = 0,
                 point_space: Optional[int] = None):
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        if point_space is not None and point_space <= 0:
            raise ValueError("point_space must be positive")
        self.replicas = replicas
        self.salt = salt
        #: Modulus applied to hash values.  Production rings keep the
        #: full 32-bit space; tests shrink it to force point collisions.
        self.point_space = point_space
        self._points: list[int] = []
        self._point_node: dict[int, Node] = {}
        #: Every node claiming each point, in arrival order.  Collided
        #: points survive membership churn: when the owning node leaves,
        #: the point is re-assigned to the next claimant instead of
        #: being dropped from the ring forever.
        self._point_claims: dict[int, list[Node]] = {}
        self._nodes: set[Node] = set()

    def _hash(self, *parts) -> int:
        value = stable_hash(*parts)
        if self.point_space is not None:
            value %= self.point_space
        return value

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> set[Node]:
        return set(self._nodes)

    @property
    def point_count(self) -> int:
        """Live virtual points (distinct hash positions on the ring)."""
        return len(self._points)

    def add(self, node: Node) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = self._hash("chash", self.salt, node, replica)
            claims = self._point_claims.get(point)
            if claims is None:
                self._point_claims[point] = [node]
                self._point_node[point] = node
                bisect.insort(self._points, point)
            else:
                # On the (rare) collision the earlier node keeps the
                # point; later claimants queue behind it.
                claims.append(node)

    def remove(self, node: Node) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for replica in range(self.replicas):
            point = self._hash("chash", self.salt, node, replica)
            claims = self._point_claims.get(point)
            if claims is None or node not in claims:
                continue
            # One claim per replica: a node whose own replicas collide
            # holds several claims on the same point.
            claims.remove(node)
            if claims:
                self._point_node[point] = claims[0]
                continue
            del self._point_claims[point]
            del self._point_node[point]
            index = bisect.bisect_left(self._points, point)
            if index < len(self._points) and self._points[index] == point:
                self._points.pop(index)

    def lookup(self, *key_parts) -> Optional[Node]:
        """The node owning ``key`` (None when the ring is empty)."""
        if not self._points:
            return None
        # Through _hash so the key lives in the same (possibly reduced)
        # space as the ring points; a full-width key above every reduced
        # point would make bisect wrap every lookup to index 0.
        key = self._hash("chash-key", self.salt, *key_parts)
        index = bisect.bisect_right(self._points, key)
        if index == len(self._points):
            index = 0
        return self._point_node[self._points[index]]

