"""Pluggable flow routers: the L4LB design space around the §5.1 fix.

The paper's remediation for health-check-flap misrouting — an LRU
connection table in Katran — is one point in a well-studied trade-off
space ("LB Scalability: Stateful vs Stateless", Concury; see PAPERS.md).
This module makes the router a pluggable policy so the repo can measure
the whole spectrum under identical churn:

* ``stateless`` — pure consistent hashing.  Zero per-flow memory, and
  any L4LB replica picks identically, but every ring change remaps the
  flows that hashed onto the changed node.
* ``stateful``  — a full per-flow table with TTL expiry.  Perfect
  connection consistency while a flow's entry lives, at one table entry
  per live flow, and the table is local: a takeover by a fresh L4LB
  instance starts empty.
* ``lru``       — the paper's bounded-LRU hybrid: consistent hashing
  with a most-recent-flows cache pinning existing flows through
  momentary ring shuffles.  Bounded memory, but evicted or post-takeover
  flows fall back to the (possibly shuffled) ring.
* ``concury``   — a Concury-style versioned scheme.  Every membership
  change publishes a new *version* of a compact lookup structure (here a
  rendezvous-hash codeword table over that version's healthy set); a
  flow's packets carry the version stamp they were admitted under and
  keep resolving against that version, while new flows use the head.
  The per-flow stamp lives in the packet (client-carried), so the LB
  itself holds only O(versions × backends) state and version tables are
  control-plane data that survive an L4LB takeover.

All routers draw no randomness and read only the injected ``clock``
(sim time), so same-seed runs stay bit-deterministic.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from ..metrics.counters import CounterSet
from ..netsim.addresses import stable_hash
from .consistent_hash import ConsistentHashRing
from .lru import LruConnectionTable

__all__ = ["ROUTER_SCHEMES", "FlowRouter", "StatelessRouter",
           "StatefulRouter", "LruHybridRouter", "ConcuryRouter",
           "make_router"]

#: The four implemented points of the design space, in ablation order.
ROUTER_SCHEMES = ("stateless", "stateful", "lru", "concury")


class FlowRouter:
    """Routing policy behind one L4LB: flow key → backend ip.

    Each scheme implements ``route(key)`` (a backend ip, or None).
    Membership changes arrive as events (``backend_added`` /
    ``backend_up`` / ``backend_down`` / ``backend_removed``); the router
    owns the consistent-hash ring mutations so every implementation sees
    the same sequence.  ``members`` is the *pool* (present backends,
    healthy or not) — the pin guard stateful designs consult; the ring
    holds only the currently-healthy subset.
    """

    scheme = "base"

    def __init__(self, ring: ConsistentHashRing,
                 counters: Optional[CounterSet] = None,
                 clock: Optional[Callable[[], float]] = None):
        self.ring = ring
        self.counters = counters
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.members: set[str] = set()
        #: Total ``route()`` calls (the deterministic pick count).
        self.picks = 0

    def _inc(self, name: str) -> None:
        if self.counters is not None:
            self.counters.inc(name)

    # -- membership events -------------------------------------------------

    def backend_added(self, ip: str) -> None:
        self.members.add(ip)
        self.ring.add(ip)
        self.on_membership_change()

    def backend_up(self, ip: str) -> None:
        self.ring.add(ip)
        self.on_membership_change()

    def backend_down(self, ip: str) -> None:
        self.ring.remove(ip)
        self.on_membership_change()

    def backend_removed(self, ip: str) -> None:
        """Decommission: the backend left the pool permanently."""
        self.members.discard(ip)
        self.ring.remove(ip)
        self.drop_backend_state(ip)
        self.on_membership_change()

    def on_membership_change(self) -> None:
        """Hook: the healthy set just changed."""

    def drop_backend_state(self, ip: str) -> None:
        """Hook: forget any per-flow state pinned to ``ip``."""

    # -- introspection ------------------------------------------------------

    def table_entries(self) -> int:
        """Per-flow entries held *by the LB* right now."""
        return 0

    def memory_stats(self) -> dict[str, float]:
        """Model memory: per-flow and per-version state, by kind."""
        return {"table_entries": float(self.table_entries())}

    def check_invariants(self) -> list[str]:
        """Scheme-specific routing-guarantee self-checks.

        Returns violation messages; empty means the router's structural
        guarantees hold (see :class:`repro.invariants.checkers.
        LbRoutingGuaranteeChecker`).
        """
        return []

    def clone_for_takeover(self) -> "FlowRouter":
        """The router a *fresh* L4LB instance taking over this one's
        flows would run: same policy and membership, but only the state
        that is actually replicated across instances.  Per-flow tables
        are instance-local and start empty; ring and (for Concury)
        version tables are control-plane data every instance shares.
        """
        clone = type(self)(self._fresh_ring(), counters=None,
                           clock=self._clock)
        for ip in sorted(self.members):
            clone.members.add(ip)
        for ip in sorted(self.ring.nodes):
            clone.ring.add(ip)
        clone.on_membership_change()
        return clone

    def _fresh_ring(self) -> ConsistentHashRing:
        return ConsistentHashRing(replicas=self.ring.replicas,
                                  salt=self.ring.salt,
                                  point_space=self.ring.point_space)


class StatelessRouter(FlowRouter):
    """Pure consistent hashing — today's ring with the LRU off."""

    scheme = "stateless"

    def route(self, key: Hashable) -> Optional[str]:
        self.picks += 1
        choice = self.ring.lookup(*key)
        if choice is None:
            self._inc("route_no_backend")
            return None
        self._inc("route_hash")
        return choice


class StatefulRouter(FlowRouter):
    """Full per-flow table with TTL expiry.

    Every admitted flow gets a table entry; packets of a known flow go
    to its recorded backend even while that backend is flapping — the
    strongest consistency, at one entry per live flow.  Entries die via
    the TTL sweep or backend decommission.
    """

    scheme = "stateful"

    def __init__(self, ring: ConsistentHashRing,
                 counters: Optional[CounterSet] = None,
                 clock: Optional[Callable[[], float]] = None,
                 flow_ttl: float = 60.0):
        super().__init__(ring, counters=counters, clock=clock)
        if flow_ttl <= 0:
            raise ValueError("flow_ttl must be positive")
        self.flow_ttl = flow_ttl
        #: key → (backend ip, last seen).
        self._table: dict[Hashable, tuple[str, float]] = {}
        self._next_sweep = 0.0
        self.peak_entries = 0
        self.expired = 0

    def route(self, key: Hashable) -> Optional[str]:
        self.picks += 1
        now = self._clock()
        self._maybe_sweep(now)
        entry = self._table.get(key)
        if entry is not None:
            backend, last_seen = entry
            if now - last_seen <= self.flow_ttl and backend in self.members:
                self._table[key] = (backend, now)
                self._inc("route_table_hit")
                return backend
            del self._table[key]
            self.expired += 1
        choice = self.ring.lookup(*key)
        if choice is None:
            self._inc("route_no_backend")
            return None
        self._table[key] = (choice, now)
        if len(self._table) > self.peak_entries:
            self.peak_entries = len(self._table)
        self._inc("route_hash")
        return choice

    def drop_backend_state(self, ip: str) -> None:
        stale = [k for k, (backend, _) in self._table.items()
                 if backend == ip]
        for key in stale:
            del self._table[key]

    def _maybe_sweep(self, now: float) -> None:
        if now < self._next_sweep:
            return
        self._next_sweep = now + self.flow_ttl / 2.0
        dead = [k for k, (_, seen) in self._table.items()
                if now - seen > self.flow_ttl]
        for key in dead:
            del self._table[key]
        self.expired += len(dead)

    def table_entries(self) -> int:
        return len(self._table)

    def check_invariants(self) -> list[str]:
        stale = sorted({backend for backend, _ in self._table.values()
                        if backend not in self.members})
        if stale:
            return [f"stateful table holds flows pinned to decommissioned "
                    f"backends {stale}"]
        return []


class LruHybridRouter(FlowRouter):
    """The paper's §5.1 remediation: ring + bounded most-recent cache."""

    scheme = "lru"

    def __init__(self, ring: ConsistentHashRing,
                 counters: Optional[CounterSet] = None,
                 clock: Optional[Callable[[], float]] = None,
                 capacity: int = 100_000):
        super().__init__(ring, counters=counters, clock=clock)
        self.lru: LruConnectionTable[Hashable, str] = LruConnectionTable(
            capacity)

    def route(self, key: Hashable) -> Optional[str]:
        self.picks += 1
        cached = self.lru.get(key)
        if cached is not None and cached in self.members:
            # Pin the flow to its backend even through momentary health
            # flaps — the whole point of the table (§5.1).  If the
            # backend is truly gone, the flow's packets fail at the
            # backend, exactly as in production.
            self._inc("route_lru_hit")
            return cached
        choice = self.ring.lookup(*key)
        if choice is None:
            self._inc("route_no_backend")
            return None
        self.lru.put(key, choice)
        self._inc("route_hash")
        return choice

    def drop_backend_state(self, ip: str) -> None:
        self.lru.invalidate_value(ip)

    def table_entries(self) -> int:
        return len(self.lru)

    def check_invariants(self) -> list[str]:
        out = []
        if len(self.lru) > self.lru.capacity:
            out.append(f"LRU holds {len(self.lru)} entries over its "
                       f"capacity {self.lru.capacity}")
        stale = sorted({v for v in self.lru._table.values()
                        if v not in self.members})
        if stale:
            out.append(f"LRU holds flows pinned to decommissioned "
                       f"backends {stale}")
        return out


class _VersionTable:
    """One published routing version: a compact codeword structure.

    Concury builds an Othello-hashing codeword array per version; the
    behavioural contract we model is "a pure, compact function of
    (flow, this version's healthy set)", for which rendezvous hashing
    over the frozen member tuple is an exact stand-in: O(members)
    memory, deterministic, and identical on every L4LB replica.
    """

    __slots__ = ("vid", "members")

    def __init__(self, vid: int, members: tuple[str, ...]):
        self.vid = vid
        self.members = members

    def lookup(self, key: Hashable, salt: int) -> Optional[str]:
        best = None
        best_weight = -1
        for member in self.members:
            weight = stable_hash("concury", salt, member, *key)
            if weight > best_weight:
                best, best_weight = member, weight
        return best


class ConcuryRouter(FlowRouter):
    """Concury-style versioned-codeword router.

    New flows are stamped with the head version and resolve against it;
    packets of old flows resolve against the version they arrived under,
    so a membership change never remaps an existing flow while its
    version is retained.  The stamp is client-carried (in the real
    system it rides the packet, e.g. in a QUIC CID or timestamp option),
    so LB memory is versions × members, not per-flow.
    """

    scheme = "concury"

    def __init__(self, ring: ConsistentHashRing,
                 counters: Optional[CounterSet] = None,
                 clock: Optional[Callable[[], float]] = None,
                 max_versions: int = 8, flow_ttl: float = 60.0):
        super().__init__(ring, counters=counters, clock=clock)
        if max_versions <= 0:
            raise ValueError("max_versions must be positive")
        if flow_ttl <= 0:
            raise ValueError("flow_ttl must be positive")
        self.max_versions = max_versions
        self.flow_ttl = flow_ttl
        self.salt = ring.salt
        self._healthy: set[str] = set()
        self._vid = 0
        self._head = _VersionTable(0, ())
        self._versions: dict[int, _VersionTable] = {0: self._head}
        #: Client-carried stamps: key → (version id, last seen).
        self._flow_version: dict[Hashable, tuple[int, float]] = {}
        self._next_sweep = 0.0
        self.versions_published = 0
        self.versions_retired = 0
        self.version_misses = 0

    # -- membership --------------------------------------------------------

    def backend_added(self, ip: str) -> None:
        self._healthy.add(ip)
        super().backend_added(ip)

    def backend_up(self, ip: str) -> None:
        self._healthy.add(ip)
        super().backend_up(ip)

    def backend_down(self, ip: str) -> None:
        self._healthy.discard(ip)
        super().backend_down(ip)

    def backend_removed(self, ip: str) -> None:
        self._healthy.discard(ip)
        super().backend_removed(ip)

    def on_membership_change(self) -> None:
        members = tuple(sorted(self._healthy))
        if members == self._head.members:
            return
        self._vid += 1
        self._head = _VersionTable(self._vid, members)
        self._versions[self._vid] = self._head
        self.versions_published += 1
        while len(self._versions) > self.max_versions:
            oldest = min(vid for vid in self._versions
                         if vid != self._head.vid)
            del self._versions[oldest]
            self.versions_retired += 1

    # -- routing -----------------------------------------------------------

    def route(self, key: Hashable) -> Optional[str]:
        self.picks += 1
        now = self._clock()
        self._maybe_sweep(now)
        stamp = self._flow_version.get(key)
        if stamp is not None:
            vid, _ = stamp
            table = self._versions.get(vid)
            if table is not None:
                backend = table.lookup(key, self.salt)
                if backend is not None and backend in self.members:
                    self._flow_version[key] = (vid, now)
                    self._inc("route_version_hit")
                    return backend
            # Version retired or backend decommissioned: the flow is
            # re-admitted at head (this is where Concury can misroute).
            del self._flow_version[key]
            self.version_misses += 1
        backend = self._head.lookup(key, self.salt)
        if backend is None:
            self._inc("route_no_backend")
            return None
        self._flow_version[key] = (self._head.vid, now)
        self._inc("route_hash")
        return backend

    def drop_backend_state(self, ip: str) -> None:
        # No LB-side per-flow state to drop: stamped flows whose version
        # maps them onto a decommissioned backend fall through to the
        # head version on their next packet (the route() pool guard).
        pass

    def _maybe_sweep(self, now: float) -> None:
        if now < self._next_sweep:
            return
        self._next_sweep = now + self.flow_ttl / 2.0
        dead = [k for k, (_, seen) in self._flow_version.items()
                if now - seen > self.flow_ttl]
        for key in dead:
            del self._flow_version[key]
        live = {vid for vid, _ in self._flow_version.values()}
        for vid in [v for v in self._versions
                    if v != self._head.vid and v not in live]:
            del self._versions[vid]
            self.versions_retired += 1

    # -- introspection ------------------------------------------------------

    def table_entries(self) -> int:
        return 0  # per-flow stamps are client-carried, not LB memory

    def memory_stats(self) -> dict[str, float]:
        return {
            "table_entries": 0.0,
            "version_tables": float(len(self._versions)),
            "version_table_entries": float(sum(
                len(t.members) for t in self._versions.values())),
            "client_stamps": float(len(self._flow_version)),
        }

    def check_invariants(self) -> list[str]:
        out = []
        if len(self._versions) > self.max_versions:
            out.append(f"{len(self._versions)} versions retained over the "
                       f"cap {self.max_versions}")
        if self._head.vid not in self._versions:
            out.append("head version is not in the retained set")
        if self._head.members != tuple(sorted(self._healthy)):
            out.append("head version table disagrees with the healthy set")
        return out

    def clone_for_takeover(self) -> "ConcuryRouter":
        """Version tables are control-plane data pushed to every L4LB
        replica, so — unlike the per-flow tables — they survive an
        instance takeover.  Client stamps ride the packets themselves.
        """
        clone = ConcuryRouter(self._fresh_ring(), clock=self._clock,
                              max_versions=self.max_versions,
                              flow_ttl=self.flow_ttl)
        clone.members = set(self.members)
        clone._healthy = set(self._healthy)
        for ip in sorted(self.ring.nodes):
            clone.ring.add(ip)
        clone._vid = self._vid
        clone._head = self._head
        clone._versions = dict(self._versions)
        # The taking-over instance resolves in-flight stamps too: they
        # arrive in the packets, modeled by sharing the stamp map.
        clone._flow_version = self._flow_version
        return clone


def make_router(scheme: str, ring: ConsistentHashRing,
                counters: Optional[CounterSet] = None,
                clock: Optional[Callable[[], float]] = None,
                lru_capacity: int = 100_000,
                flow_ttl: float = 60.0,
                concury_max_versions: int = 8) -> FlowRouter:
    """Build the named router over ``ring``."""
    if scheme == "stateless":
        return StatelessRouter(ring, counters=counters, clock=clock)
    if scheme == "stateful":
        return StatefulRouter(ring, counters=counters, clock=clock,
                              flow_ttl=flow_ttl)
    if scheme == "lru":
        return LruHybridRouter(ring, counters=counters, clock=clock,
                               capacity=lru_capacity)
    if scheme == "concury":
        return ConcuryRouter(ring, counters=counters, clock=clock,
                             max_versions=concury_max_versions,
                             flow_ttl=flow_ttl)
    raise ValueError(
        f"unknown lb scheme {scheme!r}; available: {ROUTER_SCHEMES}")
