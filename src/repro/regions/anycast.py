"""Client-side anycast resolution with health-driven region failover.

Real anycast hands a client to the nearest PoP announcing the VIP; when
a region withdraws (or stops answering), BGP re-converges and the same
VIP lands in the next-nearest region.  The simulation models the
*observable* behaviour: each client PoP runs one resolver that probes
every region's entry PoP from the client's vantage point and answers
routing queries with the nearest region that is healthy and not
administratively withdrawn.

Probing mirrors Katran's health checker (down/up streak thresholds);
while a region is down the resolver re-probes it on the resilience
plane's jittered exponential backoff instead of a fixed cadence, so a
fleet of resolvers never thunders back in lock-step.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..netsim.addresses import Endpoint, FourTuple, Protocol
from ..netsim.host import Host
from ..resilience.retry import BackoffPolicy

__all__ = ["AnycastResolver", "RegionTarget"]

# Health probing of each region from a resolver's vantage point.
PROBE_INTERVAL = 1.0
PROBE_TIMEOUT = 0.5
#: Consecutive probe failures before a region is marked down, and
#: consecutive successes before it is marked up again.
DOWN_THRESHOLD = 2
UP_THRESHOLD = 1
#: Multiplicative jitter on every probe wait (desynchronizes the
#: fleet's resolvers).
PROBE_JITTER = 0.2


class RegionTarget:
    """One region as seen from a client PoP's resolver."""

    def __init__(self, region_name: str,
                 router: Callable[[FourTuple], Optional[str]],
                 distance: int):
        self.region_name = region_name
        #: Entry routing into the region (the nearest PoP's ECMP pick).
        self.router = router
        self.distance = distance
        self.healthy = True
        self.withdrawn = False
        self.fail_streak = 0
        self.ok_streak = 0


class AnycastResolver:
    """Routes client flows to the nearest healthy region.

    Implements the client ``Router`` protocol (flow → backend ip), so it
    drops into :class:`~repro.clients.base.ClientBase` unchanged.
    """

    def __init__(self, host: Host, vip: Endpoint,
                 failover: bool = True,
                 name: str = "anycast-resolver"):
        self.host = host
        self.vip = vip
        self.failover = failover
        self.name = name
        self.counters = host.metrics.scoped_counters(name)
        self.rng = host.streams.stream("anycast")
        self.backoff = BackoffPolicy(self.rng)
        #: Nearest first; index 0 is the home region.
        self.targets: list[RegionTarget] = []
        self.process = None

    def add_target(self, region_name: str, router, distance: int) -> None:
        self.targets.append(RegionTarget(region_name, router, distance))
        self.targets.sort(key=lambda t: (t.distance, t.region_name))

    def start(self) -> None:
        self.process = self.host.spawn(self.name)
        # Without failover, routing only ever consults the home region
        # (``route`` slices ``targets[:1]``), so probing remote regions
        # is pure cross-region traffic for nothing — and it is what
        # would couple otherwise-independent regions under the sharded
        # runner (repro.shard).
        monitored = self.targets if self.failover else self.targets[:1]
        for target in monitored:
            self.process.run(self._monitor(target))

    # -- administrative ----------------------------------------------------

    def withdraw(self, region_name: str) -> None:
        """BGP withdraw: stop resolving into ``region_name``."""
        for target in self.targets:
            if target.region_name == region_name and not target.withdrawn:
                target.withdrawn = True
                self.counters.inc("region_withdrawn", tag=region_name)

    # -- routing -----------------------------------------------------------

    def route(self, flow: FourTuple) -> Optional[str]:
        if not self.targets:
            return None
        home = self.targets[0]
        candidates = self.targets if self.failover else self.targets[:1]
        for target in candidates:
            if target.withdrawn or not target.healthy:
                continue
            backend_ip = target.router(flow)
            if backend_ip is None:
                continue
            if target is not home:
                self.counters.inc("failover_route",
                                  tag=target.region_name)
            return backend_ip
        self.counters.inc("route_no_region")
        return None

    # -- health probing ----------------------------------------------------

    def _monitor(self, target: RegionTarget):
        env = self.host.env
        # Desynchronize the per-target probe loops.
        yield env.timeout(self.rng.uniform(0.0, PROBE_INTERVAL))
        attempt = 0
        while self.process.alive:
            ok = yield from self._probe(target)
            self._mark(target, ok)
            if ok:
                attempt = 0
                delay = PROBE_INTERVAL
            else:
                # Down region: jittered exponential backoff between
                # re-probes (the resilience plane's pricing).
                attempt += 1
                delay = PROBE_INTERVAL + self.backoff.delay(attempt)
            yield env.timeout(
                delay * (1.0 + self.rng.uniform(0.0, PROBE_JITTER)))

    def _probe(self, target: RegionTarget):
        """One TCP health probe into the region from our vantage point."""
        probe_flow = FourTuple(
            Protocol.TCP,
            Endpoint(self.host.ip, self.host.kernel.ephemeral_port()),
            self.vip)
        backend_ip = target.router(probe_flow)
        if backend_ip is None:
            return False  # region has no routable backend at all
        return (yield from self.host.kernel.tcp_probe(
            self.process, self.vip, PROBE_TIMEOUT, via_ip=backend_ip))

    def _mark(self, target: RegionTarget, ok: bool) -> None:
        if ok:
            target.ok_streak += 1
            target.fail_streak = 0
            if (not target.healthy
                    and target.ok_streak >= UP_THRESHOLD):
                target.healthy = True
                self.counters.inc("region_up", tag=target.region_name)
        else:
            target.fail_streak += 1
            target.ok_streak = 0
            if (target.healthy
                    and target.fail_streak >= DOWN_THRESHOLD):
                target.healthy = False
                self.counters.inc("region_down", tag=target.region_name)
