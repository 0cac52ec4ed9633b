"""Katran: the L4 load balancer (consistent hashing + health checks + LRU).

Katran (§2.1) bridges the routers and the L7LB fleet: routers ECMP
packets across Katran instances (the model has one per PoP, so no ECMP
hop), and Katran consistent-hashes each flow onto an L7LB.  It
continuously health-checks every L7LB; a backend that
fails consecutive probes leaves the ring ("the restarted instances are
removed from Katran table", §6.1.2).  Zero Downtime Restart keeps the
listener answering throughout, so Katran never notices a release.

The routing policy itself is pluggable (``KatranConfig.lb_scheme``, see
:mod:`repro.lb.routers`): the paper's bounded-LRU hybrid is the default,
with pure-stateless, fully-stateful, and Concury-style versioned routers
available for the design-space ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..netsim.addresses import Endpoint, FourTuple
from ..netsim.host import Host
from ..netsim.process import SimProcess
from .consistent_hash import ConsistentHashRing
from .routers import ROUTER_SCHEMES, FlowRouter, make_router

__all__ = ["Katran", "KatranConfig", "BackendState"]

#: Virtual nodes per backend on the consistent-hash ring.
HASH_REPLICAS = 50
#: The port health probes target on a backend without a shared VIP.
HC_PORT = 443

#: Seconds between health probes of one backend, and a probe's timeout.
HC_INTERVAL = 1.0
HC_TIMEOUT = 0.5
#: Consecutive probe failures before a backend leaves the ring.
DOWN_THRESHOLD = 2
#: Consecutive probe successes before it re-joins.
UP_THRESHOLD = 1


@dataclass
class KatranConfig:
    """Tunables for flow routing and caching."""

    lru_capacity: int = 100_000
    #: Routing policy (see repro.lb.routers.ROUTER_SCHEMES); the default
    #: is the paper's §5.1 bounded-LRU hybrid.
    lb_scheme: str = "lru"
    #: Idle expiry for per-flow state (stateful table entries, Concury
    #: version stamps).
    flow_ttl: float = 60.0
    #: Retained routing versions for the Concury scheme.
    concury_max_versions: int = 8

    def resolved_scheme(self) -> str:
        if self.lb_scheme not in ROUTER_SCHEMES:
            raise ValueError(f"unknown lb scheme {self.lb_scheme!r}; "
                             f"available: {ROUTER_SCHEMES}")
        return self.lb_scheme


class BackendState:
    """Katran's view of one L7LB backend.

    ``hc_endpoint`` is the address health probes target — the service
    VIP when the pool serves a shared VIP (probes are *delivered* to the
    backend host), or the backend's own ip:port otherwise.
    """

    def __init__(self, host: Host, hc_endpoint: Endpoint):
        self.host = host
        self.hc_endpoint = hc_endpoint
        self.healthy = True
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        #: Set by Katran.remove_backend; its health-check loop exits.
        self.decommissioned = False

    def __repr__(self) -> str:
        state = "up" if self.healthy else "down"
        return f"<Backend {self.host.name} {state}>"


class Katran:
    """One L4LB instance routing flows to a pool of L7LB backends."""

    def __init__(self, host: Host, backends: list[Host],
                 config: Optional[KatranConfig] = None, name: str = "katran",
                 hc_vip: Optional[Endpoint] = None):
        self.host = host
        self.name = name
        self.config = config or KatranConfig()
        #: When the pool serves one shared VIP, probe that VIP (delivered
        #: to each backend host); otherwise probe host:HC_PORT directly.
        self.hc_vip = hc_vip
        self.counters = host.metrics.scoped_counters(f"{name}@{host.name}")
        ring: ConsistentHashRing[str] = ConsistentHashRing(
            replicas=HASH_REPLICAS,
            salt=host.reuseport_salt)
        self.router: FlowRouter = make_router(
            self.config.resolved_scheme(), ring,
            counters=self.counters,
            clock=lambda: host.env.now,
            lru_capacity=self.config.lru_capacity,
            flow_ttl=self.config.flow_ttl,
            concury_max_versions=self.config.concury_max_versions)
        self.backends: dict[str, BackendState] = {}
        #: Fault-injection hook (repro.faults "hc_flap"): backend ip →
        #: probability that an otherwise-successful probe is reported as
        #: failed, reproducing the §5.1 health-check flap incidents.
        self.forced_probe_failure: dict[str, float] = {}
        self._fault_rng = host.streams.stream("hc-fault")
        self._process: Optional[SimProcess] = None
        for backend in backends:
            self.add_backend(backend)

    @property
    def ring(self) -> ConsistentHashRing:
        return self.router.ring

    @property
    def lru(self):
        """The LRU table when the active scheme has one, else None."""
        return getattr(self.router, "lru", None)

    # -- membership ------------------------------------------------------------

    def add_backend(self, backend_host: Host) -> None:
        hc_endpoint = self.hc_vip or Endpoint(backend_host.ip, HC_PORT)
        state = BackendState(backend_host, hc_endpoint)
        self.backends[backend_host.ip] = state
        self.router.backend_added(backend_host.ip)
        if self._process is not None and self._process.alive:
            self._process.run(self._health_check_loop(self._process, state))

    def remove_backend(self, ip: str) -> None:
        """Decommission: the backend left the pool permanently.

        Unlike a health-check "down" (temporary — flows stay pinned so
        they survive the flap, §5.1), decommission drops every trace:
        ring membership, per-flow state pinned to it, and its
        health-check loop.
        """
        state = self.backends.pop(ip, None)
        if state is None:
            return
        state.decommissioned = True
        self.router.backend_removed(ip)
        self.counters.inc("backend_removed")

    def healthy_backends(self) -> list[str]:
        return [ip for ip, b in self.backends.items() if b.healthy]

    def _mark(self, state: BackendState, healthy: bool) -> None:
        if healthy:
            state.consecutive_successes += 1
            state.consecutive_failures = 0
            if (not state.healthy
                    and state.consecutive_successes >= UP_THRESHOLD):
                state.healthy = True
                self.router.backend_up(state.host.ip)
                self.counters.inc("backend_up")
        else:
            state.consecutive_failures += 1
            state.consecutive_successes = 0
            if (state.healthy
                    and state.consecutive_failures >= DOWN_THRESHOLD):
                state.healthy = False
                self.router.backend_down(state.host.ip)
                self.counters.inc("backend_down")

    # -- routing -----------------------------------------------------------------

    def route(self, flow: FourTuple) -> Optional[str]:
        """The backend host IP for this flow (None when pool is empty).

        What "recently routed flows stick to their backend" means is the
        active router's policy — see :mod:`repro.lb.routers`.
        """
        key = (flow.protocol.value, flow.src, flow.dst)
        return self.router.route(key)

    # -- health checking -------------------------------------------------------------

    def start(self, process: SimProcess) -> None:
        """Run one health-check loop per backend inside ``process``."""
        self._process = process
        for state in self.backends.values():
            process.run(self._health_check_loop(process, state))

    def _health_check_loop(self, process: SimProcess, state: BackendState):
        # De-synchronize probe phases across backends.
        yield self.host.env.timeout(
            self.host.streams.stream("hc-phase").uniform(0, HC_INTERVAL))
        while process.alive and not state.decommissioned:
            healthy = yield from self.host.kernel.tcp_probe(
                process, state.hc_endpoint, HC_TIMEOUT,
                via_ip=state.host.ip)
            forced = self.forced_probe_failure.get(state.host.ip, 0.0)
            if healthy and forced > 0 and self._fault_rng.random() < forced:
                healthy = False
                self.counters.inc("hc_probe_forced_fail")
            if state.decommissioned:
                # Decommissioned while the probe was in flight: the
                # backend is out of the pool; don't resurrect its state.
                return
            self._mark(state, healthy)
            self.counters.inc("hc_probe", tag="ok" if healthy else "fail")
            yield self.host.env.timeout(HC_INTERVAL)
