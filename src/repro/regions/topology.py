"""Build and run a multi-region deployment.

Topology (the paper's Fig. 1, regionalized): ``regions`` Origin DCs sit
on a WAN ring; each has ``pops_per_region`` Edge PoPs and its own app
pool and MQTT brokers.  Every PoP announces the *same* anycast VIP
behind its one Katran; every Origin serves the same
origin VIP, which is what lets an Edge dial a remote region's Origin
``via_ip`` when its own is gone.

Sites: ``r{i}-origin`` (Origin DC), ``r{i}-pop{p}`` (Edge PoP) and
``clients-r{i}-p{p}`` (that PoP's user population).  Client sites are
deliberately *not* under the ``r{i}-*`` prefix so a region-scoped WAN
partition cuts the region off from its users without silencing the
users themselves.

MQTT session placement uses one **global** broker ring spanning every
region's brokers, so a DCR splice arriving in any region finds the
session context — the property region evacuation leans on when it
re-homes sessions across regions.
"""

from __future__ import annotations

from typing import Optional

from ..appserver.brokers import MqttBroker
from ..cluster.base import (
    CLIENT_CORE_SPEED, CLIENT_CORES, Region, RegionPoP, Topology)
from ..lb.consistent_hash import ConsistentHashRing
from ..netsim.network import EDGE_ORIGIN, WAN_CLIENT_EDGE, LinkProfile
from ..options import RunOptions
from ..proxygen.context import ProxyTierContext
from .anycast import AnycastResolver
from .routing import FallbackOriginRouter
from .spec import (
    WAN_BANDWIDTH, WAN_JITTER, RegionalSpec, wan_distance, wan_latency,
    wan_profile)

__all__ = ["Region", "RegionPoP", "RegionalDeployment"]

class RegionalDeployment(Topology):
    """N regions, one anycast VIP, one global MQTT broker ring."""

    def __init__(self, spec: RegionalSpec,
                 options: RunOptions = RunOptions()):
        spec.validate()
        super().__init__(spec, spec.anycast_vip_ip, options,
                         partition_rng=spec.partition_network_rng)
        self.anycast_https = self.edge_vips[0].endpoint
        self._ip_serial = 0
        self._next_user = 1
        self._build()

    def _next_ip(self, site: str) -> str:
        self._ip_serial += 1
        serial = self._ip_serial
        return (f"10.{60 + serial // 62500}"
                f".{(serial // 250) % 250}.{serial % 250}")

    # -- build -------------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec

        # Pass 1: every region's Origin DC (brokers, apps, proxies, LB).
        for r in range(spec.regions):
            region = Region(f"r{r}", r)
            # With local homing each region's origin tier hashes MQTT
            # sessions over its own brokers only (repro.shard: no
            # cross-region session placement = no cross-shard edge);
            # the global ring is still built for callers that hold it.
            region_ring: ConsistentHashRing[str] = (
                ConsistentHashRing(replicas=60, salt=spec.seed)
                if spec.local_broker_homing else self.broker_ring)
            self._build_origin(region, region_ring,
                               prefix=f"r{r}-", suffix=f"-r{r}")
            self.regions.append(region)

        # Pass 2: WAN matrix between Origin sites, and the cross-region
        # Edge→Origin fallback routers (home first, then by distance).
        for i, region in enumerate(self.regions):
            for j in range(i + 1, len(self.regions)):
                other = self.regions[j]
                hops = wan_distance(i, j, spec.regions)
                self.network.add_profile(region.origin_site,
                                         other.origin_site,
                                         wan_profile(hops))
        for i, region in enumerate(self.regions):
            router = FallbackOriginRouter(
                self.metrics.scoped_counters(f"xregion-{region.name}"),
                failover=spec.failover)
            router.add_tier(region.name, region.origin_katran.route)
            alternates = sorted(
                (other for other in self.regions if other is not region),
                key=lambda o: (wan_distance(i, o.index, spec.regions),
                               o.name))
            for other in alternates:
                router.add_tier(other.name, other.origin_katran.route)
            region.origin_router = router

        # Pass 3: Edge PoPs (proxies + their Katran) and their links.
        for r, region in enumerate(self.regions):
            edge_context = ProxyTierContext(
                origin_vip=self.origin_vip,
                origin_router=region.origin_router)
            for p in range(spec.pops_per_region):
                pop = RegionPoP(f"r{r}p{p}", site=f"r{r}-pop{p}",
                                client_site=f"clients-r{r}-p{p}",
                                context=edge_context)
                self.network.add_profile(pop.site, region.origin_site,
                                         EDGE_ORIGIN)
                for other in self.regions:
                    if other is region:
                        continue
                    hops = wan_distance(r, other.index, spec.regions)
                    self.network.add_profile(
                        pop.site, other.origin_site,
                        LinkProfile(
                            latency=EDGE_ORIGIN.latency + wan_latency(hops),
                            jitter=EDGE_ORIGIN.jitter + WAN_JITTER,
                            bandwidth=WAN_BANDWIDTH))
                for i in range(spec.proxies_per_pop):
                    self._edge_proxy(pop, f"{pop.name}-edge-proxy-{i}")
                pop.katran = self._katran(
                    f"{pop.name}-katran-0", pop.site, pop.hosts,
                    self.anycast_https)
                region.pops.append(pop)

        # Pass 4: client links, anycast resolvers, client populations.
        web_workload = spec.resolved_web_workload()
        mqtt_workload = spec.resolved_mqtt_workload()
        for r, region in enumerate(self.regions):
            for p, pop in enumerate(region.pops):
                for other in self.regions:
                    hops = wan_distance(r, other.index, spec.regions)
                    extra = 0.0 if other is region else wan_latency(hops)
                    for opop in other.pops:
                        profile = (WAN_CLIENT_EDGE if extra == 0.0 else
                                   LinkProfile(
                                       latency=(WAN_CLIENT_EDGE.latency
                                                + extra),
                                       jitter=WAN_CLIENT_EDGE.jitter,
                                       bandwidth=WAN_CLIENT_EDGE.bandwidth))
                        self.network.add_profile(pop.client_site,
                                                 opop.site, profile)
                resolver_host = self._host(f"{pop.name}-resolver",
                                           pop.client_site,
                                           CLIENT_CORES, CLIENT_CORE_SPEED)
                resolver = AnycastResolver(
                    resolver_host, self.anycast_https,
                    failover=spec.failover,
                    name=f"anycast-{pop.name}")
                for other in self.regions:
                    entry = other.pops[p % len(other.pops)]
                    resolver.add_target(
                        other.name, entry.katran.route,
                        wan_distance(r, other.index, spec.regions))
                pop.resolver = resolver
                self._build_clients(
                    pop, resolver.route, "web", web_workload,
                    [f"{pop.name}-web-clients"],
                    name=f"web-clients-{pop.name}")
                # MQTT user ids are global (they key broker sessions),
                # so they continue across PoPs.
                self._next_user = self._build_clients(
                    pop, resolver.route, "mqtt", mqtt_workload,
                    [f"{pop.name}-mqtt-clients"],
                    name=f"mqtt-clients-{pop.name}",
                    first_id=self._next_user)

        self._attach_load()

    # -- aggregate views ---------------------------------------------------

    @property
    def resolvers(self) -> list[AnycastResolver]:
        return [pop.resolver for region in self.regions
                for pop in region.pops if pop.resolver is not None]

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    def broker_by_ip(self, ip: str) -> Optional[MqttBroker]:
        for broker in self.brokers:
            if broker.host.ip == ip:
                return broker
        return None

    # -- anycast control ---------------------------------------------------

    def withdraw_region(self, name: str) -> None:
        """Withdraw a region from every resolver's anycast view."""
        region = self.region(name)
        region.withdrawn = True
        for resolver in self.resolvers:
            resolver.withdraw(name)
