"""Declarative shape of a multi-region deployment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..cluster.spec import TierConfigs
from ..netsim.network import LinkProfile

__all__ = ["RegionalSpec", "wan_distance", "wan_latency", "wan_profile",
           "WAN_BANDWIDTH", "WAN_JITTER"]

# Inter-region WAN geometry: a ring of regions, latency by hops.  This
# gives every client a deterministic nearest-region order — the anycast
# map — purely from the topology.
WAN_BASE_LATENCY = 0.035
WAN_HOP_LATENCY = 0.030
WAN_JITTER = 0.004
WAN_BANDWIDTH = 1.25e9


def wan_distance(i: int, j: int, regions: int) -> int:
    """Hops between regions *i* and *j*: ``min(|i-j|, n-|i-j|)``."""
    if regions <= 1:
        return abs(i - j)
    around = abs(i - j)
    return min(around, regions - around)


def wan_latency(hops: int) -> float:
    """One-way latency between two Origin sites ``hops`` apart."""
    return WAN_BASE_LATENCY + WAN_HOP_LATENCY * hops


def wan_profile(hops: int) -> LinkProfile:
    return LinkProfile(latency=wan_latency(hops), jitter=WAN_JITTER,
                       bandwidth=WAN_BANDWIDTH)


@dataclass
class RegionalSpec(TierConfigs):
    """Everything needed to build a :class:`RegionalDeployment`."""

    # -- shape -----------------------------------------------------------
    regions: int = 2
    pops_per_region: int = 1
    proxies_per_pop: int = 3
    origin_proxies: int = 2
    app_servers: int = 2
    brokers: int = 1
    #: One anycast VIP announced by every region's PoPs.  (The shared
    #: ``origin_vip_ip`` is served by every region's Origin proxies, so
    #: the cross-region fallback tier can dial any of them ``via_ip``.)
    anycast_vip_ip: str = "100.64.0.1"
    # -- clients ---------------------------------------------------------
    web_clients_per_pop: int = 6
    mqtt_users_per_pop: int = 5
    # -- behaviour -------------------------------------------------------
    #: Anycast failover + cross-region origin fallback; ``False`` pins
    #: every client/PoP to its home region (the ablation arm).
    failover: bool = True
    #: Hash MQTT sessions onto the *home region's* brokers only instead
    #: of the global cross-region ring.  Opt-in (default preserves the
    #: global-ring behaviour DCR re-homing leans on); together with
    #: ``failover=False`` and ``partition_network_rng`` it removes every
    #: cross-region edge, which is what lets the sharded runner
    #: (repro.shard) simulate regions in parallel workers and merge
    #: results bit-identically.
    local_broker_homing: bool = False
    #: Draw network jitter/loss from one RNG stream per *source site*
    #: instead of the single shared "network" stream.  Opt-in: the
    #: shared stream's draw order depends on global event interleaving,
    #: so per-site streams are required for shard-count-independent
    #: results (and only for that — default runs keep their sequences).
    partition_network_rng: bool = False
    web_workload: Optional[WebWorkloadConfig] = None
    mqtt_workload: Optional[MqttWorkloadConfig] = None

    def validate(self) -> None:
        if self.regions < 1:
            raise ValueError("need at least one region")
        if self.pops_per_region < 1:
            raise ValueError("need at least one PoP per region")
        if self.proxies_per_pop < 1 or self.origin_proxies < 1:
            raise ValueError("need at least one proxy per tier")

    def resolved_web_workload(self) -> Optional[WebWorkloadConfig]:
        if self.web_clients_per_pop <= 0:
            return None
        return self.web_workload or WebWorkloadConfig(
            clients_per_host=self.web_clients_per_pop,
            think_time=1.0, request_timeout=8.0)

    def resolved_mqtt_workload(self) -> Optional[MqttWorkloadConfig]:
        if self.mqtt_users_per_pop <= 0:
            return None
        return self.mqtt_workload or MqttWorkloadConfig(
            users_per_host=self.mqtt_users_per_pop,
            keepalive_timeout=20.0)
