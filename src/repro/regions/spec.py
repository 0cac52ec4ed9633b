"""Declarative shape of a multi-region deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..appserver.brokers import BrokerConfig
from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..cluster.spec import TierConfigs
from ..lb.katran import KatranConfig
from ..netsim.network import LinkProfile
from ..proxygen.config import ProxygenConfig

__all__ = ["AnycastConfig", "RegionalSpec", "WanConfig"]


@dataclass(frozen=True)
class WanConfig:
    """Inter-region WAN geometry: a ring of regions, latency by hops.

    Region *i* and *j* sit ``d = min(|i-j|, n-|i-j|)`` hops apart; the
    one-way latency between their sites is ``base_latency +
    hop_latency*d``.  This gives every client a deterministic nearest-
    region order — the anycast map — purely from the topology.
    """

    base_latency: float = 0.035
    hop_latency: float = 0.030
    jitter: float = 0.004
    bandwidth: float = 1.25e9

    def distance(self, i: int, j: int, regions: int) -> int:
        if regions <= 1:
            return abs(i - j)
        around = abs(i - j)
        return min(around, regions - around)

    def latency(self, hops: int) -> float:
        return self.base_latency + self.hop_latency * hops

    def profile(self, hops: int) -> LinkProfile:
        return LinkProfile(latency=self.latency(hops), jitter=self.jitter,
                           bandwidth=self.bandwidth)


@dataclass(frozen=True)
class AnycastConfig:
    """Health probing knobs for the client-side anycast resolvers."""

    probe_interval: float = 1.0
    probe_timeout: float = 0.5
    #: Consecutive probe failures before a region is marked down.
    down_threshold: int = 2
    #: Consecutive probe successes before it is marked up again.
    up_threshold: int = 1
    #: Multiplicative jitter on every probe wait (desynchronizes the
    #: fleet's resolvers).
    jitter: float = 0.2

    def validate(self) -> None:
        if self.probe_interval <= 0 or self.probe_timeout <= 0:
            raise ValueError("probe interval/timeout must be positive")
        if self.down_threshold < 1 or self.up_threshold < 1:
            raise ValueError("thresholds must be >= 1")


@dataclass
class RegionalSpec(TierConfigs):
    """Everything needed to build a :class:`RegionalDeployment`."""

    seed: int = 0
    bucket_width: float = 1.0
    # -- shape -----------------------------------------------------------
    regions: int = 2
    pops_per_region: int = 1
    proxies_per_pop: int = 3
    #: L4LBs fronting each PoP; client flows spread over them via ECMP.
    l4lbs_per_pop: int = 1
    origin_proxies: int = 2
    app_servers: int = 2
    brokers: int = 1
    # -- addressing ------------------------------------------------------
    #: One anycast VIP announced by every region's PoPs.
    anycast_vip_ip: str = "100.64.0.1"
    #: One origin VIP served by every region's Origin proxies (so the
    #: cross-region fallback tier can dial any of them ``via_ip``).
    origin_vip_ip: str = "100.64.1.1"
    https_port: int = 443
    mqtt_port: int = 8883
    broker_port: int = 1883
    # -- machines --------------------------------------------------------
    proxy_cores: int = 4
    proxy_core_speed: float = 20.0
    app_cores: int = 4
    app_core_speed: float = 25.0
    client_cores: int = 64
    client_core_speed: float = 1000.0
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
    anycast: AnycastConfig = field(default_factory=AnycastConfig)
    wan: WanConfig = field(default_factory=WanConfig)
    lb_scheme: Optional[str] = None
    load_shape: Optional[object] = None
    # -- per-tier configs (None = defaults) ------------------------------
    edge_config: Optional[ProxygenConfig] = None
    origin_config: Optional[ProxygenConfig] = None
    app_config: Optional[AppServerConfig] = None
    broker_config: Optional[BrokerConfig] = None
    katran_config: Optional[KatranConfig] = None
    web_workload: Optional[WebWorkloadConfig] = None
    mqtt_workload: Optional[MqttWorkloadConfig] = None

    def validate(self) -> None:
        if self.regions < 1:
            raise ValueError("need at least one region")
        if self.pops_per_region < 1:
            raise ValueError("need at least one PoP per region")
        if self.proxies_per_pop < 1 or self.origin_proxies < 1:
            raise ValueError("need at least one proxy per tier")
        if self.l4lbs_per_pop < 1:
            raise ValueError("need at least one L4LB per PoP")
        self.anycast.validate()

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
