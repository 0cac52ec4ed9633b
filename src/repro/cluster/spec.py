"""Deployment specification: sizes, configs, workloads, link profiles."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.quic import QuicWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..cohorts.spec import CohortPolicy
from ..lb.katran import KatranConfig
from ..ops.load import LoadShapeConfig
from ..proxygen.config import ProxygenConfig
from ..splice import SpliceConfig

__all__ = ["DeploymentSpec", "TierConfigs"]


@dataclass
class TierConfigs:
    """What :class:`DeploymentSpec` and :class:`repro.regions.RegionalSpec`
    have in common: the fields both shapes read, and per-tier config
    resolution (``None`` → defaults, mode pinned, ``lb_scheme`` applied
    over the Katran config by replace() — the spec's own config objects
    may be shared across arms)."""

    seed: int = 0
    bucket_width: float = 1.0

    # Addressing (the Edge VIP is each shape's own field)
    origin_vip_ip: str = "100.64.1.1"
    https_port: int = 443
    mqtt_port: int = 8883
    broker_port: int = 1883

    # App-tier machine shape (cores × units/s per core)
    app_cores: int = 4
    app_core_speed: float = 25.0

    # Component configs (None → defaults)
    edge_config: Optional[ProxygenConfig] = None
    origin_config: Optional[ProxygenConfig] = None
    app_config: Optional[AppServerConfig] = None
    katran_config: Optional[KatranConfig] = None
    #: L4LB routing policy (repro.lb.routers.ROUTER_SCHEMES); None keeps
    #: katran_config's own scheme (by default the LRU hybrid).
    lb_scheme: Optional[str] = None
    #: Client arrival-rate shape over the run (repro.ops.load); None
    #: keeps the constant-rate behaviour (or the run options' shape, the
    #: CLI's ``--load-shape``).
    load_shape: Optional[LoadShapeConfig] = None
    #: Cohort client layer (repro.cohorts); None keeps one SimProcess
    #: per client (or applies the run options' policy, the CLI's
    #: ``--cohorts``).  With a policy, each client host's workload
    #: becomes one cohort scoped under ``<population>/c<i>``.
    cohorts: Optional[CohortPolicy] = None
    #: Splice fast path (repro.splice); None keeps per-chunk fidelity
    #: everywhere (or applies the run options' config, the CLI's
    #: ``--splice``).  With a config, established bulk transfers and
    #: tunnel relays collapse to bulk events outside mechanism windows.
    splice: Optional[SpliceConfig] = None

    def resolved_katran_config(self) -> KatranConfig:
        config = self.katran_config or KatranConfig()
        if self.lb_scheme is not None and config.lb_scheme != self.lb_scheme:
            config = replace(config, lb_scheme=self.lb_scheme)
        return config

    def resolved_edge_config(self) -> ProxygenConfig:
        config = self.edge_config or ProxygenConfig(mode="edge")
        config.validate()
        return config

    def resolved_origin_config(self) -> ProxygenConfig:
        config = self.origin_config or ProxygenConfig(mode="origin")
        config.validate()
        return config

    def resolved_app_config(self) -> AppServerConfig:
        return self.app_config or AppServerConfig()


@dataclass
class DeploymentSpec(TierConfigs):
    """Everything needed to build one end-to-end deployment (Fig 1).

    Scaled-down defaults: one Edge PoP, one Origin DC, a handful of
    machines per tier.  The paper's figures are normalized, so shapes
    survive this down-scaling (DESIGN.md §6).
    """

    # Tier sizes
    edge_proxies: int = 6
    origin_proxies: int = 4
    app_servers: int = 6
    brokers: int = 2
    web_client_hosts: int = 2
    mqtt_client_hosts: int = 2
    quic_client_hosts: int = 1

    edge_vip_ip: str = "100.64.0.1"

    # Workloads (None → population not started)
    web_workload: Optional[WebWorkloadConfig] = field(
        default_factory=WebWorkloadConfig)
    mqtt_workload: Optional[MqttWorkloadConfig] = field(
        default_factory=MqttWorkloadConfig)
    quic_workload: Optional[QuicWorkloadConfig] = field(
        default_factory=QuicWorkloadConfig)
