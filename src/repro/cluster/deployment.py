"""Build and run one end-to-end deployment: Edge PoP → Origin DC → apps.

This assembles the paper's Figure 1: clients reach an Edge PoP over the
WAN; the Edge's Katran consistent-hashes flows over Edge Proxygen
machines; Edge and Origin Proxygen keep HTTP/2 connections; the Origin
forwards to HHVM app servers and MQTT brokers.
"""

from __future__ import annotations

from typing import Optional

from ..appserver.hhvm import AppServer
from ..lb.katran import Katran
from ..netsim.network import EDGE_ORIGIN, WAN_CLIENT_EDGE
from ..options import RunOptions
from ..proxygen.context import ProxyTierContext
from ..simkernel.core import Environment
from .base import Region, RegionPoP, Topology
from .spec import DeploymentSpec

__all__ = ["Deployment"]


class Deployment(Topology):
    """One built (but not yet started) end-to-end deployment: a single
    Origin DC (``self.origin``) behind a single Edge PoP (``self.edge``),
    whose lists the flat ``*_hosts`` attributes alias."""

    def __init__(self, spec: DeploymentSpec,
                 env: Optional[Environment] = None,
                 options: RunOptions = RunOptions()):
        super().__init__(spec, spec.edge_vip_ip, env, options)
        spec = self.spec
        self.network.add_profile("client", "edge", WAN_CLIENT_EDGE)
        self.network.add_profile("edge", "origin", EDGE_ORIGIN)
        self._ip_serial: dict[str, int] = {}

        # Origin DC.
        self.origin = origin = Region("origin", 0, origin_site="origin")
        self.regions.append(origin)
        self._build_origin(origin, self.broker_ring)
        self.broker_hosts = origin.broker_hosts
        self.app_hosts = origin.app_hosts
        self.app_pool = origin.app_pool
        self.origin_hosts = origin.origin_hosts
        self.origin_katran: Katran = origin.origin_katran
        self._app_serial = spec.app_servers

        # Edge PoP.
        self.edge = edge = RegionPoP(
            "edge", site="edge", client_site="client",
            context=ProxyTierContext(
                origin_vip=self.origin_vip,
                origin_router=lambda flow: self.origin_katran.route(flow)))
        origin.pops.append(edge)
        self.edge_hosts = edge.hosts
        for i in range(spec.edge_proxies):
            self._edge_proxy(edge, f"edge-proxy-{i}")
        self.edge_katran = edge.katran = self._katran(
            "edge-katran", "edge", edge.hosts, self.edge_vips[0].endpoint)

        # Clients: every web host, then every MQTT host, then QUIC.
        for kind, workload, host_count in (
                ("web", spec.web_workload, spec.web_client_hosts),
                ("mqtt", spec.mqtt_workload, spec.mqtt_client_hosts),
                ("quic", spec.quic_workload, spec.quic_client_hosts)):
            self._build_clients(
                edge, self.edge_katran.route, kind, workload,
                [f"{kind}-clients-{i}" for i in range(host_count)],
                name=f"{kind}-clients")
        #: The one PoP's populations (None without the workload, and
        #: under a cohort policy: see ``web_populations`` etc.).
        self.web_clients = edge.web_clients
        self.mqtt_clients = edge.mqtt_clients
        self.quic_clients = edge.quic_clients
        self._attach_load()

    def _next_ip(self, site: str) -> str:
        block = {"edge": 1, "origin": 2, "client": 3}.get(site, 4)
        serial = self._ip_serial.get(site, 0) + 1
        self._ip_serial[site] = serial
        return f"10.{block}.{serial // 250}.{serial % 250}"

    def _katran_start_order(self, region: Region) -> list[Katran]:
        return [self.origin_katran, self.edge_katran]

    # -- dynamic membership (repro.ops.autoscale) ----------------------------

    def grow_app_server(self) -> AppServer:
        """Add one app server to the live fleet (autoscaler scale-out)."""
        spec = self.spec
        name = f"appserver-{self._app_serial}"
        self._app_serial += 1
        host = self._host(name, "origin", spec.app_cores,
                          spec.app_core_speed)
        server = AppServer(host, spec.app_config)
        self.app_hosts.append(host)
        self.origin.app_servers.append(server)
        self.app_pool.add(server)
        server.start()
        return server

    def retire_app_server(self, server: AppServer):
        """Generator: drain one app server out of the fleet permanently.

        Membership is dropped *first* so no new work is routed to the
        draining machine — the drain only has to see out what is
        already in flight.
        """
        self.app_pool.remove(server)
        if server in self.origin.app_servers:
            self.origin.app_servers.remove(server)
        if server.host in self.app_hosts:
            self.app_hosts.remove(server.host)
        yield from server.decommission()
