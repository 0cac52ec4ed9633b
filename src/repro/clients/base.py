"""Shared plumbing for client populations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint, FourTuple, Protocol
from ..netsim.errors import ConnectionRefusedSim
from ..netsim.host import Host
from ..netsim.proc_utils import TIMED_OUT
from ..netsim.process import SimProcess

__all__ = ["ClientBase", "Router"]

#: A routing function: flow → backend host ip (the L4LB decision).
Router = Callable[[FourTuple], Optional[str]]


class ClientBase:
    """Common helpers: routed connects with timeout + error counting."""

    def __init__(self, host: Host, name: str, vip: Endpoint,
                 router: Router, metrics: MetricsRegistry):
        self.host = host
        self.name = name
        self.vip = vip
        self.router = router
        self.metrics = metrics
        self.counters = metrics.scoped_counters(name)

    def connect_routed(self, process: SimProcess, timeout: float = 5.0):
        """Generator: dial the VIP through the L4LB.

        Returns the client TcpEndpoint, or ``None`` on refusal/timeout
        (with the corresponding counter bumped).
        """
        probe = FourTuple(
            Protocol.TCP,
            Endpoint(self.host.ip, self.host.kernel.ephemeral_port()),
            self.vip)
        backend_ip = self.router(probe)
        if backend_ip is None:
            self.counters.inc("connect_no_backend")
            return None
        try:
            outcome = yield from self.host.kernel.tcp_connect_within(
                process, self.vip, timeout, via_ip=backend_ip)
        except ConnectionRefusedSim:
            self.counters.inc("connect_refused")
            self.metrics.series("client/connect_refused").record(
                self.host.env.now)
            return None
        if outcome is TIMED_OUT:
            self.counters.inc("connect_timeout")
            self.metrics.series("client/connect_timeout").record(
                self.host.env.now)
            return None
        # Remember the L4LB pick so request traces can annotate which
        # backend Katran hashed this flow to.
        outcome.l4lb_backend = backend_ip
        return outcome
