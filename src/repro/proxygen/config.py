"""Proxygen configuration: VIPs, draining, takeover and routing knobs."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.addresses import Endpoint, Protocol, VIP
from ..resilience.config import ResilienceConfig

__all__ = ["ProxygenConfig", "default_vips"]


def default_vips(host_ip: str) -> list[VIP]:
    """The standard VIP set every Proxygen serves: HTTPS (TCP), QUIC
    (UDP) and MQTT (TCP)."""
    return [
        VIP("https", Endpoint(host_ip, 443), Protocol.TCP),
        VIP("quic", Endpoint(host_ip, 443), Protocol.UDP),
        VIP("mqtt", Endpoint(host_ip, 8883), Protocol.TCP),
    ]


@dataclass
class ProxygenConfig:
    """Knobs for one Proxygen deployment (edge or origin).

    The ablation flags map to the paper's comparison arms:

    * ``pass_udp_fds=False`` → the naive SO_REUSEPORT rebind of Fig 2d;
    * ``enable_cid_routing=False`` → the "traditional" arm of Fig 10;
    * ``enable_dcr=False`` → the woutDCR arm of Fig 9.
    """

    mode: str = "edge"  # "edge" | "origin"
    #: Seconds the old instance keeps serving existing connections
    #: (production: 20 minutes; experiments usually scale this down).
    drain_duration: float = 60.0
    #: Socket Takeover on restart (False = HardRestart semantics).
    enable_takeover: bool = True
    #: Pass UDP FDs during takeover (False reproduces ring flux).
    pass_udp_fds: bool = True
    #: User-space connection-ID routing of UDP packets to the draining
    #: instance over the host-local forwarding address.
    enable_cid_routing: bool = True
    #: Downstream Connection Reuse for MQTT tunnels.
    enable_dcr: bool = True
    #: Unix path of the Socket Takeover server.
    takeover_path: str = "/run/proxygen.takeover"
    #: Seconds either side of the §4.1 handshake waits on a peer message
    #: before giving up.  Client-side expiry fails the takeover (the new
    #: instance is reaped and the release retried); server-side expiry
    #: just abandons the session so the serial takeover server cannot be
    #: wedged by a stalled successor.
    takeover_handshake_timeout: float = 30.0
    #: Seconds a cold process needs before it can bind (config load etc).
    spawn_delay: float = 2.0
    #: Model memory footprint of one instance, and per connection.
    base_memory: float = 100.0
    memory_per_connection: float = 0.02
    #: Timeout a proxy waits on an upstream before failing a request.
    upstream_timeout: float = 15.0
    #: How many app servers a POST replay may try (§4.4: 10 in prod).
    ppr_max_retries: int = 10
    #: Local UDP port base for the user-space forwarding channel.
    forward_port_base: int = 19000
    #: Chaos flag reproducing the §5.1 leak: the new instance receives
    #: the UDP FDs but "erroneously ignores" them — neither reading nor
    #: closing.  The orphaned sockets keep their ring share and queue
    #: packets forever (user-facing timeouts) until an operator runs
    #: :func:`repro.proxygen.ops.force_close_orphans`.
    buggy_ignore_received_udp_fds: bool = False
    #: Resilient-data-plane knobs (disabled by default: the baseline
    #: keeps the paper-faithful bare retry loops and blind round-robin).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def validate(self) -> None:
        self.resilience.validate()
        if self.mode not in ("edge", "origin"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.drain_duration < 0 or self.spawn_delay < 0:
            raise ValueError("durations must be non-negative")
        if self.takeover_handshake_timeout <= 0:
            raise ValueError("takeover_handshake_timeout must be positive")
