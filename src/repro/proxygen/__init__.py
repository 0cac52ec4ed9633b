"""Proxygen: the L7 load balancer and its zero-downtime mechanisms.

Implements §4 of the paper: Socket Takeover (with UDP FD passing and
user-space connection-ID routing), Downstream Connection Reuse for MQTT
tunnels, and the proxy side of Partial Post Replay.
"""

from .config import ProxygenConfig
from .context import ProxyTierContext
from .instance import ProxygenInstance
from .server import ProxygenServer
from .takeover import SocketMeta, TakeoverFailed, TakeoverResult
from .tunnels import EdgeMqttTunnel, OriginMqttTunnel
from .udp import ForwardedPacket, QuicService
from .upstream import UpstreamPool, UpstreamUnavailable

__all__ = [
    "ProxygenConfig",
    "ProxygenInstance",
    "ProxygenServer",
    "ProxyTierContext",
    "SocketMeta",
    "TakeoverFailed",
    "TakeoverResult",
    "EdgeMqttTunnel",
    "OriginMqttTunnel",
    "ForwardedPacket",
    "QuicService",
    "UpstreamPool",
    "UpstreamUnavailable",
]
