"""MQTT message model plus the Downstream Connection Reuse control plane.

MQTT (§2.1, §4.2) keeps persistent connections with billions of users for
publish/subscribe traffic (live notifications).  The protocol has **no
GOAWAY equivalent**: on a proxy restart the edge can only wait for
clients to leave or cut them off and rely on client re-connects.

Downstream Connection Reuse (DCR) adds a control plane *between
infrastructure tiers* (not visible to end users):

* ``ReconnectSolicitation`` — restarting Origin proxy → Edge proxy:
  "re-home your tunnels now".
* ``ReConnect(user_id)`` — Edge → (healthy) Origin: "splice me to this
  user's broker".
* ``ConnectAck`` / ``ConnectRefuse`` — broker's answer after looking for
  the user's existing connection context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "MqttConnect", "MqttConnAck", "MqttPublish", "MqttPingReq",
    "MqttPingResp", "MqttDisconnect",
    "ReconnectSolicitation", "ReConnect", "ConnectAck", "ConnectRefuse",
    "MQTT_CONNECT_SIZE", "MQTT_PUBLISH_BASE_SIZE", "MQTT_PING_SIZE",
]

MQTT_CONNECT_SIZE = 120
MQTT_PUBLISH_BASE_SIZE = 60
MQTT_PING_SIZE = 16

@dataclass
class MqttConnect:
    """CONNECT from an end-user client; ``user_id`` is the globally
    unique id used for broker consistent-hashing (§4.2)."""

    user_id: int
    client_id: str = ""
    clean_session: bool = False
    #: Trace context (a ``repro.trace.Span``) carried tier to tier so
    #: tunnel spans parent under the client session span.
    trace: Any = field(default=None, repr=False, compare=False)


@dataclass
class MqttConnAck:
    """CONNACK from the broker."""

    user_id: int
    session_present: bool = False


@dataclass
class MqttPublish:
    """PUBLISH in either direction."""

    user_id: int
    topic: str
    seq: int
    size: int = MQTT_PUBLISH_BASE_SIZE


@dataclass
class MqttPingReq:
    user_id: int


@dataclass
class MqttPingResp:
    user_id: int


@dataclass
class MqttDisconnect:
    user_id: int


# ---------------------------------------------------------------------------
# DCR control plane (infrastructure-internal, never sent to end users)
# ---------------------------------------------------------------------------

@dataclass
class ReconnectSolicitation:
    """Origin proxy → Edge proxy: "I am restarting; re-home tunnels"."""

    origin_instance: str


@dataclass
class ReConnect:
    """Edge proxy → Origin tier: splice this user to its broker."""

    user_id: int
    #: Trace context of the tunnel being rehomed (DCR §4.2).
    trace: Any = field(default=None, repr=False, compare=False)


@dataclass
class ConnectAck:
    """Broker accepted the re-connect: session context found."""

    user_id: int


@dataclass
class ConnectRefuse:
    """Broker refused: no session context; client must reconnect."""

    user_id: int
    reason: str = "no_session"
