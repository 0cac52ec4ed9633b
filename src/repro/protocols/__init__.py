"""Application protocols: HTTP/1.1, HTTP/2-lite, MQTT(+DCR), QUIC-lite, TLS."""

from .http import (
    BodyChunk,
    HttpRequest,
    HttpResponse,
    PARTIAL_POST_STATUS_MESSAGE,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    STATUS_PARTIAL_POST_REPLAY,
    STATUS_TEMPORARY_REDIRECT,
    is_valid_ppr_response,
)
from .http2 import FrameType, GoAwayError, H2Connection, H2Error, H2Frame, H2Stream
from .mqtt import (
    ConnectAck,
    ConnectRefuse,
    MqttConnAck,
    MqttConnect,
    MqttDisconnect,
    MqttPingReq,
    MqttPingResp,
    MqttPublish,
    ReConnect,
    ReconnectSolicitation,
)
from .quic import (
    QUIC_PACKET_SIZE,
    QuicConnectionState,
    QuicPacket,
    QuicStateTable,
)
from .tls import (
    TlsClientHello,
    TlsServerDone,
    server_handle_hello,
)

__all__ = [
    "BodyChunk", "HttpRequest", "HttpResponse",
    "PARTIAL_POST_STATUS_MESSAGE", "STATUS_INTERNAL_ERROR", "STATUS_OK",
    "STATUS_PARTIAL_POST_REPLAY", "STATUS_TEMPORARY_REDIRECT",
    "is_valid_ppr_response",
    "FrameType", "GoAwayError", "H2Connection", "H2Error", "H2Frame", "H2Stream",
    "ConnectAck", "ConnectRefuse", "MqttConnAck", "MqttConnect",
    "MqttDisconnect", "MqttPingReq", "MqttPingResp", "MqttPublish",
    "ReConnect", "ReconnectSolicitation",
    "QUIC_PACKET_SIZE", "QuicConnectionState", "QuicPacket",
    "QuicStateTable",
    "TlsClientHello", "TlsServerDone", "server_handle_hello",
]
