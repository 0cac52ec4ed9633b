"""Application protocols: HTTP/1.1, HTTP/2-lite, MQTT(+DCR), QUIC-lite, TLS."""

from .http import (
    BodyChunk,
    ChunkedDecoder,
    ChunkedEncoder,
    ChunkedState,
    HttpRequest,
    HttpResponse,
    MAX_LINE_LENGTH,
    PARTIAL_POST_STATUS_MESSAGE,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    STATUS_PARTIAL_POST_REPLAY,
    STATUS_TEMPORARY_REDIRECT,
    echo_pseudo_headers,
    is_valid_ppr_response,
    recover_pseudo_headers,
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
from .ppr_wire import PostForwardingState
from .quic import (
    QUIC_PACKET_SIZE,
    QuicConnectionState,
    QuicPacket,
    QuicStateTable,
)
from .tls import (
    TlsClientHello,
    TlsServerDone,
    client_handshake,
    server_handle_hello,
)

__all__ = [
    "BodyChunk", "ChunkedDecoder", "ChunkedEncoder", "ChunkedState",
    "HttpRequest", "HttpResponse", "MAX_LINE_LENGTH",
    "PARTIAL_POST_STATUS_MESSAGE", "STATUS_INTERNAL_ERROR", "STATUS_OK",
    "STATUS_PARTIAL_POST_REPLAY", "STATUS_TEMPORARY_REDIRECT",
    "echo_pseudo_headers", "is_valid_ppr_response", "recover_pseudo_headers",
    "FrameType", "GoAwayError", "H2Connection", "H2Error", "H2Frame", "H2Stream",
    "ConnectAck", "ConnectRefuse", "MqttConnAck", "MqttConnect",
    "MqttDisconnect", "MqttPingReq", "MqttPingResp", "MqttPublish",
    "ReConnect", "ReconnectSolicitation",
    "PostForwardingState",
    "QUIC_PACKET_SIZE", "QuicConnectionState", "QuicPacket",
    "QuicStateTable",
    "TlsClientHello", "TlsServerDone", "client_handshake", "server_handle_hello",
]
