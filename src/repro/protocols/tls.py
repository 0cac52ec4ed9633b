"""TLS cost model.

The paper never decrypts anything, but TLS matters to it twice:

* re-negotiating TLS state after a restart is the dominant CPU cost of
  client re-connects (§2.5: 10% of Origin proxies restarting burned ~20%
  of app-tier CPU rebuilding TCP/TLS state);
* TLS session state cannot be passed across process boundaries for
  security reasons (§3, Option-2), which is why connections cannot simply
  be migrated socket-by-socket.

We model a handshake as one extra round trip plus asymmetric CPU costs
on both peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..netsim.cpu import CpuCosts

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.cpu import CpuModel
    from ..netsim.sockets import TcpEndpoint

__all__ = ["TlsClientHello", "TlsServerDone", "client_handshake",
           "server_handle_hello", "TLS_HELLO_SIZE", "TLS_SERVER_FLIGHT_SIZE"]

TLS_HELLO_SIZE = 320
TLS_SERVER_FLIGHT_SIZE = 2800

@dataclass
class TlsClientHello:
    """First flight from the client."""

    resumption: bool = False


@dataclass
class TlsServerDone:
    """Server certificate + finished flight (collapsed)."""


def client_handshake(conn: "TcpEndpoint", cpu: "CpuModel",
                     resumption: bool = False):
    """Generator: run the client side of a TLS handshake on ``conn``.

    Sends ClientHello, burns client-side CPU, waits for the server
    flight.  Raises whatever the transport raises if the connection dies
    mid-handshake (which is exactly what a restarting proxy without
    takeover inflicts on clients).
    """
    conn.send(TlsClientHello(resumption=resumption), size=TLS_HELLO_SIZE)
    yield from cpu.execute(CpuCosts.tls_handshake * 0.25)
    reply = yield conn.recv()
    return reply


def server_handle_hello(hello: TlsClientHello, conn: "TcpEndpoint",
                        cpu: "CpuModel"):
    """Generator: server side — burn CPU, reply with the server flight.

    A resumed session costs ~1/10 of a full handshake.
    """
    factor = 0.1 if hello.resumption else 1.0
    yield from cpu.execute(CpuCosts.tls_handshake * factor)
    if conn.alive:
        conn.send(TlsServerDone(), size=TLS_SERVER_FLIGHT_SIZE)
