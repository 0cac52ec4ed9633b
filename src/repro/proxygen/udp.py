"""QUIC/UDP serving with user-space connection-ID routing (§4.1).

During a Socket Takeover the ring of SO_REUSEPORT sockets never changes
(the FDs are dup-passed), so after the handoff **all** packets — new
flows and flows owned by the draining instance alike — are read by the
new instance.  For stateful UDP protocols (QUIC) the new instance
user-space-routes packets of connections it does not own to the old
instance "through a pre-configured host local address", using the
connection ID present in every packet header.

A packet that reaches an instance which neither owns the connection nor
can forward it is **misrouted** — the quantity Figures 2d and 10 count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..netsim.addresses import Endpoint
from ..netsim.cpu import CpuCosts
from ..netsim.packet import Datagram
from ..protocols.quic import QuicConnectionState, QuicPacket

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.sockets import UdpSocket
    from .instance import ProxygenInstance

__all__ = ["QuicService", "ForwardedPacket"]


@dataclass
class ForwardedPacket:
    """A QUIC packet relayed over the host-local forwarding channel.

    Carries the original client address so the receiving instance can
    reply directly to the end user (the reply's source is the VIP, so
    the client cannot tell which process answered).
    """

    original_src: Endpoint
    packet: QuicPacket


class QuicService:
    """Per-instance QUIC handling: state table + read loops + routing."""

    def __init__(self, instance: "ProxygenInstance"):
        self.instance = instance

    # -- read loops -------------------------------------------------------

    def vip_socket_loop(self, sock: "UdpSocket"):
        """Generator: serve one SO_REUSEPORT VIP socket."""
        instance = self.instance
        while instance.serving and not sock.closed:
            datagram = yield sock.recv()
            yield from self.handle_datagram(datagram, forwarded=False)

    def forward_socket_loop(self, sock: "UdpSocket"):
        """Generator: serve the host-local forwarding inbox.

        Packets arriving here were user-space-routed to us by the
        sibling instance; they belong to flows we own (or are stale).
        """
        instance = self.instance
        while instance.process.alive and not sock.closed:
            datagram = yield sock.recv()
            yield from self.handle_datagram(datagram, forwarded=True)

    # -- the routing decision ------------------------------------------------

    def handle_datagram(self, datagram: Datagram, forwarded: bool):
        """Generator: classify and serve one datagram."""
        instance = self.instance
        payload = datagram.payload
        client_src = datagram.flow.src
        if isinstance(payload, ForwardedPacket):
            client_src = payload.original_src
            packet = payload.packet
        else:
            packet = payload
        if not isinstance(packet, QuicPacket):
            return
        yield from instance.host.cpu.execute(CpuCosts.udp_packet)

        states = instance.quic_states
        if states.owns(packet.connection_id):
            self._serve_packet(client_src, packet)
            return

        if packet.is_initial and instance.serving and not forwarded:
            # New connection: take ownership.
            state = QuicConnectionState(
                connection_id=packet.connection_id,
                client=client_src,
                created_at=instance.host.env.now)
            states.add(state)
            instance.counters.inc("quic_conn_created")
            self._serve_packet(client_src, packet)
            return

        # Not ours and not a fresh flow: either forward in user space to
        # the draining sibling, or count a misroute.
        if (not forwarded
                and instance.config.enable_cid_routing
                and instance.sibling_forward_port is not None):
            self._forward_to_sibling(client_src, packet, datagram.size)
            return
        instance.counters.inc("udp_misrouted")
        instance.host.metrics.series("udp/misrouted").record(
            instance.host.env.now)

    def _serve_packet(self, client_src: Endpoint, packet: QuicPacket) -> None:
        instance = self.instance
        state = instance.quic_states.get(packet.connection_id)
        state.packets_received += 1
        instance.counters.inc("quic_packets_served")
        # Ack back to the client through any VIP socket (source address
        # is the VIP either way).
        reply_sock = self._vip_reply_socket()
        if reply_sock is not None and not reply_sock.closed:
            reply_sock.sendto(
                QuicPacket(connection_id=packet.connection_id,
                           payload="ack"),
                client_src, size=64)

    def _vip_reply_socket(self) -> Optional["UdpSocket"]:
        for sockets in self.instance.udp_sockets.values():
            for sock in sockets:
                if not sock.closed:
                    return sock
        return None

    def _forward_to_sibling(self, client_src: Endpoint, packet: QuicPacket,
                            size: int) -> None:
        """User-space routing over the host-local address (§4.1)."""
        instance = self.instance
        target = Endpoint(instance.host.ip, instance.sibling_forward_port)
        instance.forward_sock.sendto(
            ForwardedPacket(original_src=client_src, packet=packet),
            target, size=size,
            connection_id=packet.connection_id)
        instance.counters.inc("udp_forwarded_to_sibling")

    # -- connection expiry --------------------------------------------------------

    def expire_loop(self, max_age: float = 60.0, tick: float = 5.0):
        """Generator: drop QUIC connection state older than ``max_age``."""
        instance = self.instance
        while instance.process.alive:
            yield instance.host.env.timeout(tick)
            now = instance.host.env.now
            for cid in instance.quic_states.connection_ids():
                state = instance.quic_states.get(cid)
                if state is not None and now - state.created_at > max_age:
                    instance.quic_states.remove(cid)
