"""The per-host simulated kernel: binding, demux, handshakes, RSTs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..simkernel.events import Event
from .addresses import Endpoint, FourTuple, Protocol
from .errors import BindError, ConnectionRefusedSim
from .packet import Datagram
from .filetable import FileDescription
from .proc_utils import TIMED_OUT, with_timeout
from .reuseport import ReusePortGroup
from .sockets import TcpEndpoint, TcpListenSocket, UdpSocket

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host
    from .process import SimProcess

__all__ = ["Kernel", "SYN_SIZE", "CONTROL_SIZE"]

#: Nominal wire sizes for control traffic (bytes).
SYN_SIZE = 64
CONTROL_SIZE = 40

#: First ephemeral source port handed out by each host.
EPHEMERAL_BASE = 40_000
#: Handshaken connections a listening socket queues for ``accept``; a
#: SYN past it is refused.
ACCEPT_BACKLOG = 1024


class Kernel:
    """Networking state of one simulated host."""

    def __init__(self, host: "Host"):
        self.host = host
        self.env = host.env
        self.network = host.network
        self.tcp_listeners: dict[Endpoint, TcpListenSocket] = {}
        self.udp_groups: dict[Endpoint, ReusePortGroup] = {}
        self._next_port = EPHEMERAL_BASE
        # Bound counter handles for per-packet paths (dynamic-tag
        # counters like tcp_rst_sent:<reason> go through the pair cache
        # in CounterSet.inc instead).
        counters = host.counters
        self._c_syn_sent = counters.bound("tcp_syn_sent")
        self._c_accepted = counters.bound("tcp_accepted")
        self._c_udp_sent = counters.bound("udp_sent")
        self._c_udp_no_listener = counters.bound("udp_dropped_no_listener")
        self._c_udp_closed = counters.bound("udp_dropped_closed_socket")
        self._c_udp_delivered = counters.bound("udp_delivered")

    # -- helpers -----------------------------------------------------------

    def ephemeral_port(self) -> int:
        self._next_port += 1
        return self._next_port

    def count_rst_sent(self, reason: str) -> None:
        self.host.counters.inc("tcp_rst_sent", tag=reason)

    # -- TCP: binding --------------------------------------------------------

    def tcp_listen(self, process: "SimProcess",
                   endpoint: Endpoint) -> tuple[int, TcpListenSocket]:
        """Create a listening socket bound to ``endpoint``.

        Returns ``(fd, socket)``; the FD lives in ``process``'s file
        table.  TCP has no rebind-while-bound here: takeover must share
        the existing FD (which is the point of the mechanism).
        """
        existing = self.tcp_listeners.get(endpoint)
        if existing is not None and not existing.closed:
            raise BindError(f"tcp address in use: {endpoint}")
        listener = TcpListenSocket(self, endpoint)
        self.tcp_listeners[endpoint] = listener
        description = FileDescription(listener)
        fd = process.fd_table.install(description)
        return fd, listener

    def unbind_tcp(self, listener: TcpListenSocket) -> None:
        if self.tcp_listeners.get(listener.endpoint) is listener:
            del self.tcp_listeners[listener.endpoint]

    # -- TCP: connect/handshake -------------------------------------------------

    def tcp_connect(self, process: "SimProcess", dst: Endpoint,
                    via_ip: Optional[str] = None) -> Event:
        """Open a connection to ``dst``.

        ``via_ip``: the physical host to deliver the SYN to when ``dst``
        is a VIP (the L4LB's routing decision).  The returned event
        succeeds with the client :class:`TcpEndpoint` or fails with
        :class:`ConnectionRefusedSim`.
        """
        via = via_ip or dst.ip
        result = self.env.event()
        src = Endpoint(self.host.ip, self.ephemeral_port())
        flow = FourTuple(Protocol.TCP, src, dst)
        client_end = TcpEndpoint(self, src, dst, via)
        client_end.set_owner(process)
        self._c_syn_sent.inc()

        network = self.host.network
        src_host = self.host

        if network.host(via) is None:
            # No such host: behave like an ICMP unreachable after one RTT.
            self.env.call_later(0.001, _fail_refused, result)
            return result

        def syn_arrives(_item) -> None:
            dst_host = network.host(via)
            if dst_host is None:
                _fail_refused(result)
                return
            dst_host.kernel._handle_syn(flow, client_end, src_host, result)

        network.transmit(src_host, via, syn_arrives, None, size=SYN_SIZE)
        return result

    def tcp_connect_within(self, process: "SimProcess", dst: Endpoint,
                           timeout: float, via_ip: Optional[str] = None):
        """Generator: :meth:`tcp_connect` with a deadline.

        Returns the client :class:`TcpEndpoint` or ``TIMED_OUT``;
        :class:`ConnectionRefusedSim` propagates.  A handshake that
        completes after the deadline is closed, never leaked — also one
        completing on the very tick it fired, which ``with_timeout``
        already reports as ``TIMED_OUT``.
        """
        attempt = self.tcp_connect(process, dst, via_ip=via_ip)
        try:
            outcome = yield from with_timeout(self.env, attempt, timeout)
        except ConnectionRefusedSim as refused:
            # The refusal is ``attempt``'s value; its traceback would
            # hold this frame and ``with_timeout``'s, which hold
            # ``attempt``: a cycle only the collector frees.  It goes
            # on from here with no traceback below the caller.
            refused.__traceback__ = None
            raise
        if outcome is TIMED_OUT:
            if attempt.triggered:
                _close_if_established(attempt)
            else:
                attempt.callbacks.append(_close_if_established)
        return outcome

    def tcp_probe(self, process: "SimProcess", dst: Endpoint,
                  timeout: float, via_ip: Optional[str] = None):
        """Generator: one TCP health probe — connect within ``timeout``,
        then close.  True iff the handshake completed in time (refused
        and timed out are both a failed probe)."""
        try:
            outcome = yield from self.tcp_connect_within(
                process, dst, timeout, via_ip=via_ip)
        except ConnectionRefusedSim:
            return False
        if outcome is TIMED_OUT:
            return False
        outcome.close()
        return True

    def _handle_syn(self, flow: FourTuple, client_end: TcpEndpoint,
                    src_host: "Host", result: Event) -> None:
        """Server-side SYN processing: accept-queue or RST.  The accept
        hand-off is its last act, after the SYN-ACK's jitter draw, where
        the accept loop ran when it was scheduled."""
        listener = self.tcp_listeners.get(flow.dst)
        network = self.host.network

        def reply(receiver, item) -> None:
            network.transmit(self.host, src_host.ip, receiver, item,
                             size=SYN_SIZE)

        if (listener is None or listener.closed or not listener.accepting
                or listener.pending >= ACCEPT_BACKLOG):
            reason = "syn_refused" if listener is None or listener.closed \
                else "syn_while_draining" if not listener.accepting \
                else "accept_queue_full"
            self.count_rst_sent(reason)
            reply(_fail_refused, result)
            return

        server_end = TcpEndpoint(self, flow.dst, flow.src, src_host.ip)
        client_end.peer = server_end
        server_end.peer = client_end
        self._c_accepted.inc()
        # Tagged by source so experiments can separate e.g. L4 health
        # probes from real connection-establishment storms.
        self.host.counters.inc("tcp_accepted_from", tag=src_host.name)
        reply(result.deliver, client_end)
        listener.accept_queue.deliver(server_end)

    # -- TCP: data plane ---------------------------------------------------------

    def transmit_stream(self, endpoint: TcpEndpoint, item) -> None:
        """Deliver a FIN or RST ``item`` to the endpoint's peer after
        link latency (data goes by :meth:`TcpEndpoint.send`, which
        inlines this).

        Delivery is kept in order per connection direction (TCP
        semantics): a control message sent after a large payload must
        not overtake it.
        """
        peer = endpoint.peer
        if peer is None:
            return
        endpoint.next_in_order_arrival = self.network.transmit(
            self.host, endpoint.remote_host_ip, peer.deliver, item,
            CONTROL_SIZE, endpoint.next_in_order_arrival) + 1e-9

    # -- UDP -----------------------------------------------------------------------

    def udp_bind(self, process: "SimProcess", endpoint: Endpoint,
                 reuseport: bool = False) -> tuple[int, UdpSocket]:
        """Bind a UDP socket; SO_REUSEPORT joins the endpoint's ring."""
        group = self.udp_groups.get(endpoint)
        if group is not None and len(group) > 0:
            if not reuseport or any(not s.reuseport for s in group.sockets):
                raise BindError(f"udp address in use: {endpoint}")
        if group is None:
            group = ReusePortGroup(salt=self.host.reuseport_salt)
            self.udp_groups[endpoint] = group
        sock = UdpSocket(self, endpoint, reuseport=reuseport)
        group.add(sock)
        description = FileDescription(sock)
        fd = process.fd_table.install(description)
        return fd, sock

    def udp_bind_ephemeral(self, process: "SimProcess") -> tuple[int, UdpSocket]:
        """Client-style bind on a fresh ephemeral port."""
        endpoint = Endpoint(self.host.ip, self.ephemeral_port())
        return self.udp_bind(process, endpoint, reuseport=False)

    def unbind_udp(self, sock: UdpSocket) -> None:
        group = self.udp_groups.get(sock.endpoint)
        if group is not None:
            group.remove(sock)
            if len(group) == 0:
                del self.udp_groups[sock.endpoint]

    def reuseport_ring(self, endpoint: Endpoint) -> Optional[ReusePortGroup]:
        """Expose the ring for observation (tests, experiments)."""
        return self.udp_groups.get(endpoint)

    def transmit_datagram(self, datagram: Datagram, via_ip: str) -> None:
        self._c_udp_sent.inc()
        self.network.transmit(self.host, via_ip, self._datagram_arrives,
                              (datagram, via_ip), size=datagram.size)

    def _datagram_arrives(self, arrival: tuple[Datagram, str]) -> None:
        """Sender-side delivery callback: the destination host is looked
        up at arrival time (it may have gone since the send)."""
        datagram, via_ip = arrival
        dst_host = self.host.network.host(via_ip)
        if dst_host is not None:
            dst_host.kernel._handle_datagram(datagram)

    def _handle_datagram(self, datagram: Datagram) -> None:
        group = self.udp_groups.get(datagram.flow.dst)
        if group is None or len(group) == 0:
            self._c_udp_no_listener.inc()
            return
        sock = group.pick(datagram.flow)
        if sock is None or sock.closed:
            self._c_udp_closed.inc()
            return
        self._c_udp_delivered.inc()
        sock.inbox_deliver(datagram)


def _close_if_established(attempt: Event) -> None:
    if attempt._ok:
        attempt._value.close()


def _fail_refused(result: Event) -> None:
    exc = ConnectionRefusedSim("connection refused")
    result.fail(exc)
    result.defused()
