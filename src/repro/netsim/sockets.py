"""Simulated socket objects: TCP listeners/endpoints and UDP sockets.

These are the *resources* behind file descriptors.  They hold the kernel
side of connection state: accept queues, receive queues, FIN/RST
bookkeeping.  Applications interact with them through generator-style
blocking calls (``yield sock.recv()``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..simkernel.events import Event
from ..simkernel.resources import Store, StoreGetEvent
from .addresses import Endpoint, FourTuple, Protocol
from .errors import ConnectionResetSim, SocketClosedSim
from .packet import ControlType, Datagram, StreamControl, StreamMessage

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .process import SimProcess

__all__ = ["TcpListenSocket", "TcpConnection", "TcpEndpoint", "UdpSocket"]


class TcpListenSocket:
    """A listening TCP socket with an accept queue.

    The accept queue is part of the *open-file-description*: when the FD
    is passed to another process (Socket Takeover), both processes share
    this object and either may accept from it — exactly the Linux
    semantics the paper relies on ("both ... share the same file table
    entry for the listening socket").
    """

    def __init__(self, kernel: "Kernel", endpoint: Endpoint, backlog: int = 1024):
        self.kernel = kernel
        self.endpoint = endpoint
        self.backlog = backlog
        self.accept_queue: Store = kernel.env.make_store()
        self.accepting = True
        self.closed = False

    def accept(self, process: "SimProcess") -> StoreGetEvent:
        """Wait for the next incoming connection; the endpoint is owned by
        ``process`` once accepted."""
        if self.closed:
            raise SocketClosedSim(f"accept on closed listener {self.endpoint}")
        event = self.accept_queue.get()

        def _assign_owner(ev):
            ev._value.set_owner(process)

        event.callbacks.insert(0, _assign_owner)
        return event

    def pause_accepting(self) -> None:
        """Refuse new SYNs (reply RST) without closing the socket."""
        self.accepting = False

    @property
    def pending(self) -> int:
        """Connections accepted by the kernel but not by the application."""
        return len(self.accept_queue.items)

    def on_last_close(self) -> None:
        """Last FD reference dropped: unbind and reset queued connections."""
        self.closed = True
        self.accepting = False
        self.kernel.unbind_tcp(self)
        for endpoint in list(self.accept_queue.items):
            endpoint.abort(reason="listener_closed")
        self.accept_queue.items.clear()

    def __repr__(self) -> str:
        return f"<TcpListenSocket {self.endpoint} pending={self.pending}>"


class TcpConnection:
    """An established TCP connection: two linked endpoints."""

    def __init__(self, flow: FourTuple, client: "TcpEndpoint",
                 server: "TcpEndpoint"):
        self.flow = flow
        self.client = client
        self.server = server
        client.conn = self
        server.conn = self
        client.peer = server
        server.peer = client


class TcpEndpoint:
    """One side of an established TCP connection.

    ``send`` delivers messages to the peer's inbox after link latency;
    ``recv`` blocks on the inbox.  Closing sends FIN; ``abort`` (or
    process death) sends RST.  Incoming data after local close triggers a
    RST to the peer — the behaviour that turns "drain period expired, old
    instance terminated" into user-visible connection resets.
    """

    __slots__ = ("kernel", "local", "remote", "remote_host_ip", "inbox",
                 "inbox_deliver", "owner", "conn", "peer", "closed", "reset",
                 "fin_received", "bytes_sent", "next_in_order_arrival",
                 "l4lb_backend", "pool_reused")

    def __init__(self, kernel: "Kernel", local: Endpoint, remote: Endpoint,
                 remote_host_ip: str):
        self.kernel = kernel
        self.local = local
        self.remote = remote
        #: Physical host the peer endpoint lives on (may differ from the
        #: VIP in ``remote`` when an L4LB routed the connection).
        self.remote_host_ip = remote_host_ip
        self.inbox: Store = kernel.env.make_store()
        #: Arrival hand-off: wakes a parked reader in place.
        self.inbox_deliver = self.inbox.deliver
        self.owner: Optional["SimProcess"] = None
        self.conn: Optional[TcpConnection] = None
        self.peer: Optional["TcpEndpoint"] = None
        self.closed = False
        self.reset = False
        self.fin_received = False
        self.bytes_sent = 0
        #: Ordering clock for in-order delivery toward the peer.
        self.next_in_order_arrival = 0.0
        #: The backend an L4LB picked for this (client) connection.
        self.l4lb_backend: Optional[str] = None
        #: Checked out of an upstream pool a second time or more.
        self.pool_reused = False

    # -- ownership --------------------------------------------------------

    def set_owner(self, process: "SimProcess") -> None:
        """Attach to a process: the endpoint dies (RST) when it exits."""
        if self.owner is not None:
            self.owner.forget_endpoint(self)
        self.owner = process
        process.adopt_endpoint(self)

    # -- state ---------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Connection usable: not closed locally, not reset by peer."""
        return not (self.closed or self.reset)

    # -- data plane -----------------------------------------------------------

    def send(self, payload: Any, size: int = 100) -> None:
        """Send one message to the peer (fire-and-forget, like a write
        that fits the send buffer)."""
        if self.closed:
            raise SocketClosedSim(f"send on closed endpoint {self.local}")
        if self.reset:
            raise ConnectionResetSim(f"connection {self.local}->{self.remote} reset")
        self.bytes_sent += size
        message = StreamMessage(payload=payload, size=size)
        self.kernel.transmit_stream(self, message)

    def recv(self, timeout: Optional[float] = None) -> StoreGetEvent:
        """Event yielding the next StreamMessage or StreamControl — or,
        with a ``timeout``, ``TIMED_OUT`` if none arrives in time."""
        return self.inbox.get(timeout)

    def close(self) -> None:
        """Graceful close: FIN to the peer, stop using the endpoint."""
        if self.closed:
            return
        self.closed = True
        if not self.reset:
            self.kernel.transmit_stream(self, StreamControl(ControlType.FIN),
                                        control=True)
        self._detach()

    def abort(self, reason: str = "abort") -> None:
        """Hard close: RST to the peer.

        This is what happens to every established connection owned by a
        process that exits, and to accept-queue orphans of a closed
        listener.
        """
        if self.closed:
            return
        self.closed = True
        if not self.reset:
            self.kernel.count_rst_sent(reason)
            self.kernel.transmit_stream(self, StreamControl(ControlType.RST),
                                        control=True)
        self._detach()

    # -- kernel-side receive ---------------------------------------------------

    def deliver(self, arrival: Event) -> None:
        """Delivery-timeout callback: the message ``arrival`` carries
        has reached this endpoint."""
        item = arrival._value
        if isinstance(item, StreamControl):
            if item.kind == ControlType.RST:
                self.reset = True
            elif item.kind == ControlType.FIN:
                self.fin_received = True
            self.inbox_deliver(item)
            return
        if self.closed or (self.owner is not None and not self.owner.alive):
            # Data for a dead endpoint: answer with RST.
            self.kernel.count_rst_sent("data_after_close")
            if self.peer is not None and not self.peer.closed:
                self.kernel.transmit_stream(
                    self, StreamControl(ControlType.RST), control=True)
            return
        self.inbox_deliver(item)

    def _detach(self) -> None:
        if self.owner is not None:
            self.owner.forget_endpoint(self)

    def __repr__(self) -> str:
        flags = "".join(flag for flag, on in [
            ("C", self.closed), ("R", self.reset)] if on)
        return f"<TcpEndpoint {self.local}->{self.remote} {flags}>"


class UdpSocket:
    """A (possibly SO_REUSEPORT) UDP socket.

    Receives whole datagrams picked for it by the endpoint's reuseport
    ring.  Datagrams queued on a socket nobody reads just sit there —
    the orphaned-FD pitfall of §5.1.
    """

    def __init__(self, kernel: "Kernel", endpoint: Endpoint,
                 reuseport: bool = False):
        self.kernel = kernel
        self.endpoint = endpoint
        self.reuseport = reuseport
        self.inbox: Store = kernel.env.make_store()
        #: Arrival hand-off, as :attr:`TcpEndpoint.inbox_deliver`.
        self.inbox_deliver = self.inbox.deliver
        self.closed = False

    def sendto(self, payload: Any, dst: Endpoint, size: int = 100,
               connection_id: Optional[int] = None,
               via_ip: Optional[str] = None) -> None:
        """Send a datagram to ``dst``.

        ``via_ip`` is the physical host to deliver to when ``dst`` is a
        VIP announced by an L4LB; defaults to ``dst.ip``.
        """
        if self.closed:
            raise SocketClosedSim(f"sendto on closed socket {self.endpoint}")
        flow = FourTuple(Protocol.UDP, self.endpoint, dst)
        datagram = Datagram(flow=flow, payload=payload, size=size,
                            connection_id=connection_id)
        self.kernel.transmit_datagram(datagram, via_ip or dst.ip)

    def recv(self, timeout: Optional[float] = None) -> StoreGetEvent:
        """Event yielding the next :class:`Datagram` — or, with a
        ``timeout``, ``TIMED_OUT`` if none arrives in time."""
        if self.closed:
            raise SocketClosedSim(f"recv on closed socket {self.endpoint}")
        return self.inbox.get(timeout)

    def on_last_close(self) -> None:
        self.closed = True
        self.kernel.unbind_udp(self)

    def __repr__(self) -> str:
        return f"<UdpSocket {self.endpoint}>"
