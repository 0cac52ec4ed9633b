"""HTTP/2-lite: stream multiplexing with GOAWAY over one TCP connection.

Edge and Origin Proxygen maintain long-lived HTTP/2 connections between
them (§2.2); user requests and MQTT tunnels ride these as streams.  The
property the paper leans on is **GOAWAY**: a draining proxy can tell its
peer "open no new streams on this connection" while in-flight streams
finish — graceful shutdown semantics that HTTP/1.1 and MQTT lack (§3,
Option-3).

Nobody runs a dispatcher: :meth:`H2Connection.start` rebinds the
socket's arrival hand-off (``TcpEndpoint.inbox_deliver``) to
:meth:`H2Connection._demux`, so a frame is routed inside the delivery's
callback, whose last act is ``Store.deliver`` on the stream's
inbox (or the accept queue, for a new peer stream): the parked reader
resumes there and then.  Transport death is an item in the accept queue,
as FIN is in a socket inbox: ``accept_stream()`` yields ``None``.  The
demux belongs to the OS process ``start`` was given:

* once it has exited, arrivals reach nobody — the socket answers data
  with RST before it gets here, and a late FIN/RST tears nothing down
  (the process's tasks were interrupted; no one is left to tell);
* ``close()`` is the socket's: with the process alive, a peer FIN still
  breaks the connection, resets open streams and ends the accept loop;
* frames the socket queued before ``start`` go through a one-shot task
  — after the caller's code, at the same instant, in arrival order — so
  ``start()`` then ``send_goaway()`` still refuses them.

A session and its socket hold each other (``_demux``) while it is up;
once it is ``broken`` the socket's hand-off becomes a no-op, so neither
waits for the cyclic collector.

A stream lives in :attr:`H2Connection.streams` only while it is open.
It leaves the moment it closes — both halves ended (``end_stream`` sent
and received, in either order) or reset (either side's RST_STREAM, or
the transport's death) — so a long-lived Edge↔Origin connection holds
what it carries now, not every request it ever carried; whoever still
holds the stream keeps reading its inbox.  A late frame for a forgotten
stream is dropped, as HTTP/2 ignores frames on a closed stream.  For a
*peer* stream that needs an id guard: a peer opens its stream ids in
increasing order (every caller sends on a stream as it opens it), so a
peer id at or below the highest one accepted is a stream we already
knew.  Without the guard, a late DATA frame — one that crossed our
RST_STREAM, say — would be accepted as a brand-new stream, or refused
with an RST_STREAM of its own once GOAWAY was sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MethodType
from typing import TYPE_CHECKING, Any, Optional

from ..simkernel.resources import Store
from ..netsim.packet import StreamControl

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.process import SimProcess
    from ..netsim.sockets import TcpEndpoint

__all__ = ["H2Frame", "H2Stream", "H2Connection", "H2Error", "GoAwayError",
           "FrameType"]

#: Builds a slotted frame without its class call (see
#: :meth:`H2Stream.send`).
_new = object.__new__


class H2Error(Exception):
    """Protocol-level HTTP/2 failure."""


class GoAwayError(H2Error):
    """Attempt to open a stream on a connection that received GOAWAY."""


class FrameType:
    HEADERS = "HEADERS"
    DATA = "DATA"
    GOAWAY = "GOAWAY"
    RST_STREAM = "RST_STREAM"
    PING = "PING"


@dataclass(slots=True)
class H2Frame:
    """One HTTP/2 frame (simplified)."""

    stream_id: int
    type: str
    payload: Any = None
    end_stream: bool = False
    size: int = 64


class H2Stream:
    """One multiplexed stream; its connection forgets it once closed."""

    __slots__ = ("conn", "id", "inbox", "local_closed", "remote_closed",
                 "reset")

    def __init__(self, conn: "H2Connection", stream_id: int):
        self.conn = conn
        self.id = stream_id
        self.inbox: Store = conn.env.make_store()
        self.local_closed = False
        self.remote_closed = False
        self.reset = False

    def send(self, payload: Any, size: int = 100,
             end_stream: bool = False, frame_type: str = FrameType.DATA) -> None:
        """Send one frame on this stream."""
        if self.reset:
            raise H2Error(f"stream {self.id} was reset")
        if self.local_closed:
            raise H2Error(f"stream {self.id} closed locally")
        conn = self.conn
        if end_stream:
            self.local_closed = True
            if self.remote_closed:
                conn.streams.pop(self.id, None)
        # ``conn.send_frame`` and ``endpoint.alive``, inlined, with the
        # frame built in place: no pass-through or class call per send.
        endpoint = conn.endpoint
        if conn.broken or endpoint.closed or endpoint.reset:
            raise H2Error("send on dead connection")
        frame = _new(H2Frame)
        frame.stream_id = self.id
        frame.type = frame_type
        frame.payload = payload
        frame.end_stream = end_stream
        frame.size = size
        endpoint.send(frame, size)

    def recv(self, timeout: Optional[float] = None):
        """Event yielding the next :class:`H2Frame` on this stream (or,
        while it holds a socket's arrivals, that socket's next item) —
        or, with a ``timeout``, ``TIMED_OUT`` if none arrives in time."""
        return self.inbox.get(timeout)

    def take_arrivals(self, endpoint: "TcpEndpoint") -> None:
        """Have ``endpoint``'s arrivals land on this stream's inbox too,
        until :meth:`return_arrivals`.

        A relay that must notice a reply from ``endpoint`` while it
        forwards this stream's frames to it (the Origin's POST relay,
        §4.3) then waits on one store, and each arrival wakes it in
        place as a frame does: the socket's hand-off is rebound to this
        connection's ``_wake`` on this inbox.  The reader tells the two
        apart by type — only frames are :class:`H2Frame`.  Items the
        socket had queued already move over now, behind the frames the
        stream holds.
        """
        inbox = self.inbox
        queued = endpoint.inbox.items
        while queued:
            inbox.put(queued.pop(0))
        endpoint.inbox_deliver = MethodType(self.conn._wake, inbox)

    def return_arrivals(self, endpoint: "TcpEndpoint") -> None:
        """Undo :meth:`take_arrivals`; calling it again changes nothing.

        The socket wakes its own readers again, and the socket's items
        this inbox still holds go back to the socket's inbox, in order,
        where ``recv`` and a scan of ``inbox.items`` find them.
        """
        socket_inbox = endpoint.inbox
        endpoint.inbox_deliver = MethodType(self.conn._wake, socket_inbox)
        frames = []
        for item in self.inbox.items:
            if isinstance(item, H2Frame):
                frames.append(item)
            else:
                socket_inbox.put(item)
        self.inbox.items[:] = frames

    def rst(self) -> None:
        """Abort the stream (RST_STREAM)."""
        if not self.reset:
            self.reset = True
            self.conn.streams.pop(self.id, None)
            self.conn.send_frame(H2Frame(
                stream_id=self.id, type=FrameType.RST_STREAM, size=32))


class H2Connection:
    """An HTTP/2 session over one simulated TCP endpoint.

    Construct with ``role="client"`` (opens odd stream ids) or
    ``role="server"`` (even).  Call :meth:`start` with the owning OS
    process to begin demultiplexing arrivals (see the module docstring).
    """

    def __init__(self, endpoint: "TcpEndpoint", role: str):
        if role not in ("client", "server"):
            raise ValueError(f"bad role {role!r}")
        self.endpoint = endpoint
        self.env = endpoint.kernel.env
        self.role = role
        #: Open streams only, in open order (see the module docstring).
        self.streams: dict[int, H2Stream] = {}
        #: New streams opened by the peer, awaiting accept_stream().
        self.incoming: Store = self.env.make_store()
        self._next_stream_id = 1 if role == "client" else 2
        self.goaway_sent = False
        self.goaway_received = False
        self.goaway_last_stream_id: Optional[int] = None
        self._highest_peer_stream = 0
        self.broken = False
        #: ``Store.deliver``, unbound: it wakes whichever inbox it is
        #: handed.
        self._wake = type(self.incoming).deliver

    # -- lifecycle ------------------------------------------------------------

    def start(self, process: "SimProcess") -> None:
        """Demultiplex arrivals from now on, on behalf of ``process``."""
        self._process = process
        self.endpoint.inbox_deliver = self._demux
        if self.endpoint.inbox.items:
            process.run(self._demux_backlog())

    def close(self) -> None:
        """Close the underlying TCP connection (FIN)."""
        self.endpoint.close()

    @property
    def alive(self) -> bool:
        return not self.broken and self.endpoint.alive

    # -- stream management -------------------------------------------------------

    def open_stream(self) -> H2Stream:
        """Open a new locally-initiated stream."""
        if self.goaway_received:
            raise GoAwayError("peer sent GOAWAY; open a new connection")
        if self.broken:
            raise H2Error("connection is broken")
        stream = H2Stream(self, self._next_stream_id)
        self._next_stream_id += 2
        self.streams[stream.id] = stream
        return stream

    def accept_stream(self):
        """Event: the next peer-opened :class:`H2Stream`; ``None`` if dead."""
        return self.incoming.get()

    def open_stream_count(self) -> int:
        return sum(1 for s in self.streams.values()
                   if not ((s.local_closed and s.remote_closed) or s.reset))

    # -- GOAWAY ----------------------------------------------------------------

    def send_goaway(self) -> None:
        """Graceful shutdown: peer must not open new streams.

        In-flight streams (ids ≤ the advertised last stream id) are
        allowed to finish — this is what lets a draining Proxygen wind
        down Edge↔Origin connections without user-visible disruption.
        """
        if self.goaway_sent:
            return
        self.goaway_sent = True
        self.send_frame(H2Frame(
            stream_id=0, type=FrameType.GOAWAY,
            payload=self._highest_peer_stream, size=64))

    # -- frame plumbing ------------------------------------------------------------

    def send_frame(self, frame: H2Frame) -> None:
        if self.broken or not self.endpoint.alive:
            raise H2Error("send on dead connection")
        self.endpoint.send(frame, size=frame.size)

    def _demux_backlog(self):
        """One-shot task: what the socket queued before :meth:`start`.
        Its ``Initialize`` is urgent, so it runs ahead of any arrival;
        in process context ``deliver`` is ``put``: readers are scheduled."""
        items = self.endpoint.inbox.items
        while items:
            self._demux(items.pop(0))
        yield from ()  # a task is a generator

    def _demux(self, item) -> None:
        """``endpoint.inbox_deliver``: route one arrival to its reader,
        as the tail of the delivery's callback."""
        if self.broken or not self._process.alive:
            return
        if isinstance(item, StreamControl):
            self._on_transport_down()
            return
        frame: H2Frame = item.payload
        stream_id = frame.stream_id
        if frame.type == FrameType.GOAWAY:
            self.goaway_received = True
            self.goaway_last_stream_id = frame.payload
            return
        if stream_id == 0:
            return  # connection-level PING etc.
        streams = self.streams
        stream = streams.get(stream_id)
        new = stream is None
        if new:
            if (not self._is_peer_stream(stream_id)
                    or stream_id <= self._highest_peer_stream):
                return  # frame for a forgotten stream: drop
            if self.goaway_sent:
                # Raced with our GOAWAY: refuse the new stream.
                self.send_frame(H2Frame(
                    stream_id=stream_id, type=FrameType.RST_STREAM, size=32))
                return
            stream = streams[stream_id] = H2Stream(self, stream_id)
            self._highest_peer_stream = stream_id
        # The frame reaches its stream (nobody reads a stream this new).
        if frame.type == FrameType.RST_STREAM:
            stream.reset = True
        if frame.end_stream:
            stream.remote_closed = True
        if (stream.local_closed and stream.remote_closed) or stream.reset:
            streams.pop(stream_id, None)
        self._wake(stream.inbox, frame)
        if new:
            self._wake(self.incoming, stream)

    def _is_peer_stream(self, stream_id: int) -> bool:
        peer_parity = 0 if self.role == "client" else 1
        return stream_id % 2 == peer_parity

    def _on_transport_down(self) -> None:
        self.broken = True
        self.endpoint.inbox_deliver = _drop  # ``_demux`` drops it all now
        # ``put``, not ``deliver``: a handler resumed inside this loop
        # could open a stream.  Readers wake in order, the accept loop last;
        # every stream still known is open, and every one is reset now.
        for stream in self.streams.values():
            stream.reset = True
            stream.inbox.put(H2Frame(
                stream_id=stream.id, type=FrameType.RST_STREAM, size=0))
        self.streams.clear()
        self.incoming.put(None)


def _drop(item) -> None:
    """A broken session's socket hand-off: the arrival reaches nobody."""
