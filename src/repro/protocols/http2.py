"""HTTP/2-lite: stream multiplexing with GOAWAY over one TCP connection.

Edge and Origin Proxygen maintain long-lived HTTP/2 connections between
them (§2.2); user requests and MQTT tunnels ride these as streams.  The
property the paper leans on is **GOAWAY**: a draining proxy can tell its
peer "open no new streams on this connection" while in-flight streams
finish — graceful shutdown semantics that HTTP/1.1 and MQTT lack (§3,
Option-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..simkernel.resources import Store
from ..netsim.packet import StreamControl

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.process import SimProcess
    from ..netsim.sockets import TcpEndpoint

__all__ = ["H2Frame", "H2Stream", "H2Connection", "H2Error", "GoAwayError",
           "FrameType"]


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
    """One multiplexed stream."""

    def __init__(self, conn: "H2Connection", stream_id: int):
        self.conn = conn
        self.id = stream_id
        self.inbox: Store = conn.env.make_store()
        self.local_closed = False
        self.remote_closed = False
        self.reset = False

    @property
    def closed(self) -> bool:
        return (self.local_closed and self.remote_closed) or self.reset

    def send(self, payload: Any, size: int = 100,
             end_stream: bool = False, frame_type: str = FrameType.DATA) -> None:
        """Send one frame on this stream."""
        if self.reset:
            raise H2Error(f"stream {self.id} was reset")
        if self.local_closed:
            raise H2Error(f"stream {self.id} closed locally")
        if end_stream:
            self.local_closed = True
        self.conn.send_frame(H2Frame(
            stream_id=self.id, type=frame_type, payload=payload,
            end_stream=end_stream, size=size))

    def recv(self):
        """Event yielding the next :class:`H2Frame` on this stream."""
        return self.inbox.get()

    def rst(self) -> None:
        """Abort the stream (RST_STREAM)."""
        if not self.reset:
            self.reset = True
            self.conn.send_frame(H2Frame(
                stream_id=self.id, type=FrameType.RST_STREAM, size=32))

    def _deliver(self, frame: H2Frame) -> None:
        if frame.type == FrameType.RST_STREAM:
            self.reset = True
        if frame.end_stream:
            self.remote_closed = True
        self.inbox.put(frame)


class H2Connection:
    """An HTTP/2 session over one simulated TCP endpoint.

    Construct with ``role="client"`` (opens odd stream ids) or
    ``role="server"`` (even).  Call :meth:`start` with the owning OS
    process to run the frame dispatcher.
    """

    def __init__(self, endpoint: "TcpEndpoint", role: str):
        if role not in ("client", "server"):
            raise ValueError(f"bad role {role!r}")
        self.endpoint = endpoint
        self.env = endpoint.kernel.env
        self.role = role
        self.streams: dict[int, H2Stream] = {}
        #: New streams opened by the peer, awaiting accept_stream().
        self.incoming: Store = self.env.make_store()
        self._next_stream_id = 1 if role == "client" else 2
        self.goaway_sent = False
        self.goaway_received = False
        self.goaway_last_stream_id: Optional[int] = None
        self._highest_peer_stream = 0
        self.broken = False
        #: Triggers when the underlying connection dies (FIN or RST).
        self.closed_event = self.env.event()

    # -- lifecycle ------------------------------------------------------------

    def start(self, process: "SimProcess") -> None:
        """Run the frame dispatcher as a task of ``process``."""
        process.run(self._dispatch_loop())

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
        """Event yielding the next peer-initiated :class:`H2Stream`."""
        return self.incoming.get()

    def open_stream_count(self) -> int:
        return sum(1 for s in self.streams.values() if not s.closed)

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

    def _dispatch_loop(self):
        while True:
            item = yield self.endpoint.recv()
            if isinstance(item, StreamControl):
                self._on_transport_down()
                return
            frame: H2Frame = item.payload
            if frame.type == FrameType.GOAWAY:
                self.goaway_received = True
                self.goaway_last_stream_id = frame.payload
                continue
            if frame.stream_id == 0:
                continue  # connection-level PING etc.
            stream = self.streams.get(frame.stream_id)
            if stream is None:
                if self._is_peer_stream(frame.stream_id):
                    if self.goaway_sent:
                        # Raced with our GOAWAY: refuse the new stream.
                        self.send_frame(H2Frame(
                            stream_id=frame.stream_id,
                            type=FrameType.RST_STREAM, size=32))
                        continue
                    stream = H2Stream(self, frame.stream_id)
                    self.streams[frame.stream_id] = stream
                    self._highest_peer_stream = max(
                        self._highest_peer_stream, frame.stream_id)
                    stream._deliver(frame)
                    self.incoming.put(stream)
                    continue
                # Frame for a forgotten local stream: drop.
                continue
            stream._deliver(frame)

    def _is_peer_stream(self, stream_id: int) -> bool:
        peer_parity = 0 if self.role == "client" else 1
        return stream_id % 2 == peer_parity

    def _on_transport_down(self) -> None:
        self.broken = True
        for stream in self.streams.values():
            if not stream.closed:
                stream.reset = True
                stream.inbox.put(H2Frame(
                    stream_id=stream.id, type=FrameType.RST_STREAM, size=0))
        if not self.closed_event.triggered:
            self.closed_event.succeed()
