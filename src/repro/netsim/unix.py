"""UNIX domain sockets with SCM_RIGHTS-style FD passing.

This is the takeover channel of §4.1: the old Proxygen instance runs a
"Socket Takeover server" bound to a well-known path; the new instance
connects and receives the listening-socket FDs as ancillary data
(``sendmsg``/``recvmsg`` with ``CMSG``/``SCM_RIGHTS``).

Semantics modelled faithfully:

* Sending FDs places an extra reference on each open-file-description
  (the "in-flight" reference) — so sockets stay alive even if the sender
  exits before the receiver reads the message.
* Receiving installs fresh descriptor numbers in the receiver's table,
  exactly like ``dup(2)``.
* A receiver that never reads (or reads and ignores) keeps the
  descriptions referenced: the orphaned-socket leak of §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..simkernel.events import Event
from ..simkernel.resources import Store, StoreGetEvent
from .errors import ConnectionRefusedSim, SocketClosedSim
from .filetable import FileDescription

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host
    from .process import SimProcess

__all__ = ["UnixListener", "UnixChannelEnd", "UnixMessage"]

#: In-host IPC delay for a unix-socket message (seconds).
LOCAL_IPC_DELAY = 0.0001


@dataclass
class UnixMessage:
    """One ``sendmsg`` unit: payload plus optional ancillary FDs."""

    payload: Any
    descriptions: list[FileDescription] = field(default_factory=list)


class UnixListener:
    """A listening UNIX domain socket bound to a path on one host."""

    def __init__(self, host: "Host", path: str, owner: "SimProcess"):
        self.host = host
        self.path = path
        self.owner = owner
        self.accept_queue: Store = host.env.make_store()
        self.closed = False

    def accept(self) -> StoreGetEvent:
        """Event yielding the server-side :class:`UnixChannelEnd`."""
        if self.closed:
            raise SocketClosedSim(f"accept on closed unix listener {self.path}")
        return self.accept_queue.get()

    def close(self) -> None:
        self.closed = True
        if self.host.unix_namespace.get(self.path) is self:
            del self.host.unix_namespace[self.path]


class UnixChannelEnd:
    """One end of a connected UNIX domain socket pair."""

    def __init__(self, host: "Host", process: "SimProcess"):
        self.host = host
        self.process = process
        self.inbox: Store = host.env.make_store()
        self.peer: Optional["UnixChannelEnd"] = None
        self.closed = False

    def send(self, payload: Any, fds: tuple[int, ...] = ()) -> None:
        """``sendmsg``: payload plus ancillary FDs from our file table."""
        if self.closed or self.peer is None or self.peer.closed:
            raise SocketClosedSim("send on closed unix channel")
        descriptions = []
        for fd in fds:
            description = self.process.fd_table.description(fd)
            description.incref()  # the in-flight reference
            descriptions.append(description)
        message = UnixMessage(payload=payload, descriptions=descriptions)
        self.host.env.call_later(LOCAL_IPC_DELAY, self.peer.inbox.put,
                                 message)

    def recv(self, timeout: Optional[float] = None) -> Event:
        """``recvmsg``: event yielding ``(payload, [new_fds])`` — or,
        with a ``timeout``, ``TIMED_OUT`` if nothing arrives in time.

        Received descriptions are installed into the receiving process's
        file table before the caller resumes (dup semantics); the
        in-flight references are dropped.  The read stays posted after
        a timeout: a late message is still taken off the channel, and
        dropped if the channel is closed by then.
        """
        if self.closed:
            raise SocketClosedSim("recv on closed unix channel")
        raw = self.inbox.get()
        env = self.host.env
        result = env.event()

        def _install(ev) -> None:
            message: UnixMessage = ev._value
            if self.closed or not self.process.alive:
                # The receiver died (or closed the channel) while the
                # message was in flight — e.g. a takeover client reaped
                # after a handshake timeout.  Installing into its table
                # would leak the descriptions forever; drop the in-flight
                # references instead.
                for description in message.descriptions:
                    description.decref()
                return
            new_fds = []
            for description in message.descriptions:
                new_fds.append(self.process.fd_table.install(description))
                description.decref()  # consume the in-flight reference
            if not result.triggered:  # else the deadline passed first
                result.succeed((message.payload, new_fds))

        raw.callbacks.append(_install)
        return result if timeout is None else env.within(result, timeout)

    def close(self) -> None:
        self.closed = True
        peer = self.peer
        if peer is not None and peer.closed:
            self.peer = peer.peer = None  # neither end sends again


def unix_listen(host: "Host", process: "SimProcess", path: str) -> UnixListener:
    """Bind a takeover server socket at ``path`` (replacing a dead one)."""
    existing = host.unix_namespace.get(path)
    if existing is not None and not existing.closed and existing.owner.alive:
        raise SocketClosedSim(f"unix path in use: {path}")
    listener = UnixListener(host, path, process)
    host.unix_namespace[path] = listener
    return listener


def unix_connect(host: "Host", process: "SimProcess", path: str) -> Event:
    """Connect to the unix listener at ``path`` on the same host."""
    result = host.env.event()
    listener = host.unix_namespace.get(path)
    if listener is None or listener.closed:
        exc = ConnectionRefusedSim(f"no unix listener at {path}")
        result.fail(exc)
        result.defused()
        return result

    client_end = UnixChannelEnd(host, process)
    server_end = UnixChannelEnd(host, listener.owner)
    client_end.peer = server_end
    server_end.peer = client_end

    def _deliver(_arg) -> None:
        listener.accept_queue.put(server_end)
        result.succeed(client_end)

    host.env.call_later(LOCAL_IPC_DELAY, _deliver, None)
    return result
