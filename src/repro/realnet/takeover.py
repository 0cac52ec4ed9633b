"""Real-OS Socket Takeover protocol over AF_UNIX (§4.1, live version).

The serving process runs a :class:`TakeoverServer` bound to a filesystem
path.  A freshly started process calls :func:`request_takeover` to
receive the listening sockets; the server then flips itself into
draining via the caller-provided callback — the same A–F workflow as the
simulation, but on a real Linux kernel.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .fd_passing import close_fds, recv_message, send_message

__all__ = ["TakeoverServer", "request_takeover", "TakenOverSockets"]

#: Seconds each blocking step of a takeover request may take.
TAKEOVER_TIMEOUT = 5.0


@dataclass
class TakenOverSockets:
    """What the new process receives: sockets keyed by VIP name."""

    sockets: dict[str, socket.socket]
    extra: dict


class TakeoverServer:
    """Serves one-shot takeover requests for a set of live sockets.

    ``sockets``: name → listening/bound socket to hand over.
    ``on_drain``: called (once) after the peer confirms it has taken
    over — the moment to stop accepting and start draining.
    """

    def __init__(self, path: str, sockets: dict[str, socket.socket],
                 on_drain: Callable[[], None],
                 extra: Optional[dict] = None):
        self.path = path
        self.sockets = dict(sockets)
        self.on_drain = on_drain
        self.extra = extra or {}
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Bind the takeover path and serve requests on a thread."""
        if os.path.exists(self.path):
            os.unlink(self.path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(1)
        self._listener.settimeout(0.2)
        self._thread = threading.Thread(
            target=self._serve, name="takeover-server", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._listener is not None:
            self._listener.close()
        if os.path.exists(self.path):
            try:
                os.unlink(self.path)
            except OSError:
                pass

    # -- serving ---------------------------------------------------------------

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                # A malformed or vanished peer must not take the takeover
                # server down with it: the serving process keeps its
                # sockets and the next release attempt can try again.
                conn.settimeout(30.0)
                self._handle(conn)
            except (ConnectionError, ValueError, OSError):
                pass
            finally:
                conn.close()

    def _handle(self, conn: socket.socket) -> None:
        payload, stray = recv_message(conn)
        close_fds(stray)  # clients have no business sending us FDs
        if not isinstance(payload, dict) or payload.get("type") != "request_fds":
            send_message(conn, {"type": "error", "reason": "bad request"})
            return
        names = sorted(self.sockets)
        fds = tuple(self.sockets[name].fileno() for name in names)
        send_message(conn, {"type": "fds", "names": names,
                            "extra": self.extra}, fds=fds)
        payload, stray = recv_message(conn)
        close_fds(stray)
        if not isinstance(payload, dict) or payload.get("type") != "confirm":
            send_message(conn, {"type": "error",
                                "reason": "expected confirm"})
            return
        # Steps D/E: stop accepting, start draining.
        self.on_drain()
        send_message(conn, {"type": "drain_started"})


def request_takeover(path: str) -> TakenOverSockets:
    """Client side: fetch the serving process's sockets.

    The returned sockets are fully functional duplicates (shared open
    file descriptions); the caller may ``accept``/``recv`` on them
    immediately.
    """
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    # settimeout() bounds each blocking call by *duration*, so unlike a
    # wall-clock deadline it is immune to clock steps (same discipline
    # as miniproxy's monotonic serve deadline).
    client.settimeout(TAKEOVER_TIMEOUT)
    try:
        client.connect(path)
        send_message(client, {"type": "request_fds"})
        payload, fds = recv_message(client)
        try:
            if not isinstance(payload, dict) or payload.get("type") != "fds":
                raise RuntimeError(f"unexpected reply {payload!r}")
            names = payload["names"]
            extra = payload.get("extra", {})
            if len(names) != len(fds):
                raise RuntimeError("fd count does not match metadata")
        except BaseException:
            close_fds(fds)
            raise
        sockets = {
            name: socket.socket(fileno=fd)
            for name, fd in zip(names, fds)
        }
        try:
            send_message(client, {"type": "confirm"})
            payload, _ = recv_message(client)
            if (not isinstance(payload, dict)
                    or payload.get("type") != "drain_started"):
                raise RuntimeError(f"takeover not confirmed: {payload!r}")
        except BaseException:
            # The sockets wrap the received descriptors; closing them
            # releases every reference this process took.
            for sock in sockets.values():
                sock.close()
            raise
        return TakenOverSockets(sockets=sockets, extra=extra)
    finally:
        client.close()
