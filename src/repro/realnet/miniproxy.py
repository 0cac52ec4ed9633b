"""A live mini HTTP server with zero-downtime restart via Socket Takeover.

A deliberately small HTTP/1.0-style server whose listening socket can be
handed to a successor process (or thread) through
:mod:`repro.realnet.takeover`.  It demonstrates, on a real Linux kernel,
the property the paper builds on: because the passed FD shares the open
file description, the listening socket — and its accept queue — never
closes during the restart, so no SYN is ever refused.

Responses carry an ``X-Served-By`` header so callers can watch the
handover happen.
"""

from __future__ import annotations

import socket
import sys
import threading
from typing import Optional

from .takeover import TakeoverServer, request_takeover

__all__ = ["MiniServer"]


class MiniServer:
    """Threaded one-request-per-connection HTTP server."""

    def __init__(self, listen_sock: socket.socket, name: str = "gen1"):
        self.listen_sock = listen_sock
        self.name = name
        self.accepting = False
        self.requests_served = 0
        self._threads: list[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def bind(cls, host: str = "127.0.0.1", port: int = 0) -> "MiniServer":
        """Cold boot: create and bind our own listening socket."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(128)
        return cls(sock)

    @classmethod
    def take_over(cls, takeover_path: str,
                  name: str = "gen2") -> "MiniServer":
        """Warm boot: receive the predecessor's listening socket (§4.1)."""
        result = request_takeover(takeover_path)
        return cls(result.sockets["http"], name=name)

    @property
    def address(self) -> tuple[str, int]:
        return self.listen_sock.getsockname()

    # -- serving ---------------------------------------------------------------

    def start(self) -> None:
        self.accepting = True
        self.listen_sock.settimeout(0.1)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept",
            daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while self.accepting and not self._stop.is_set():
            try:
                conn, _ = self.listen_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(5)
            request = b""
            while b"\r\n\r\n" not in request:
                piece = conn.recv(4096)
                if not piece:
                    return
                request += piece
            body = f"hello from {self.name}\n".encode()
            conn.sendall(
                b"HTTP/1.0 200 OK\r\n"
                b"X-Served-By: " + self.name.encode() + b"\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"\r\n" + body)
            with self._lock:
                self.requests_served += 1
        except OSError:
            pass
        finally:
            conn.close()

    # -- draining / teardown ---------------------------------------------------

    def drain(self) -> None:
        """Stop accepting; in-flight requests finish.  The listening
        socket stays open (the successor owns a duplicate FD)."""
        self.accepting = False

    def stop(self) -> None:
        self.accepting = False
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)
        self.listen_sock.close()

    # -- takeover plumbing ----------------------------------------------------------

    def serve_takeover(self, path: str) -> TakeoverServer:
        """Run a takeover server handing over our listening socket."""
        server = TakeoverServer(path, {"http": self.listen_sock},
                                on_drain=self.drain,
                                extra={"name": self.name})
        server.start()
        return server


def _child_main(argv: list[str]) -> int:
    """Entry point for the cross-process test/demo.

    ``python -m repro.realnet.miniproxy <takeover_path> <n_requests>``:
    take over the socket, serve ``n_requests`` requests, print a line,
    exit.  ``n_requests == 0`` means "serve until terminated".
    """
    path, wanted = argv[0], int(argv[1])
    server = MiniServer.take_over(path, name=f"child-{threading.get_ident()}")
    server.start()
    import time
    if wanted == 0:
        try:
            while True:
                time.sleep(0.1)
        except KeyboardInterrupt:  # pragma: no cover
            pass
        return 0
    # monotonic: a wall-clock step (NTP, DST) must not break the bound.
    deadline = time.monotonic() + 30
    while server.requests_served < wanted and time.monotonic() < deadline:
        time.sleep(0.01)
    server.stop()
    print(f"served {server.requests_served}")
    return 0 if server.requests_served >= wanted else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(_child_main(sys.argv[1:]))
