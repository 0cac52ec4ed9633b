"""Real-OS SCM_RIGHTS file-descriptor passing (Linux).

This is the live counterpart of the simulated takeover channel: a tiny
framed protocol over ``AF_UNIX`` sockets that sends a JSON payload plus
an array of file descriptors as ancillary data, using Python's
``socket.send_fds`` / ``socket.recv_fds`` (which wrap
``sendmsg``/``recvmsg`` with ``SCM_RIGHTS`` exactly as §4.1 describes).

Framing: 4-byte big-endian payload length, then the UTF-8 JSON payload.
FDs ride with the *first* byte of each message.

Hardening notes (the paper's §5 lesson — the takeover channel must not
wedge or leak under faults):

* ``sendmsg`` may short-write on a stream socket with a small send
  buffer; the FDs are delivered with the first byte, so the unsent tail
  is retransmitted as plain stream data until the frame is complete.
* Received FDs are closed on *every* error path (malformed JSON, framing
  violations, a peer that dies mid-message) — an exception must never
  leak descriptors into the caller's process.
* The protocol is strict request/response lockstep: bytes buffered past
  the current message body are a framing violation and are rejected
  explicitly rather than silently discarded.
"""

from __future__ import annotations

import json
import os
import socket
import struct
from typing import Any

__all__ = ["send_message", "recv_message", "close_fds", "MAX_FDS"]

#: Upper bound on FDs per message (kernel SCM_MAX_FD is 253).
MAX_FDS = 253

_LENGTH = struct.Struct("!I")

#: recvmsg buffer for the first chunk of each message.
_RECV_CHUNK = 64 * 1024


def close_fds(fds) -> None:
    """Best-effort close of a batch of received descriptors."""
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


def send_message(sock: socket.socket, payload: Any,
                 fds: tuple[int, ...] = ()) -> None:
    """Send ``payload`` (JSON-serializable) plus ``fds`` over ``sock``."""
    if len(fds) > MAX_FDS:
        raise ValueError(f"cannot pass more than {MAX_FDS} fds at once")
    body = json.dumps(payload).encode("utf-8")
    data = _LENGTH.pack(len(body)) + body
    if fds:
        # Ancillary data must accompany at least one byte of real data;
        # the FDs ride the first sendmsg.  On a stream socket sendmsg may
        # accept only part of the frame (small SO_SNDBUF): the ancillary
        # payload is delivered with the first byte, so the remaining tail
        # is ordinary stream data — loop until the frame is complete.
        sent = socket.send_fds(sock, [data], list(fds))
        if sent < len(data):
            sock.sendall(data[sent:])
    else:
        sock.sendall(data)


def _recv_exact(sock: socket.socket, count: int,
                initial: bytes = b"") -> bytes:
    data = initial
    while len(data) < count:
        piece = sock.recv(count - len(data))
        if not piece:
            raise ConnectionError("peer closed during message")
        data += piece
    return data


def recv_message(sock: socket.socket) -> tuple[Any, list[int]]:
    """Receive one message; returns ``(payload, fds)``.

    The received FDs are fresh descriptor numbers in this process
    referring to the sender's open file descriptions (dup semantics).
    If anything goes wrong after the descriptors were received —
    truncated frame, trailing garbage, malformed JSON — they are closed
    before the error propagates, so no descriptor can leak.
    """
    buffered, raw_fds, _flags, _addr = socket.recv_fds(
        sock, _RECV_CHUNK, MAX_FDS)
    fds = list(raw_fds)
    try:
        if not buffered:
            raise ConnectionError("peer closed before message")
        header = _recv_exact(sock, _LENGTH.size,
                             initial=buffered[:_LENGTH.size])
        (length,) = _LENGTH.unpack(header[:_LENGTH.size])
        body = _recv_exact(sock, length, initial=buffered[_LENGTH.size:])
        if len(body) > length:
            # Strict request/response lockstep: data past the current
            # body means the peer broke framing.  Reject it explicitly —
            # silently dropping it would desynchronize the next message.
            raise ConnectionError(
                f"protocol violation: {len(body) - length} trailing "
                f"bytes after message body")
        payload = json.loads(body.decode("utf-8"))
    except BaseException:
        close_fds(fds)
        raise
    return payload, fds
