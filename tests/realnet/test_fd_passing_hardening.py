"""Hardening of the real-OS takeover channel (§5 "hands-on" faults).

The acceptance bar: the framed SCM_RIGHTS protocol survives a forced
short write (tiny SO_SNDBUF) and a malformed-payload peer, without
leaking a single file descriptor (verified by counting /proc/self/fd).
"""

import json
import os
import socket
import struct
import threading

import pytest

from repro.realnet import recv_message, send_message


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def pair():
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    yield a, b
    a.close()
    b.close()


def _shrink_buffers(sender: socket.socket, receiver: socket.socket) -> None:
    sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    receiver.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)


def test_short_write_large_payload_roundtrips(pair):
    """A payload far larger than SO_SNDBUF forces sendmsg to short-write;
    the tail must still arrive (the receiver used to hang forever)."""
    a, b = pair
    _shrink_buffers(a, b)
    blob = {"data": "x" * 1_000_000}
    b.settimeout(10)

    sender = threading.Thread(target=send_message, args=(a, blob))
    sender.start()
    try:
        payload, fds = recv_message(b)
    finally:
        sender.join(timeout=10)
    assert payload == blob
    assert fds == []
    assert not sender.is_alive()


def test_short_write_with_fds_roundtrips(pair, tmp_path):
    """FDs ride the first sendmsg; the body tail follows as plain data."""
    a, b = pair
    _shrink_buffers(a, b)
    path = tmp_path / "payload.txt"
    path.write_text("takeover")
    fd = os.open(path, os.O_RDONLY)
    blob = {"data": "y" * 500_000}
    b.settimeout(10)
    before = _fd_count()

    sender = threading.Thread(target=send_message, args=(a, blob, (fd,)))
    sender.start()
    try:
        payload, fds = recv_message(b)
    finally:
        sender.join(timeout=10)
    assert payload == blob
    assert len(fds) == 1
    assert os.read(fds[0], 8) == b"takeover"
    os.close(fds[0])
    os.close(fd)
    assert _fd_count() == before - 1  # the duplicate and original are gone


def test_malformed_payload_closes_received_fds(pair, tmp_path):
    """A peer that frames garbage alongside FDs must not leak them."""
    a, b = pair
    path = tmp_path / "f.txt"
    path.write_text("x")
    fd = os.open(path, os.O_RDONLY)
    try:
        before = _fd_count()
        body = b"this is not json"
        header = struct.pack("!I", len(body))
        socket.send_fds(a, [header + body], [fd])
        with pytest.raises(json.JSONDecodeError):
            recv_message(b)
        # The received duplicate was closed on the error path.
        assert _fd_count() == before
    finally:
        os.close(fd)


def test_trailing_bytes_rejected_and_fds_closed(pair, tmp_path):
    """Bytes past the declared body length are a framing violation."""
    a, b = pair
    path = tmp_path / "g.txt"
    path.write_text("x")
    fd = os.open(path, os.O_RDONLY)
    try:
        before = _fd_count()
        body = json.dumps({"ok": 1}).encode()
        frame = struct.pack("!I", len(body)) + body + b"GARBAGE"
        socket.send_fds(a, [frame], [fd])
        with pytest.raises(ConnectionError, match="trailing"):
            recv_message(b)
        assert _fd_count() == before
    finally:
        os.close(fd)


def test_peer_death_mid_message_closes_fds(pair, tmp_path):
    """Header promises more bytes than ever arrive: the FD that rode the
    first chunk must be closed when the truncated read errors out."""
    a, b = pair
    path = tmp_path / "h.txt"
    path.write_text("x")
    fd = os.open(path, os.O_RDONLY)
    try:
        before = _fd_count()
        header = struct.pack("!I", 10_000)  # promise 10k, deliver 3
        socket.send_fds(a, [header + b"abc"], [fd])
        a.close()  # drops one descriptor (the sender end) itself
        with pytest.raises(ConnectionError):
            recv_message(b)
        assert _fd_count() == before - 1
    finally:
        os.close(fd)


def test_takeover_client_rejects_mismatched_metadata(tmp_path):
    """request_takeover closes received sockets when metadata lies."""
    from repro.realnet import TakenOverSockets  # noqa: F401 (import check)
    from repro.realnet.takeover import request_takeover

    path = str(tmp_path / "bad.sock")
    before = _fd_count()
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)

    def bad_server():
        conn, _ = listener.accept()
        recv_message(conn)
        extra_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            # Two names, one FD: the count check must fire client-side.
            send_message(conn, {"type": "fds", "names": ["a", "b"]},
                         fds=(extra_sock.fileno(),))
            conn.recv(1024)
        finally:
            extra_sock.close()
            conn.close()

    thread = threading.Thread(target=bad_server)
    thread.start()
    try:
        with pytest.raises(RuntimeError, match="fd count"):
            request_takeover(path)
    finally:
        thread.join(timeout=10)
        listener.close()
    assert _fd_count() == before
