"""Live zero-downtime restart of a real TCP server (threads + subprocess)."""

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.realnet import MiniServer, TakeoverServer, request_takeover


def _open_fd_count():
    """This process's open FDs (Linux procfs; skipped elsewhere)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        pytest.skip("/proc/self/fd not available")


def _assert_fds_return_to(baseline, deadline_s=5.0):
    """FD-conservation: after every generation is stopped, the process
    must be back at its pre-takeover FD count — the §5.1 leak would
    leave the passed listener's duplicate descriptor behind."""
    deadline = time.time() + deadline_s
    count = _open_fd_count()
    while count > baseline and time.time() < deadline:
        time.sleep(0.05)
        count = _open_fd_count()
    assert count <= baseline, (
        f"fd leak after takeover: {count} open vs baseline {baseline}")


def _http_get(addr, timeout=5):
    """One request; returns the X-Served-By header value."""
    with socket.create_connection(addr, timeout=timeout) as conn:
        conn.sendall(b"GET / HTTP/1.0\r\n\r\n")
        data = b""
        while b"\r\n\r\n" not in data:
            piece = conn.recv(4096)
            if not piece:
                break
            data += piece
        for line in data.split(b"\r\n"):
            if line.lower().startswith(b"x-served-by:"):
                return line.split(b":", 1)[1].strip().decode()
    raise AssertionError(f"no X-Served-By in {data!r}")


def test_mini_server_serves(tmp_path):
    server = MiniServer.bind()
    server.start()
    try:
        assert _http_get(server.address) == "gen1"
        deadline = time.time() + 2
        while server.requests_served < 1 and time.time() < deadline:
            time.sleep(0.01)
        assert server.requests_served == 1
    finally:
        server.stop()


def test_takeover_handover_between_generations(tmp_path):
    path = str(tmp_path / "takeover.sock")
    baseline_fds = _open_fd_count()
    gen1 = MiniServer.bind()
    gen1.start()
    takeover_srv = gen1.serve_takeover(path)
    addr = gen1.address
    try:
        assert _http_get(addr) == "gen1"
        gen2 = MiniServer.take_over(path, name="gen2")
        gen2.start()
        # gen1 is draining (stopped accepting); gen2 owns the socket now.
        assert not gen1.accepting
        deadline = time.time() + 5
        served_by = None
        while time.time() < deadline:
            served_by = _http_get(addr)
            if served_by == "gen2":
                break
        assert served_by == "gen2"
        # The old process closes its FD: the socket must survive.
        gen1.stop()
        assert _http_get(addr) == "gen2"
        gen2.stop()
        takeover_srv.stop()
        _assert_fds_return_to(baseline_fds)
    finally:
        takeover_srv.stop()


def test_no_request_fails_during_handover(tmp_path):
    """Hammer the server across the restart: zero refused connections."""
    path = str(tmp_path / "takeover.sock")
    gen1 = MiniServer.bind()
    gen1.start()
    takeover_srv = gen1.serve_takeover(path)
    addr = gen1.address
    results = {"ok": 0, "failed": 0}
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            try:
                _http_get(addr, timeout=5)
                results["ok"] += 1
            except Exception:
                results["failed"] += 1

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    try:
        time.sleep(0.3)
        gen2 = MiniServer.take_over(path, name="gen2")
        gen2.start()
        gen1.stop()
        time.sleep(0.5)
        stop.set()
        thread.join(timeout=5)
        assert results["failed"] == 0
        assert results["ok"] > 5
        gen2.stop()
    finally:
        stop.set()
        takeover_srv.stop()


def test_takeover_across_real_processes(tmp_path):
    """The paper's actual setting: the successor is another OS process."""
    path = str(tmp_path / "takeover.sock")
    gen1 = MiniServer.bind()
    gen1.start()
    takeover_srv = gen1.serve_takeover(path)
    addr = gen1.address
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.realnet.miniproxy", path, "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        # Wait until the parent has drained (the child confirmed).
        deadline = time.time() + 10
        while gen1.accepting and time.time() < deadline:
            time.sleep(0.02)
        assert not gen1.accepting, "child never completed takeover"
        # Parent closes its listener FD entirely; the child keeps serving.
        gen1.stop()
        for _ in range(3):
            served_by = _http_get(addr, timeout=10)
            assert served_by.startswith("child-")
        stdout, stderr = child.communicate(timeout=15)
        assert child.returncode == 0, stderr
        assert "served 3" in stdout
    finally:
        takeover_srv.stop()


def test_takeover_request_without_server_fails(tmp_path):
    with pytest.raises((ConnectionError, OSError)):
        request_takeover(str(tmp_path / "nope.sock"))
