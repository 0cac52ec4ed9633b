#!/usr/bin/env python3
"""LIVE Socket Takeover on your actual kernel (no simulation).

Starts a real TCP server on 127.0.0.1, hammers it with requests from a
background thread, then hands the listening socket to a brand-new OS
process via SCM_RIGHTS over an AF_UNIX socket — exactly the §4.1
mechanism — and shows that not a single request failed.

Run:  python examples/live_socket_takeover.py
"""

import socket
import subprocess
import sys
import tempfile
import threading
import time

from repro.realnet import MiniServer


def http_get(addr):
    with socket.create_connection(addr, timeout=5) as conn:
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
    raise RuntimeError("no response")


def main() -> None:
    path = tempfile.mktemp(suffix=".takeover.sock")
    gen1 = MiniServer.bind(name="gen1")
    gen1.start()
    takeover_srv = gen1.serve_takeover(path)
    addr = gen1.address
    print(f"gen1 serving on {addr[0]}:{addr[1]} "
          f"(takeover socket: {path})")

    results = {"ok": 0, "failed": 0, "servers": set()}
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            try:
                results["servers"].add(http_get(addr))
                results["ok"] += 1
            except Exception:
                results["failed"] += 1
            time.sleep(0.005)

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    time.sleep(0.5)
    print(f"client hammering... {results['ok']} requests ok so far")

    print("spawning gen2 as a NEW OS PROCESS; it will take over the "
          "listening socket...")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.realnet.miniproxy", path, "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    deadline = time.time() + 10
    while gen1.accepting and time.time() < deadline:
        time.sleep(0.02)
    print(f"gen1 is draining (stopped accepting) at "
          f"{results['ok']} requests; gen2 owns the socket now")
    gen1.stop(close_listener=True)
    takeover_srv.stop()
    print("gen1 process state torn down completely (listener FD closed)")

    # Keep hammering the restarted server for a while, then stop the
    # client *before* tearing the child down.
    time.sleep(1.5)
    stop.set()
    thread.join(timeout=5)
    child.terminate()
    child.wait(timeout=10)

    print(f"\nresults: {results['ok']} requests ok, "
          f"{results['failed']} failed")
    print(f"servers observed by the client: {sorted(results['servers'])}")
    if results["failed"] == 0 and len(results["servers"]) >= 2:
        print("\nZERO requests failed across a real cross-process restart.")
    else:
        print("\nsomething went wrong — see counts above")
        sys.exit(1)


if __name__ == "__main__":
    main()
