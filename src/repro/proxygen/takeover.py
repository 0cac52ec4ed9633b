"""Socket Takeover: the §4.1 protocol over a UNIX domain socket.

Workflow (Figure 5 of the paper):

* (A) the serving instance runs a Socket Takeover server bound to a
  well-known path; the freshly spawned instance connects to it;
* (B) the old instance sends the FDs of every listening socket — the
  TCP listener of each VIP and *all* SO_REUSEPORT UDP sockets — via
  ``sendmsg``/``SCM_RIGHTS``;
* (C) the new instance starts serving on the received FDs;
* (D) it confirms, telling the old instance to begin draining;
* (E) the old instance stops handling new connections and drains;
* (F) the new instance answers L4LB health checks from then on.

The messages here are plain dicts; the FD mechanics (refcounted
descriptions, dup-on-receive) live in :mod:`repro.netsim.unix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..netsim.proc_utils import TIMED_OUT

if TYPE_CHECKING:  # pragma: no cover
    from .instance import ProxygenInstance

__all__ = ["SocketMeta", "TakeoverResult", "TakeoverFailed",
           "run_takeover_server_session", "run_takeover_client"]


class TakeoverFailed(RuntimeError):
    """The §4.1 handshake did not complete (stall, abort, bad reply).

    Raised client-side; the caller must reap the half-born instance and
    leave the old generation serving.  Subclasses ``RuntimeError`` so
    pre-existing handlers keep working.
    """


@dataclass(frozen=True)
class SocketMeta:
    """Describes one FD in the takeover bundle (parallel to the FD array)."""

    vip_name: str
    protocol: str  # "tcp" | "udp"
    index: int     # position within the VIP's socket set


@dataclass
class TakeoverResult:
    """What the new instance ends up with after the handshake."""

    tcp_listener_fds: dict[str, int]
    udp_socket_fds: dict[str, list[int]]
    old_forward_port: Optional[int]
    drain_confirmed: bool


def run_takeover_server_session(instance: "ProxygenInstance", channel):
    """Generator: serve one takeover exchange on the old instance's side.

    Ends with the old instance in draining state (step E).  Every recv
    is bounded by ``takeover_handshake_timeout``: the takeover server
    handles sessions serially, so a successor that stalls mid-handshake
    must not wedge the accept loop forever.
    """
    env = instance.host.env
    timeout = instance.config.takeover_handshake_timeout
    outcome = yield channel.recv(timeout)
    if outcome is TIMED_OUT:
        instance.counters.inc("takeover_session_timeout")
        channel.close()
        return False
    payload, _fds = outcome
    if not isinstance(payload, dict) or payload.get("type") != "request_fds":
        channel.send({"type": "error", "reason": "bad request"})
        return False

    fault = getattr(instance.server, "takeover_fault", None)
    if fault == "stall":
        # Injected fault: the old instance wedges mid-handshake and never
        # sends the FD bundle.  The client gives up at its own handshake
        # timeout; we park long enough to be sure of that, then abandon
        # the session so the serial loop can take the retry.
        instance.counters.inc("takeover_fault", tag="stall")
        yield env.timeout(timeout * 2)
        channel.close()
        return False
    if fault == "abort":
        # Injected fault: the old instance actively refuses (a crashed
        # takeover thread responding with garbage).
        instance.counters.inc("takeover_fault", tag="abort")
        channel.send({"type": "error", "reason": "fault:abort"})
        return False

    meta, fds = _collect_fd_bundle(instance)
    channel.send(
        {
            "type": "fds",
            "meta": meta,
            "forward_port": instance.forward_port,
        },
        fds=tuple(fds),
    )

    outcome = yield channel.recv(timeout)
    if outcome is TIMED_OUT:
        # The successor took the FDs and vanished.  Do NOT drain: no
        # confirm means nobody promised to serve; our references keep
        # the sockets alive and we stay active.
        instance.counters.inc("takeover_session_timeout")
        channel.close()
        return False
    payload, _fds = outcome
    if not isinstance(payload, dict) or payload.get("type") != "confirm":
        channel.send({"type": "error", "reason": "expected confirm"})
        return False

    # Step D/E: confirmation received -> stop accepting, start draining.
    instance.begin_drain(reason="takeover")
    channel.send({"type": "drain_started"})
    return True


def _collect_fd_bundle(instance: "ProxygenInstance"):
    """The (meta, fds) arrays for every socket the old instance passes."""
    meta: list[SocketMeta] = []
    fds: list[int] = []
    table = instance.process.fd_table
    for vip_name, listener in instance.tcp_listeners.items():
        fd = table.find_fd(listener)
        if fd is None:
            continue
        meta.append(SocketMeta(vip_name, "tcp", 0))
        fds.append(fd)
    for vip_name, sockets in instance.udp_sockets.items():
        for index, sock in enumerate(sockets):
            fd = table.find_fd(sock)
            if fd is None:
                continue
            meta.append(SocketMeta(vip_name, "udp", index))
            fds.append(fd)
    return meta, fds


def run_takeover_client(instance: "ProxygenInstance"):
    """Generator: the new instance's side of the handshake.

    Returns a :class:`TakeoverResult`; raises whatever the transport
    raises if there is no takeover server (first boot on a machine), and
    :class:`TakeoverFailed` when the old instance stalls past
    ``takeover_handshake_timeout`` or answers garbage.
    """
    host = instance.host
    timeout = instance.config.takeover_handshake_timeout
    # getattr: tests drive this generator with bare instance shims that
    # carry only host/process/config.
    tracer = getattr(instance, "tracer", None)
    span = None
    if tracer is not None:
        # Takeover handshakes are rare and load-bearing: always keep.
        span = tracer.start_trace("takeover", scope=instance.server.name,
                                  keep=True)
        span.annotate("takeover.generation", instance.generation)
    channel = yield host.unix_connect(instance.process,
                                      instance.config.takeover_path)
    channel.send({"type": "request_fds"})
    outcome = yield channel.recv(timeout)
    if outcome is TIMED_OUT:
        # A late FD bundle must not leak: closing the channel makes the
        # in-flight install path drop its references instead.
        channel.close()
        if span is not None:
            span.fail("fd_bundle_timeout")
        raise TakeoverFailed("timed out waiting for the FD bundle")
    payload, fds = outcome
    if payload.get("type") != "fds":
        if span is not None:
            span.fail("bad_reply")
        raise TakeoverFailed(f"unexpected takeover reply: {payload!r}")

    meta: list[SocketMeta] = payload["meta"]
    old_forward_port = payload.get("forward_port")
    tcp_fds: dict[str, int] = {}
    udp_fds: dict[str, list[int]] = {}
    for entry, fd in zip(meta, fds):
        if entry.protocol == "tcp":
            tcp_fds[entry.vip_name] = fd
        else:
            udp_fds.setdefault(entry.vip_name, []).append(fd)

    channel.send({"type": "confirm"})
    outcome = yield channel.recv(timeout)
    if outcome is TIMED_OUT:
        # We already hold the FDs and sent confirm — the takeover stands
        # even if the drain ack never arrives (the old instance may have
        # died right after draining started).  Record it, keep serving.
        channel.close()
        instance.counters.inc("takeover_drain_unconfirmed")
        drain_confirmed = False
    else:
        payload, _ = outcome
        drain_confirmed = payload.get("type") == "drain_started"
    if span is not None:
        span.annotate("takeover.tcp_fds", len(tcp_fds))
        span.annotate("takeover.udp_fds",
                      sum(len(v) for v in udp_fds.values()))
        span.annotate("takeover.drain_confirmed", drain_confirmed)
        span.finish("ok")
    return TakeoverResult(
        tcp_listener_fds=tcp_fds,
        udp_socket_fds=udp_fds,
        old_forward_port=old_forward_port,
        drain_confirmed=drain_confirmed,
    )
