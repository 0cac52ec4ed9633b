"""One running Proxygen process: serving loops, draining, PPR, DCR glue.

A :class:`ProxygenInstance` is one OS process of the L7LB.  The
:class:`~repro.proxygen.server.ProxygenServer` owns the sequence of
instances across restarts (generations) and implements the release
strategies on top of the primitives here:

* ``start_fresh`` — cold boot, bind everything (first boot / HardRestart)
* ``start_via_takeover`` — Socket Takeover from the serving instance
* ``begin_drain`` — stop taking new work; existing connections continue
* ``shutdown`` — the end of draining: the process exits (remaining
  connections get RST — what end users experience when a drain is not
  long enough)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..appserver.pool import UpstreamConnectionPool
from ..netsim.addresses import Endpoint, Protocol
from ..netsim.cpu import CpuCosts
from ..netsim.errors import (
    ConnectionRefusedSim,
    ConnectionResetSim,
    SocketClosedSim,
)
from ..netsim.packet import ControlType, StreamControl
from ..netsim.proc_utils import TIMED_OUT
from ..protocols.http import (
    BodyChunk,
    HttpRequest,
    HttpResponse,
    RETRY_AFTER_HEADER,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    STATUS_PARTIAL_POST_REPLAY,
    STATUS_SERVICE_UNAVAILABLE,
    is_valid_ppr_response,
    shed_response,
)
from ..protocols.http2 import FrameType, H2Connection, H2Error, H2Frame
from ..protocols.mqtt import MqttConnect, ReConnect
from ..protocols.quic import QuicStateTable
from ..protocols.tls import TlsClientHello, server_handle_hello
from .takeover import run_takeover_client, run_takeover_server_session
from .tunnels import EdgeMqttTunnel, OriginMqttTunnel
from .udp import QuicService
from .upstream import UpstreamPool, UpstreamUnavailable

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.timeline import TimeSeries
    from ..netsim.sockets import TcpEndpoint, TcpListenSocket, UdpSocket
    from .server import ProxygenServer

__all__ = ["ProxygenInstance", "UDP_SOCKETS_PER_VIP"]

#: SO_REUSEPORT ring size per UDP VIP (worker sockets).
UDP_SOCKETS_PER_VIP = 4
#: Total attempts an Origin makes per short request: the first try plus
#: failover picks (budgeted and backed off under the resilience plane).
SHORT_REQUEST_ATTEMPTS = 3


class _BodyRelay:
    """The Edge's streaming-POST relay, one step per chunk: take the
    client's chunk, burn its relay CPU, send it up the stream — until
    the last chunk or a dead client connection (the relay wakes the
    handler with ``None``), the client's FIN/RST (with it) or a failed send
    (throws its :class:`H2Error`)."""

    __slots__ = ("cpu", "conn", "stream", "relay")

    def __init__(self, cpu, conn: "TcpEndpoint", stream, relay):
        self.cpu = cpu
        self.conn = conn
        self.stream = stream
        self.relay = relay
        relay.read(conn.inbox, self._chunk)

    def _chunk(self, item) -> None:
        if isinstance(item, StreamControl):
            self.relay.wake(item)
            return
        chunk = item.payload
        if not isinstance(chunk, BodyChunk):
            self._next()
            return
        # A spliced bulk chunk stands for ``chunk.chunks`` wire frames
        # (repro.splice) — fold their relay cost exactly.
        self.relay.charge(self.cpu, CpuCosts.relay_message * chunk.chunks,
                          self._send, chunk)

    def _send(self, chunk: BodyChunk) -> None:
        try:
            self.stream.send(chunk, size=chunk.data_size,
                             end_stream=chunk.is_last)
        except H2Error as exc:
            self.relay.throw(exc)
            return
        if chunk.is_last:
            self.relay.wake()
        else:
            self._next()

    def _next(self) -> None:
        conn = self.conn
        if not (conn.closed or conn.reset):  # ``conn.alive``, inlined
            self.relay.read(conn.inbox, self._chunk)
        else:
            self.relay.wake()


class _PostForward:
    """The Origin's streaming-POST relay to one app server, one step per
    item on the Edge stream's inbox (which also holds the app socket's
    arrivals, ``H2Stream.take_arrivals``): a body chunk but the last
    goes on to the live app connection; a frame with no chunk is
    skipped.  The relay wakes the handler with the first item it leaves
    alone."""

    __slots__ = ("conn", "stream", "inbox", "relay", "forwarded")

    def __init__(self, conn: "TcpEndpoint", stream, relay):
        self.conn = conn
        self.stream = stream
        self.inbox = stream.inbox
        self.relay = relay
        #: Body bytes it sent on.
        self.forwarded = 0
        relay.read(self.inbox, self._item)

    def _item(self, item) -> None:
        if (isinstance(item, H2Frame) and item.type != FrameType.RST_STREAM
                and not self.stream.reset):
            chunk = item.payload
            if not isinstance(chunk, BodyChunk):
                self.relay.read(self.inbox, self._item)
                return
            conn = self.conn
            # ``conn.alive``, inlined: a live connection takes the send.
            if not (chunk.is_last or conn.closed or conn.reset):
                conn.send(chunk, size=chunk.data_size)
                self.forwarded += chunk.data_size
                self.relay.read(self.inbox, self._item)
                return
        self.relay.wake(item)


class ProxygenInstance:
    """One generation of a Proxygen on one host."""

    STATE_STARTING = "starting"
    STATE_ACTIVE = "active"
    STATE_DRAINING = "draining"
    STATE_EXITED = "exited"

    def __init__(self, server: "ProxygenServer", generation: int):
        self.server = server
        self.host = server.host
        self.config = server.config
        self.context = server.context
        self.generation = generation
        self.name = f"{server.name}/gen{generation}"
        self.process = self.host.spawn(self.name)
        self.process.base_memory = self.config.base_memory
        self.process.memory_per_connection = self.config.memory_per_connection
        #: Traffic counters are continuous across generations.
        self.counters = server.counters
        # Bound handles for the per-request hot path.
        self._c_rps = self.counters.bound("rps")
        self._c_tls = self.counters.bound("tls_handshakes")
        #: The ``rps/`` and ``throughput/`` series, looked up at first
        #: use (an instance that serves nothing adds no empty series to
        #: the snapshot) and kept.
        self._rps_series: Optional["TimeSeries"] = None
        self._throughput_series: Optional["TimeSeries"] = None
        #: The run's record and its TraceCollector, cached at boot
        #: (bound-handle rule: disabled tracing is one attribute read +
        #: None test per hop).
        self.run_record = self.host.run_record
        self.tracer = self.run_record.tracer
        self.state = self.STATE_STARTING
        self.exited_event = self.host.env.event()
        #: Sim time the drain began (None while not draining) — lets the
        #: drain-monotonicity invariant excuse same-instant accept races.
        self.drain_started_at: Optional[float] = None
        #: Why the drain began ("takeover" | "hard"), for trace
        #: annotations distinguishing takeover crossings from hard drains.
        self.drain_reason: Optional[str] = None

        self.tcp_listeners: dict[str, "TcpListenSocket"] = {}
        self.udp_sockets: dict[str, list["UdpSocket"]] = {}
        self.forward_sock: Optional["UdpSocket"] = None
        self.forward_port = (self.config.forward_port_base
                             + (generation % 500))
        #: Where to user-space-route unknown QUIC flows (the draining
        #: sibling's host-local address), or None.
        self.sibling_forward_port: Optional[int] = None

        self.quic_states = QuicStateTable(owner=self.name)
        self.mqtt_tunnels: dict[int, object] = {}
        self._serving_tasks: list = []
        self._takeover_listener = None

        #: The machine-scoped resilience plane (None = legacy behavior).
        self.resilience = server.resilience
        if self.config.mode == "edge":
            if (self.context.origin_vip is None
                    or self.context.origin_router is None):
                raise ValueError("edge mode needs origin_vip/origin_router")
            self.upstream = UpstreamPool(
                self, self.context.origin_vip, self.context.origin_router,
                resilience=self.resilience)
        else:
            self.upstream = None
        self.conn_pool = UpstreamConnectionPool(self.host, self.process,
                                                self.counters)
        self.edge_h2_conns: list[H2Connection] = []

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def serving(self) -> bool:
        """Accepting/reading new work."""
        return self.state == self.STATE_ACTIVE and self.process.alive

    @property
    def alive(self) -> bool:
        return self.process.alive

    def count_client_error(self, kind: str) -> None:
        """Errors sent toward end-users, tagged like Fig 12's categories."""
        self.counters.inc("client_error", tag=kind)
        self.host.metrics.series("edge/errors").record(self.host.env.now)

    def _hop_span(self, request: HttpRequest, name: str):
        """Child span for this hop (None when the request is untraced).

        Re-points ``request.trace`` at the new span so the next tier
        parents under us, and flags requests served by a post-takeover
        draining instance — the paper's "crossed a takeover" signal —
        for tail-based retention.
        """
        tracer = self.tracer
        if tracer is None or request.trace is None:
            return None
        span = tracer.span(request.trace, name, scope=self.server.name)
        span.annotate("instance", self.name)
        if self.state == self.STATE_DRAINING:
            if self.drain_reason == "takeover":
                span.annotate("takeover.crossed", self.name)
                tracer.keep(span)
            else:
                span.annotate("draining", self.drain_reason)
        request.trace = span
        return span

    # ------------------------------------------------------------------
    # startup paths
    # ------------------------------------------------------------------

    def start_fresh(self):
        """Generator: cold boot — bind all sockets ourselves."""
        yield from self._spawn_costs()
        self._bind_all_fresh()
        self._bind_forward_socket()
        self._start_takeover_server()
        self._start_serving_loops()
        self.state = self.STATE_ACTIVE

    def start_via_takeover(self):
        """Generator: §4.1 Socket Takeover from the serving instance."""
        yield from self._spawn_costs()
        result = yield from run_takeover_client(self)
        table = self.process.fd_table
        for vip_name, fd in result.tcp_listener_fds.items():
            self.tcp_listeners[vip_name] = table.resource(fd)
        for vip_name, fds in result.udp_socket_fds.items():
            self.udp_sockets[vip_name] = [table.resource(fd) for fd in fds]
        self.sibling_forward_port = result.old_forward_port
        self._bind_forward_socket()
        self._start_takeover_server()
        self._start_serving_loops()
        self.state = self.STATE_ACTIVE
        self.counters.inc("takeover_completed")
        return result

    def _spawn_costs(self):
        """Process spawn: config load wall time + CPU burn (Fig 17's
        initial spike — the machine is busier while two instances run)."""
        self.host.cpu.background(CpuCosts.process_spawn)
        yield self.host.env.timeout(self.config.spawn_delay)

    def _bind_all_fresh(self) -> None:
        kernel = self.host.kernel
        for vip in self.server.vips:
            if vip.protocol == Protocol.TCP:
                _, listener = kernel.tcp_listen(self.process, vip.endpoint)
                self.tcp_listeners[vip.name] = listener
        self._bind_udp_fresh()

    def _bind_udp_fresh(self) -> None:
        kernel = self.host.kernel
        for vip in self.server.vips:
            if vip.protocol == Protocol.UDP:
                sockets = []
                for _ in range(UDP_SOCKETS_PER_VIP):
                    _, sock = kernel.udp_bind(
                        self.process, vip.endpoint, reuseport=True)
                    sockets.append(sock)
                self.udp_sockets[vip.name] = sockets

    def _bind_forward_socket(self) -> None:
        _, self.forward_sock = self.host.kernel.udp_bind(
            self.process, Endpoint(self.host.ip, self.forward_port))

    def _start_takeover_server(self) -> None:
        self._takeover_listener = self.host.unix_listen(
            self.process, self.config.takeover_path)
        self.process.run(self._takeover_server_loop())

    def _takeover_server_loop(self):
        listener = self._takeover_listener
        while self.process.alive and not listener.closed:
            channel = yield listener.accept()
            yield from run_takeover_server_session(self, channel)

    def _start_serving_loops(self) -> None:
        run = self.process.run
        quic = QuicService(self)  # its loops hold it; no cycle with us
        for vip_name, listener in self.tcp_listeners.items():
            self._serving_tasks.append(
                run(self._accept_loop(vip_name, listener)))
        if not self.server.fault_ignore_udp_fds:
            for vip_name, sockets in self.udp_sockets.items():
                for sock in sockets:
                    self._serving_tasks.append(
                        run(quic.vip_socket_loop(sock)))
        run(quic.forward_socket_loop(self.forward_sock))
        run(quic.expire_loop())

    # ------------------------------------------------------------------
    # draining / shutdown
    # ------------------------------------------------------------------

    def begin_drain(self, reason: str) -> None:
        """Stop taking new work; keep serving existing connections.

        ``reason="takeover"``: a successor owns the shared sockets, so
        our accept/VIP-read loops must stop touching them entirely.
        ``reason="hard"``: no successor — refuse new connections (fail
        health checks) but keep reading our own sockets.
        """
        if self.state != self.STATE_ACTIVE:
            return
        self.state = self.STATE_DRAINING
        self.drain_started_at = self.host.env.now
        self.drain_reason = reason
        self.counters.inc("drain_started", tag=reason)
        self.run_record.announce(
            "drain_begin", scope=self.server.name,
            generation=self.generation, reason=reason)
        if self._takeover_listener is not None:
            self._takeover_listener.close()
        if reason == "takeover":
            active = self.host.env.active_process
            for task in self._serving_tasks:
                if task.is_alive and task is not active:
                    task.interrupt("drain")
            self._serving_tasks.clear()
        else:
            for listener in self.tcp_listeners.values():
                listener.pause_accepting()
        if self.config.mode == "origin":
            for conn in list(self.edge_h2_conns):
                if conn.alive:
                    try:
                        conn.send_goaway()
                    except H2Error:
                        pass
            if self.config.enable_dcr:
                for tunnel in list(self.mqtt_tunnels.values()):
                    tunnel.solicit_reconnect()
        elif self.config.enable_dcr:
            # Edge restart: solicit end-user clients to proactively
            # reconnect (§4.2 caveat; needs client-side support).
            for tunnel in list(self.mqtt_tunnels.values()):
                tunnel.solicit_client()
        self.process.run(self._drain_then_exit())

    def _drain_then_exit(self):
        yield self.host.env.timeout(self.config.drain_duration)
        self.shutdown("drain_complete")

    def shutdown(self, reason: str = "shutdown") -> None:
        """Terminate the process (remaining connections are RST)."""
        if self.state == self.STATE_EXITED:
            return
        self.state = self.STATE_EXITED
        if self._takeover_listener is not None:
            self._takeover_listener.close()
        self.process.exit(reason)
        if not self.exited_event.triggered:
            self.exited_event.succeed(reason)
        self.server.on_instance_exit(self)

    # ------------------------------------------------------------------
    # TCP accept + connection serving
    # ------------------------------------------------------------------

    def _accept_loop(self, vip_name: str, listener: "TcpListenSocket"):
        while self.serving and not listener.closed:
            conn = yield listener.accept(self.process)
            if self.run_record.listeners:
                self.run_record.announce("proxy_accept", instance=self,
                                         vip=vip_name)
            # Spawn the serve task *immediately*: once accept() returned,
            # this connection belongs to our process and must be served
            # through the drain even if the loop is interrupted right
            # after (Socket Takeover handoff).
            if self.config.mode == "edge":
                self.process.run(self._serve_edge_conn(conn))
            else:
                self.process.run(self._serve_origin_conn(conn))

    # -- edge ------------------------------------------------------------

    def _serve_edge_conn(self, conn: "TcpEndpoint"):
        yield from self.host.cpu.execute(CpuCosts.tcp_handshake)
        while conn.alive:
            item = yield conn.recv()
            if isinstance(item, StreamControl):
                break  # e.g. a Katran health probe closes right away
            payload = item.payload
            if isinstance(payload, TlsClientHello):
                yield from server_handle_hello(payload, conn, self.host.cpu)
                self._c_tls.inc()
            elif isinstance(payload, HttpRequest):
                yield from self._edge_http(conn, payload)
            elif isinstance(payload, MqttConnect):
                tunnel = EdgeMqttTunnel(self, conn, payload.user_id)
                ok = yield from tunnel.establish(payload)
                if ok:
                    yield from tunnel.client_loop()
                break
        # The peer, or the tunnel it rode, is gone: close our end too.
        conn.close()

    def _edge_http(self, conn: "TcpEndpoint", request: HttpRequest):
        plane = self.resilience
        if plane is not None and not plane.admission.try_acquire(
                draining=self.state == self.STATE_DRAINING):
            if self.tracer is not None and request.trace is not None:
                request.trace.annotate("shed.edge", self.name)
            if conn.alive:
                response = shed_response(request.id,
                                         plane.admission.retry_after)
                conn.send(response, size=200)
                self._count_response(response.status, 200)
            return
        try:
            self._c_rps.inc()
            self._record_rps(self.host.env.now)
            span = self._hop_span(request, "edge.http")
            yield from self.host.cpu.execute(CpuCosts.relay_message)

            if request.headers.get("cacheable") == "1":
                # Served from the edge cache (Direct Server Return, §2.2).
                yield from self.host.cpu.execute(CpuCosts.http_request * 0.5)
                if conn.alive:
                    response_size = 4000
                    conn.send(HttpResponse(STATUS_OK, request.id),
                              size=response_size)
                    self._count_response(STATUS_OK, response_size)
                if span is not None:
                    span.annotate("edge.cache_hit")
                    span.finish("ok")
                return

            try:
                stream = yield from self.upstream.open_stream()
            except UpstreamUnavailable:
                self._edge_http_error(conn, request, "stream_abort")
                return
            try:
                stream.send(request, size=400, frame_type=FrameType.HEADERS,
                            end_stream=not request.streaming)
            except H2Error:
                self._edge_http_error(conn, request, "stream_abort")
                return

            if request.streaming and conn.alive:
                # The body is relayed chunk by chunk by relay steps; this
                # wakes after the last chunk, once the client connection
                # is no longer alive, with the client's FIN/RST, or with
                # the send's H2Error raised here.
                relay = _BodyRelay(self.host.cpu, conn, stream,
                                   self.host.env.relay()).relay
                try:
                    gone = yield relay
                except H2Error:
                    self._edge_http_error(conn, request, "stream_abort")
                    return
                finally:
                    relay.close()
                if gone is not None:
                    stream.rst()
                    self.counters.inc("client_gone_mid_post")
                    if span is not None:
                        span.fail("client_gone")
                    return

            outcome = yield stream.recv(self.config.upstream_timeout)
            if outcome is TIMED_OUT:
                kind = "write_timeout" if request.streaming else "timeout"
                self._edge_http_error(conn, request, kind)
                return
            frame = outcome
            if frame.type == FrameType.RST_STREAM or stream.reset:
                self._edge_http_error(conn, request, "stream_abort")
                return
            response: HttpResponse = frame.payload
            if conn.alive:
                response_size = max(600, response.body_size)
                conn.send(response, size=response_size)
                self._count_response(response.status, response_size)
            if span is not None:
                span.finish("ok")
        finally:
            if plane is not None:
                plane.admission.release()

    def _edge_http_error(self, conn: "TcpEndpoint", request: HttpRequest,
                         kind: str) -> None:
        self.count_client_error(kind)
        if self.tracer is not None and request.trace is not None:
            request.trace.fail(kind)
        if conn.alive:
            conn.send(HttpResponse(STATUS_INTERNAL_ERROR, request.id,
                                   "Internal Server Error"), size=200)
            self._count_response(STATUS_INTERNAL_ERROR, 200)

    def _record_rps(self, now: float) -> None:
        series = self._rps_series
        if series is None:
            series = self._rps_series = self.host.metrics.series(
                f"rps/{self.server.name}")
        series.record(now)

    def _count_response(self, status: int, size: int) -> None:
        self.counters.inc("http_status", tag=str(status))
        series = self._throughput_series
        if series is None:
            series = self._throughput_series = self.host.metrics.series(
                f"throughput/{self.server.name}")
        series.record(self.host.env.now, size)

    # -- origin ------------------------------------------------------------

    def _serve_origin_conn(self, conn: "TcpEndpoint"):
        yield from self.host.cpu.execute(CpuCosts.tcp_handshake)
        h2 = H2Connection(conn, role="server")
        h2.start(self.process)
        self.edge_h2_conns.append(h2)
        if self.state == self.STATE_DRAINING:
            h2.send_goaway()
        try:
            while h2.alive:
                stream = yield h2.accept_stream()
                if stream is None:  # the transport died: close our end
                    conn.close()
                    return
                # ``_demux`` delivers a peer stream's opening frame before
                # it wakes us, so the frame is already in the inbox.  An
                # RST_STREAM (payload None) gets no handler.
                payload = stream.inbox.try_get().payload
                if isinstance(payload, HttpRequest):
                    self.process.run(self._serve_origin_stream(stream,
                                                               payload))
                elif isinstance(payload, (MqttConnect, ReConnect)):
                    tunnel = OriginMqttTunnel(self, stream, payload.user_id)
                    self.process.run(tunnel.run(payload))
        finally:
            if h2 in self.edge_h2_conns:
                self.edge_h2_conns.remove(h2)

    def _serve_origin_stream(self, stream, request: HttpRequest):
        self._c_rps.inc()
        self._record_rps(self.host.env.now)
        plane = self.resilience
        if plane is not None and not plane.admission.try_acquire(
                draining=self.state == self.STATE_DRAINING):
            if self.tracer is not None and request.trace is not None:
                request.trace.annotate("shed.origin", self.name)
            self._stream_reply(
                stream,
                shed_response(request.id, plane.admission.retry_after),
                size=200)
            return
        try:
            if request.streaming and request.method == "POST":
                yield from self._origin_post(stream, request)
            else:
                yield from self._origin_short(stream, request)
        finally:
            if plane is not None:
                plane.admission.release()

    def _pick_backend(self, exclude: tuple[str, ...], span=None):
        """Pool pick that also honors per-backend circuit breakers."""
        pool = self.context.app_pool
        plane = self.resilience
        while True:
            server = pool.pick(exclude)
            if server is None or plane is None:
                return server
            if plane.breakers.get(f"app:{server.host.ip}").allow():
                return server
            if span is not None:
                span.annotate("breaker.open", f"app:{server.host.ip}")
            exclude += (server.host.ip,)

    def _origin_short(self, stream, request: HttpRequest):
        """Forward a short request to a healthy app server, with retries.

        Without the resilience plane: up to 3 zero-delay failover picks
        (the legacy path).  With it: breaker-aware picks, budgeted
        retries with jittered backoff, passive-health recording, stale
        idle-connection redial and hedging for slow backends.
        """
        env = self.host.env
        plane = self.resilience
        pool = self.context.app_pool
        span = self._hop_span(request, "origin.short")
        yield from self.host.cpu.execute(CpuCosts.relay_message)
        if plane is not None:
            plane.note_request()
        exclude: tuple[str, ...] = ()
        last_shed = None
        for attempt in range(SHORT_REQUEST_ATTEMPTS):
            if attempt > 0 and plane is not None:
                if not plane.spend_retry():
                    if span is not None:
                        span.annotate("retry.budget_exhausted")
                    break
                yield from plane.backoff_wait(attempt)
            if attempt > 0 and span is not None:
                span.annotate("retry.attempt", attempt)
                # Retried requests are mechanism-rich: tail-keep them.
                self.tracer.keep(span)
            server = self._pick_backend(exclude, span=span)
            if server is None:
                break
            ip = server.host.ip
            start = env.now
            verdict, response, winner = yield from self._short_exchange(
                server, request, exclude)
            if verdict == "ok":
                win_ip = (winner or server).host.ip
                pool.record_success(win_ip, env.now - start)
                if plane is not None:
                    plane.breakers.get(f"app:{win_ip}").record_success()
                if span is not None:
                    if winner is not None and winner is not server:
                        span.annotate("hedge.won", win_ip)
                    span.finish("ok")
                self._stream_reply(stream, response,
                                   size=max(600, response.body_size))
                return
            if span is not None:
                span.annotate("retry.cause", f"{verdict}:{ip}")
            if verdict == "shed":
                # Backpressure, not breakage: the app server refused
                # with 503 + Retry-After.  Retry elsewhere without a
                # health or breaker demerit — blaming overload would
                # eject the very servers shrinking their intake.
                self.counters.inc("upstream_shed")
                last_shed = response
                exclude += ((winner or server).host.ip,)
                continue
            # Retry is safe for the short, idempotent API calls of this
            # path (server reset mid-request = hard restart).
            blame = (winner or server).host.ip
            pool.record_failure(blame)
            if plane is not None:
                plane.breakers.get(f"app:{blame}").record_failure()
            exclude += (blame,)
        if last_shed is not None:
            # Out of alternatives: relay the shed verbatim so the
            # client backs off on its Retry-After instead of seeing
            # a synthesized 500.
            if span is not None:
                span.finish("shed")
            self._stream_reply(stream, last_shed,
                               size=max(200, last_shed.body_size))
            return
        self._fail_stream(stream, request)

    def _short_exchange(self, server, request: HttpRequest,
                        exclude: tuple[str, ...]):
        """Generator: one logical attempt → ``(verdict, response, winner)``.

        ``verdict`` ∈ ok / refused / send_fail / timeout / reset /
        bad_status; ``winner`` is the server that actually answered
        (hedging may move it off the primary).  A pooled connection
        whose peer closed after check-in is discarded and redialled once
        instead of blaming the backend (``idle_discarded``).
        """
        plane = self.resilience
        ip, port = server.host.ip, server.endpoint.port
        try:
            conn = yield from self.conn_pool.checkout(ip, port)
        except ConnectionRefusedSim:
            return "refused", None, None
        redialed = False
        while True:
            try:
                conn.send(request, size=500)
                break
            except (SocketClosedSim, ConnectionResetSim):
                if self.conn_pool.was_reused(conn) and not redialed:
                    self.conn_pool.note_stale_reuse(conn)
                    redialed = True
                    try:
                        conn = yield from self.conn_pool.checkout_fresh(
                            ip, port)
                    except ConnectionRefusedSim:
                        return "refused", None, None
                    continue
                return "send_fail", None, None

        timeout = self.config.upstream_timeout
        hedge_wanted = (plane is not None and not request.streaming
                        and plane.config.hedge_delay < timeout)
        if hedge_wanted:
            outcome = yield conn.recv(plane.config.hedge_delay)
            remaining = timeout - plane.config.hedge_delay
            if outcome is TIMED_OUT:
                hedge = yield from self._launch_hedge(
                    request, exclude + (ip,))
                if hedge is not None:
                    return (yield from self._hedge_race(
                        conn, server, hedge[0], hedge[1], remaining))
                outcome = yield conn.recv(remaining)
        else:
            outcome = yield conn.recv(timeout)

        if outcome is TIMED_OUT:
            conn.abort(reason="upstream_timeout")
            return "timeout", None, None
        if isinstance(outcome, StreamControl):
            if self.conn_pool.was_reused(conn) and not redialed:
                # Peer closed after check-in; the RST outran the reply.
                self.conn_pool.note_stale_reuse(conn)
                try:
                    conn = yield from self.conn_pool.checkout_fresh(
                        ip, port)
                    conn.send(request, size=500)
                except (ConnectionRefusedSim, SocketClosedSim,
                        ConnectionResetSim):
                    return "send_fail", None, None
                outcome = yield conn.recv(timeout)
                if outcome is TIMED_OUT:
                    conn.abort(reason="upstream_timeout")
                    return "timeout", None, None
                if isinstance(outcome, StreamControl):
                    return "reset", None, None
            else:
                return "reset", None, None
        return self._finish_short(conn, server, outcome.payload)

    def _finish_short(self, conn, server, response: HttpResponse):
        """Classify a received response; pools the connection."""
        self.conn_pool.checkin(conn)
        if self.resilience is not None and response.status != STATUS_OK:
            if (response.status == STATUS_SERVICE_UNAVAILABLE
                    and RETRY_AFTER_HEADER in response.headers):
                # Admission-control backpressure, not a broken backend.
                return "shed", response, server
            # Rogue/5xx statuses are failures to route around, not
            # answers to forward (the legacy path forwards them as-is).
            return "bad_status", response, server
        return "ok", response, server

    def _launch_hedge(self, request: HttpRequest,
                      exclude: tuple[str, ...]):
        """Generator: send a hedged copy → ``(server, conn)`` or None."""
        plane = self.resilience
        if not plane.hedge_budget.try_spend():
            return None
        server = self._pick_backend(exclude)
        if server is None:
            return None
        try:
            conn = yield from self.conn_pool.checkout(
                server.host.ip, server.endpoint.port)
        except ConnectionRefusedSim:
            self.context.app_pool.record_failure(server.host.ip)
            return None
        try:
            conn.send(request.clone_for_replay(), size=500)
        except (SocketClosedSim, ConnectionResetSim):
            if conn.alive:
                conn.abort(reason="hedge_send_fail")
            return None
        self.counters.inc("hedge_sent")
        if self.tracer is not None and request.trace is not None:
            request.trace.annotate("hedge.sent", server.host.ip)
        return server, conn

    def _hedge_race(self, conn, server, hedge_server, hedge_conn,
                    remaining: float):
        """Generator: race primary vs hedge → ``(verdict, response,
        winner)``.  The first leg to answer wins; the loser is aborted
        (never pooled — a late response would poison the next checkout).
        """
        env = self.host.env
        pool = self.context.app_pool
        plane = self.resilience
        legs = {"primary": (server, conn),
                "hedge": (hedge_server, hedge_conn)}
        waits = {name: pair[1].recv() for name, pair in legs.items()}
        deadline = env.timeout(remaining, value=TIMED_OUT)
        while waits:
            result = yield env.any_of(list(waits.values()) + [deadline])
            fired = [name for name in ("primary", "hedge")
                     if name in waits and waits[name] in result]
            if not fired:  # only the deadline fired
                for name, event in waits.items():
                    event.cancel()
                    legs[name][1].abort(reason="upstream_timeout")
                if "hedge" in waits:
                    pool.record_failure(hedge_server.host.ip)
                return "timeout", None, None
            for name in fired:
                event = waits.get(name)
                if event is None:
                    continue
                item = result[event]
                leg_server, leg_conn = legs[name]
                del waits[name]
                if isinstance(item, StreamControl):
                    # This leg died; the other may still answer.  The
                    # hedge leg's health is ours to record (the caller
                    # only accounts for the primary).
                    if name == "hedge":
                        pool.record_failure(leg_server.host.ip)
                        if plane is not None:
                            plane.breakers.get(
                                f"app:{leg_server.host.ip}").record_failure()
                    continue
                for other, other_event in waits.items():
                    other_event.cancel()
                    legs[other][1].abort(reason="hedge_loser")
                waits.clear()
                if name == "hedge":
                    self.counters.inc("hedge_won")
                return self._finish_short(leg_conn, leg_server,
                                          item.payload)
        return "reset", None, None

    @staticmethod
    def _pending_upstream_response(conn) -> Optional[HttpResponse]:
        """Scan a (possibly reset) upstream conn's inbox for a response.

        A restarting app server sends its 379 and closes; if we were
        mid-chunk-send we observe the RST *before* reading the response.
        The echoed body is still sitting in the receive queue — a real
        proxy drains it; losing it would silently drop the body prefix
        from the replay.
        """
        for item in list(conn.inbox.items):
            if (not isinstance(item, StreamControl)
                    and isinstance(item.payload, HttpResponse)):
                conn.inbox.items.remove(item)
                return item.payload
        return None

    def _origin_post(self, stream, request: HttpRequest):
        """Forward a streaming POST with Partial Post Replay (§4.3).

        While the body streams, the relay forwards every chunk and
        watches the app server for a reply (a 379 mid-body) at the same
        time, by reading one inbox: ``stream.take_arrivals(conn)`` lands
        the app socket's arrivals on the Edge stream's inbox, so one
        ``yield stream.recv()`` returns whichever came first — an
        :class:`H2Frame` from the Edge, a ``StreamMessage`` /
        ``StreamControl`` from the app — and each arrival wakes the
        relay in place, with no race event around it.
        ``stream.return_arrivals(conn)`` undoes that once the last chunk
        is forwarded (the reply then comes under a deadline, from the
        socket's own inbox), before a late reply is looked for
        (``give_up_on_server``) and on every way out of an attempt; app
        items still queued on the stream go back to the socket's inbox,
        in order.
        """
        plane = self.resilience
        pool = self.context.app_pool
        span = self._hop_span(request, "origin.post")
        self.counters.inc("post_started")
        yield from self.host.cpu.execute(CpuCosts.relay_message)
        if plane is not None:
            plane.note_request()

        replay_bytes = 0      # burst to re-send to the next server
        forwarded = 0         # body bytes sent to the current server
        last_seen = False     # client finished its body
        pending: list[BodyChunk] = []
        exclude: tuple[str, ...] = ()
        backoff_pending = False

        def blame(ip: str) -> None:
            """A hard failure before/without any reply: bad backend."""
            pool.record_failure(ip)
            if plane is not None:
                plane.breakers.get(f"app:{ip}").record_failure()

        def absorb_ppr(response: HttpResponse) -> None:
            """Fold a valid 379 into the replay state."""
            nonlocal replay_bytes
            self.counters.inc("ppr_379_received")
            self.counters.inc("ppr_bytes_echoed_received",
                              response.partial_body_size)
            # Echoed partial body, topped up with the gap we forwarded
            # but the server had not processed (our forwarding state
            # knows its size, §5.2).
            replay_bytes = max(forwarded, response.partial_body_size)
            if span is not None:
                span.annotate("ppr.379_received", response.partial_body_size)
                self.tracer.keep(span)

        for attempt in range(self.config.ppr_max_retries + 1):
            if attempt > 0 and span is not None:
                # Whether a failed backend or a PPR replay drove it, a
                # second attempt is a retry: tail-keep the trace.
                span.annotate("retry.attempt", attempt)
                self.tracer.keep(span)
            if backoff_pending and plane is not None:
                # Only *failed* attempts back off; a PPR replay after a
                # valid 379 switches servers immediately (§4.3 keeps the
                # upload moving) and never pays the retry budget.
                yield from plane.backoff_wait(max(attempt, 1))
            backoff_pending = False
            server = self._pick_backend(exclude)
            if server is None:
                self._fail_post(stream, request, "no_backend")
                return
            try:
                conn = yield from self.conn_pool.checkout(
                    server.host.ip, server.endpoint.port)
            except ConnectionRefusedSim:
                blame(server.host.ip)
                exclude += (server.host.ip,)
                backoff_pending = True
                continue
            try:
                conn.send(request.clone_for_replay(), size=400)
                if replay_bytes:
                    # The §4.3 bandwidth cost: the whole partial body
                    # crosses the DC fabric again.
                    conn.send(BodyChunk(request.id, replay_bytes,
                                        sequence=-1,
                                        is_last=(last_seen and not pending)),
                              size=replay_bytes)
                    self.counters.inc("ppr_bytes_replayed", replay_bytes)
                    if span is not None:
                        span.annotate("ppr.replayed_bytes", replay_bytes)
                        span.annotate("ppr.replay_target", server.host.ip)
                forwarded = replay_bytes
                for chunk in pending:
                    conn.send(chunk, size=chunk.data_size)
                    forwarded += chunk.data_size
                pending = []
            except (SocketClosedSim, ConnectionResetSim):
                blame(server.host.ip)
                exclude += (server.host.ip,)
                backoff_pending = True
                continue

            def give_up_on_server(conn=conn) -> str:
                """The server stopped taking our bytes: look for a late
                response (likely the 379) before switching away."""
                stream.return_arrivals(conn)
                late = self._pending_upstream_response(conn)
                if late is not None and is_valid_ppr_response(late):
                    # A clean drain handoff — not a health demerit.
                    absorb_ppr(late)
                    return "switch"
                blame(server.host.ip)
                if late is not None and late.status != STATUS_OK:
                    return "fail"  # an explicit 500: do not retry blindly
                return "switch"

            switch_server = False
            if not last_seen:
                stream.take_arrivals(conn)
            try:
                while not switch_server:
                    if last_seen:
                        item = yield conn.recv(self.config.upstream_timeout)
                        if item is TIMED_OUT:
                            conn.abort(reason="upstream_timeout")
                            blame(server.host.ip)
                            self._fail_post(stream, request, "write_timeout")
                            return
                    else:
                        # Relay steps forward the body; this wakes with
                        # the first item they leave alone (the last
                        # chunk, a reset, a chunk for a dead connection,
                        # an app reply), where the loop goes on.
                        forward = _PostForward(conn, stream,
                                               self.host.env.relay())
                        item = yield forward.relay
                        forwarded += forward.forwarded

                    if isinstance(item, H2Frame):  # from the Edge
                        if item.type == FrameType.RST_STREAM or stream.reset:
                            conn.abort(reason="edge_gone")
                            self.counters.inc("post_edge_gone")
                            if span is not None:
                                span.fail("edge_gone")
                            return
                        chunk = item.payload
                        if not isinstance(chunk, BodyChunk):
                            continue
                        if chunk.is_last:
                            last_seen = True
                            stream.return_arrivals(conn)
                        sent = False
                        if conn.alive:
                            try:
                                conn.send(chunk, size=chunk.data_size)
                                forwarded += chunk.data_size
                                sent = True
                            except (SocketClosedSim, ConnectionResetSim):
                                pass
                        if not sent:
                            pending.append(chunk)
                            exclude += (server.host.ip,)
                            if give_up_on_server() == "fail":
                                self._fail_post(stream, request,
                                                "upstream_error")
                                return
                            switch_server = True
                        continue

                    # From the app server: every reply ends this attempt.
                    if isinstance(item, StreamControl):
                        exclude += (server.host.ip,)
                        if give_up_on_server() == "fail":
                            self._fail_post(stream, request, "upstream_error")
                            return
                        if (item.kind == ControlType.RST
                                and replay_bytes < forwarded):
                            # Hard death without a (readable) 379: no
                            # echoed body, nothing safe to replay.
                            self._fail_post(stream, request, "server_reset")
                            return
                        switch_server = True
                        continue
                    response: HttpResponse = item.payload
                    if response.status == STATUS_OK:
                        pool.record_success(server.host.ip)
                        if plane is not None:
                            plane.breakers.get(
                                f"app:{server.host.ip}").record_success()
                        self.conn_pool.checkin(conn)
                        if span is not None:
                            span.finish("ok")
                        self._stream_reply(stream, response, size=600)
                        self.counters.inc("post_completed")
                        return
                    if is_valid_ppr_response(response):
                        absorb_ppr(response)
                        exclude += (server.host.ip,)
                        switch_server = True
                        continue
                    if response.status == STATUS_PARTIAL_POST_REPLAY:
                        # A 379 without the PartialPOST message: do NOT
                        # trust it (§5.2).
                        self.counters.inc("ppr_379_invalid")
                        blame(server.host.ip)
                        self._fail_post(stream, request, "invalid_379")
                        return
                    # 500 and friends: propagate (a completed POST is not
                    # safe to replay) but demerit the backend so future
                    # picks route around it.
                    blame(server.host.ip)
                    if span is not None:
                        span.fail(f"status_{response.status}")
                    self._stream_reply(stream, response, size=200)
                    self.counters.inc("post_failed_upstream")
                    self.counters.inc("post_disrupted")
                    return
            finally:
                stream.return_arrivals(conn)
            # switch_server: fall through to the next pick
        self._fail_post(stream, request, "retries_exhausted")

    def _stream_reply(self, stream, response: HttpResponse,
                      size: int) -> None:
        if stream.reset:
            return
        try:
            stream.send(response, size=size, end_stream=True)
        except H2Error:
            pass
        self.counters.inc("http_status", tag=str(response.status))

    def _fail_stream(self, stream, request: HttpRequest) -> None:
        self.counters.inc("client_error", tag="stream_abort")
        if self.tracer is not None and request.trace is not None:
            request.trace.fail("upstream_failed")
        self._stream_reply(
            stream,
            HttpResponse(STATUS_INTERNAL_ERROR, request.id,
                         "Internal Server Error"), size=200)

    def _fail_post(self, stream, request: HttpRequest, why: str) -> None:
        self.counters.inc("post_disrupted")
        self.counters.inc("post_fail_reason", tag=why)
        if self.tracer is not None and request.trace is not None:
            request.trace.fail(why)
        self._fail_stream(stream, request)
