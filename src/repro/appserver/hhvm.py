"""The HHVM-like application server with Partial Post Replay (§4.3).

Behavioural contract with the paper:

* Short API requests dominate; they finish well inside the 10–15 s
  drain.
* Long POST uploads outlive the drain.  On restart the server either
  fails them with **500** (no PPR) or answers **379 PartialPOST**,
  echoing the partially received body back to the downstream proxy so it
  can replay the request to a healthy server.
* No parallel instance on restart: after the old process exits there is
  a downtime window while the new one spawns and primes its cache
  (CPU + memory burst).
"""

from __future__ import annotations

from typing import Optional

from ..netsim.addresses import Endpoint
from ..netsim.cpu import CpuCosts
from ..netsim.host import Host
from ..netsim.packet import StreamControl
from ..netsim.process import SimProcess
from ..netsim.sockets import TcpEndpoint, TcpListenSocket
from ..protocols.http import (
    BodyChunk,
    HttpRequest,
    HttpResponse,
    PARTIAL_POST_STATUS_MESSAGE,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    STATUS_PARTIAL_POST_REPLAY,
    shed_response,
)
from ..resilience.admission import AdmissionController
from .config import AppServerConfig

__all__ = ["AppServer", "InFlightPost"]

#: Mean service time of a short API request (seconds).
SERVICE_TIME_MEAN = 0.030
#: Extra model memory while the new process primes its cache (§2.5:
#: priming is memory-heavy, which is why no parallel instance runs).
PRIMING_MEMORY = 250.0


class InFlightPost:
    """State of one streaming POST the server is still receiving."""

    def __init__(self, request: HttpRequest, conn: TcpEndpoint):
        self.request = request
        self.conn = conn
        self.received_bytes = 0
        self.received_chunks = 0
        self.complete = False
        #: Trace span covering the receive (set when tracing is enabled).
        self.span = None


class _BodyRead:
    """A streaming POST's body read, one relay step per chunk: take the
    chunk, count it, burn its CPU, take the next — until the last chunk
    (the relay wakes the handler with ``None``) or a FIN/RST (with it)."""

    __slots__ = ("cpu", "inbox", "post", "relay")

    def __init__(self, cpu, conn: TcpEndpoint, post: InFlightPost, relay):
        self.cpu = cpu
        self.inbox = conn.inbox
        self.post = post
        self.relay = relay
        relay.read(self.inbox, self._chunk)

    def _chunk(self, item) -> None:
        relay = self.relay
        if isinstance(item, StreamControl):
            relay.wake(item)
            return
        chunk = item.payload
        if not isinstance(chunk, BodyChunk):
            relay.read(self.inbox, self._chunk)
            return
        post = self.post
        post.received_bytes += chunk.data_size
        # A spliced bulk chunk stands for chunk.chunks wire frames
        # (repro.splice); counting them keeps the 379 partial_chunks
        # echo exact whether or not the train was coalesced.
        post.received_chunks += chunk.chunks
        relay.charge(self.cpu, CpuCosts.post_byte * chunk.data_size,
                     self._read, chunk)

    def _read(self, chunk: BodyChunk) -> None:
        if chunk.is_last:
            self.relay.wake()
        else:
            self.relay.read(self.inbox, self._chunk)


class AppServer:
    """One app-server machine across restarts."""

    STATE_ACTIVE = "active"
    STATE_DRAINING = "draining"
    STATE_DOWN = "down"

    def __init__(self, host: Host, config: Optional[AppServerConfig] = None):
        self.host = host
        self.config = config or AppServerConfig()
        self.config.validate()
        self.name = f"appserver@{host.name}"
        self.endpoint = Endpoint(host.ip, self.config.port)
        self.counters = host.metrics.scoped_counters(self.name)
        # Bound handles for the per-request hot path.
        self._c_status_200 = self.counters.bound("http_status", tag="200")
        self._c_status_379 = self.counters.bound("http_status", tag="379")
        self._c_served = self.counters.bound("requests_served")
        self._c_posts_completed = self.counters.bound("posts_completed")
        self._c_ppr_bytes = self.counters.bound("ppr_bytes_echoed")
        self.state = self.STATE_DOWN
        self.generation = 0
        self.process: Optional[SimProcess] = None
        self.listener: Optional[TcpListenSocket] = None
        self.in_flight_posts: dict[int, InFlightPost] = {}
        #: Body-complete POSTs whose response is still queued on the CPU.
        self._unanswered_posts: dict[int, InFlightPost] = {}
        self._rng = host.streams.stream("appserver")
        #: Fault-injection switches (repro.faults).  ``fault_rogue_fraction``
        #: reproduces the §5.2 incident: a buggy upstream (memory
        #: corruption) returns *randomized* HTTP status codes — bare 379s
        #: included — for this fraction of responses (None = off);
        #: ``fault_truncate_fraction`` makes this server cut responses off
        #: mid-body (the downstream proxy sees a reset, never a reply).
        self.fault_rogue_fraction: Optional[float] = None
        self.fault_truncate_fraction: float = 0.0
        #: The run's record and its TraceCollector (repro.run), cached
        #: as ProxygenInstance caches them.
        self.run_record = host.run_record
        self.tracer = self.run_record.tracer
        #: Sim time the current drain began (None while serving).
        self.drain_started_at: Optional[float] = None
        #: Drain-aware concurrency gate (None = shedding disabled).
        self.admission: Optional[AdmissionController] = None
        if self.config.resilience.enabled:
            self.admission = AdmissionController(
                self.config.resilience, self.counters, name=self.name)

    # -- lifecycle --------------------------------------------------------

    @property
    def accepting(self) -> bool:
        return self.state == self.STATE_ACTIVE

    def start(self) -> None:
        """Boot the first generation (synchronous bind)."""
        self._boot_process()

    def _boot_process(self) -> None:
        self.generation += 1
        self.process = self.host.spawn(f"hhvm-gen{self.generation}")
        self.process.base_memory = self.config.base_memory
        self.process.memory_per_connection = self.config.memory_per_connection
        _, self.listener = self.host.kernel.tcp_listen(
            self.process, self.endpoint)
        self.state = self.STATE_ACTIVE
        self.drain_started_at = None
        if self.admission is not None:
            # Work in flight in the previous generation died with it.
            self.admission.reset_inflight()
        self.process.run(self._accept_loop(self.process, self.listener))

    def restart(self):
        """Generator: one rolling-release restart of this server.

        drain → (379 | 500) the incomplete POSTs → exit → downtime with
        cache priming → new generation binds and serves.
        """
        if self.state != self.STATE_ACTIVE:
            return
        env = self.host.env
        self.state = self.STATE_DRAINING
        self.drain_started_at = env.now
        self.listener.pause_accepting()
        self.counters.inc("restart_started")
        yield env.timeout(self.config.drain_duration)
        self._end_drain("release")
        # New process: spawn + cache priming burn (no parallel instance —
        # the machine simply is not serving during this window).
        priming = self.host.spawn(f"hhvm-gen{self.generation + 1}")
        priming.base_memory = self.config.base_memory + PRIMING_MEMORY
        self.host.cpu.background(CpuCosts.cache_priming)
        yield env.timeout(self.config.restart_downtime)
        priming.exit("priming helper done")
        self._boot_process()
        self.counters.inc("restart_finished")

    def decommission(self):
        """Generator: drain and leave the fleet permanently (scale-in).

        Same drain discipline as :meth:`restart` — in-flight POSTs get
        their 379/500 — but no new generation boots afterwards: the
        machine is simply retired.  The caller (repro.ops.autoscale)
        removes it from the pool *before* draining, so no new work
        arrives while connections finish.
        """
        if self.state != self.STATE_ACTIVE:
            return
        env = self.host.env
        self.state = self.STATE_DRAINING
        self.drain_started_at = env.now
        self.listener.pause_accepting()
        self.counters.inc("decommission_started")
        yield env.timeout(self.config.drain_duration)
        self._end_drain("decommission")
        self.counters.inc("decommissioned")

    def _end_drain(self, exit_reason: str) -> None:
        """Answer every POST still open, then the old process exits.

        Incomplete bodies get their 379 (or 500 without PPR).  A POST
        whose last chunk already landed has had its side effect, so it
        gets the response it was about to send — a 379 would make the
        proxy apply it a second time, and exiting without a word resets
        a request that succeeded.
        """
        for post in self.in_flight_posts.values():
            if post.conn.alive:
                if self.config.enable_ppr:
                    self._reply_partial_post(post)
                else:
                    self._reply_error(post)
        self.in_flight_posts.clear()
        for post in self._unanswered_posts.values():
            if post.conn.alive:
                self._answer_post(post)
                post.conn.close()
        self._unanswered_posts.clear()
        self.state = self.STATE_DOWN
        self.process.exit(exit_reason)

    def crash(self) -> None:
        """Fault path: the machine dies *now* — no drain, no 379s.

        Every in-flight request is RST mid-stream (what §5 incidents look
        like to the proxy tier); the server stays down until
        :meth:`reboot`.
        """
        if self.process is not None and self.process.alive:
            self.process.exit("fault:crash")
        self.in_flight_posts.clear()
        self._unanswered_posts.clear()
        self.state = self.STATE_DOWN
        self.counters.inc("crashes")

    def reboot(self) -> None:
        """Bring a crashed server back (cold boot, fresh generation)."""
        if self.state != self.STATE_DOWN:
            return
        self._boot_process()
        self.counters.inc("reboots")

    def _reply_partial_post(self, post: InFlightPost) -> None:
        """The 379 path: echo the partial body's size downstream."""
        response = HttpResponse(
            status=STATUS_PARTIAL_POST_REPLAY,
            request_id=post.request.id,
            status_message=PARTIAL_POST_STATUS_MESSAGE,
            partial_body_size=post.received_bytes,
            partial_chunks=post.received_chunks,
        )
        # Echoing the body costs real bandwidth (the §4.3 caveat) —
        # size the response accordingly.
        post.conn.send(response, size=max(200, post.received_bytes))
        post.conn.close()
        self._c_status_379.inc()
        self._c_ppr_bytes.inc(post.received_bytes)
        if post.span is not None:
            post.span.annotate("ppr.echo_bytes", post.received_bytes)
            post.span.collector.keep(post.span)
            post.span.finish("ppr_379")

    def _reply_error(self, post: InFlightPost) -> None:
        response = HttpResponse(
            status=STATUS_INTERNAL_ERROR, request_id=post.request.id,
            status_message="Internal Server Error")
        post.conn.send(response, size=200)
        post.conn.close()
        self.counters.inc("http_status", tag="500")
        if post.span is not None:
            post.span.fail("500_no_ppr")

    # -- serving ------------------------------------------------------------

    def _accept_loop(self, process: SimProcess, listener: TcpListenSocket):
        while process.alive and not listener.closed:
            conn = yield listener.accept(process)
            if self.run_record.listeners:
                self.run_record.announce("app_accept", server=self)
            yield from self.host.cpu.execute(CpuCosts.tcp_handshake)
            process.run(self._serve_conn(process, conn))

    def _serve_conn(self, process: SimProcess, conn: TcpEndpoint):
        while process.alive and conn.alive:
            item = yield conn.recv()
            if isinstance(item, StreamControl):
                break
            payload = item.payload
            if isinstance(payload, HttpRequest):
                if payload.streaming and payload.method == "POST":
                    yield from self._serve_streaming_post(conn, payload)
                else:
                    yield from self._serve_short_request(conn, payload)
            # else: ignore unknown payloads

    def _shed(self, conn: TcpEndpoint, request: HttpRequest) -> bool:
        """Shed ``request`` (503 + Retry-After) if over the intake limit."""
        if self.admission is None:
            return False
        if self.admission.try_acquire(
                draining=self.state == self.STATE_DRAINING):
            return False
        if conn.alive:
            conn.send(shed_response(request.id, self.admission.retry_after),
                      size=200)
        self.counters.inc("http_status", tag="503")
        return True

    def _request_span(self, request: HttpRequest, name: str):
        """Child span under the proxy's hop span.

        ``request.trace`` is *not* re-pointed: the same request object is
        re-sent on a PPR replay, and the origin proxy still owns its
        reference.
        """
        tracer = self.tracer
        if tracer is None or request.trace is None:
            return None
        span = tracer.span(request.trace, name, scope=self.name)
        span.annotate("generation", self.generation)
        if self.state == self.STATE_DRAINING:
            span.annotate("draining", self.name)
        return span

    def _serve_short_request(self, conn: TcpEndpoint, request: HttpRequest):
        if self._shed(conn, request):
            return
        try:
            span = self._request_span(request, "app.request")
            yield from self.host.cpu.execute(CpuCosts.http_request)
            yield self.host.env.timeout(
                self._rng.expovariate(1.0 / SERVICE_TIME_MEAN))
            if not conn.alive:
                if span is not None:
                    span.fail("conn_gone")
                return
            if (self.fault_truncate_fraction > 0
                    and self._rng.random() < self.fault_truncate_fraction):
                # Fault mode ("upstream_truncate"): the response is cut off
                # mid-body — downstream observes a reset, never a complete
                # reply, and must fail over to another server.
                self.counters.inc("responses_truncated")
                conn.abort(reason="truncated_body")
                if span is not None:
                    span.fail("truncated")
                return
            rogue = self.fault_rogue_fraction or 0.0
            if rogue > 0 and self._rng.random() < rogue:
                # §5.2 incident mode: memory corruption produced random
                # status codes — sometimes exactly 379, but never with the
                # PartialPOST status message.
                status = self._rng.choice(
                    [STATUS_PARTIAL_POST_REPLAY, 287, 512, 379, 444])
                conn.send(HttpResponse(status, request_id=request.id,
                                       status_message="garbage"), size=600)
                self.counters.inc("http_status", tag="rogue")
                if span is not None:
                    span.fail("rogue_status")
                return
            conn.send(HttpResponse(STATUS_OK, request_id=request.id),
                      size=600)
            self._c_status_200.inc()
            self._c_served.inc()
            if span is not None:
                span.finish("ok")
        finally:
            if self.admission is not None:
                self.admission.release()

    def _serve_streaming_post(self, conn: TcpEndpoint, request: HttpRequest):
        """Receive body chunks until done (or until a restart interrupts)."""
        if self._shed(conn, request):
            return
        try:
            post = InFlightPost(request, conn)
            post.span = self._request_span(request, "app.post")
            self.in_flight_posts[request.id] = post
            # The body is read chunk by chunk by relay steps; this wakes
            # at the last chunk, or with the FIN/RST of a proxy gone.
            relay = _BodyRead(self.host.cpu, conn, post,
                              self.host.env.relay()).relay
            try:
                gone = yield relay
            finally:
                relay.close()
            if gone is not None:
                # Proxy/connection went away mid-upload.
                self.in_flight_posts.pop(request.id, None)
                if post.span is not None:
                    post.span.fail("conn_gone")
                return
            post.complete = True
            self.in_flight_posts.pop(request.id, None)
            if post.received_bytes >= request.body_size:
                # The full body landed — its side effect runs exactly here,
                # whatever the response path does next.
                if self.run_record.listeners:
                    self.run_record.announce("post_applied", server=self,
                                             request_id=request.id)
            self._unanswered_posts[request.id] = post
            yield from self.host.cpu.execute(CpuCosts.http_request)
            del self._unanswered_posts[request.id]
            if conn.alive:
                self._answer_post(post)
            elif post.span is not None:
                post.span.fail("conn_gone")
        finally:
            if self.admission is not None:
                self.admission.release()

    def _answer_post(self, post: InFlightPost) -> None:
        """Respond to a POST whose last chunk has landed."""
        request, conn = post.request, post.conn
        if post.received_bytes < request.body_size:
            # A replay that lost part of the body (a proxy-side PPR bug)
            # must not be silently accepted.
            conn.send(HttpResponse(400, request_id=request.id,
                                   status_message="Incomplete Body"),
                      size=200)
            self.counters.inc("http_status", tag="400")
            self.counters.inc("posts_incomplete")
            if post.span is not None:
                post.span.fail("incomplete_body")
            return
        rogue = self.fault_rogue_fraction or 0.0
        if rogue > 0 and self._rng.random() < rogue:
            # §5.2 incident: a bare 379 (no PartialPOST message) on the
            # POST path — the case that forced the strict check.
            conn.send(HttpResponse(STATUS_PARTIAL_POST_REPLAY,
                                   request_id=request.id,
                                   status_message="garbage"), size=600)
            self.counters.inc("http_status", tag="rogue")
            if post.span is not None:
                post.span.fail("rogue_status")
            return
        conn.send(HttpResponse(STATUS_OK, request_id=request.id),
                  size=600)
        self._c_status_200.inc()
        self._c_posts_completed.inc()
        if post.span is not None:
            post.span.finish("ok")
