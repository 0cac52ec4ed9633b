"""Web client population: short API requests and long POST uploads.

Matches the workload sketch of §2: HHVM workloads are "dominated by
short-lived API requests" but also serve long-lived HTTP POST uploads —
the requests PPR exists for.  Clients keep persistent connections,
retry over the (slow) WAN when a request fails, and reconnect when a
restarting proxy resets them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint
from ..netsim.errors import ConnectionResetSim, SocketClosedSim
from ..netsim.host import Host
from ..netsim.packet import ControlType, StreamControl
from ..netsim.proc_utils import TIMED_OUT
from ..netsim.process import SimProcess
from ..protocols.http import (
    BodyChunk,
    HttpRequest,
    HttpResponse,
    RETRY_AFTER_HEADER,
    STATUS_OK,
    STATUS_SERVICE_UNAVAILABLE,
)
from ..protocols.tls import TlsClientHello, TlsServerDone
from ..simkernel.rng import DistributionSampler
from ..splice import MIN_BULK_BYTES
from .base import ClientBase, Router

__all__ = ["WebWorkloadConfig", "WebClientPopulation"]

#: Shape of the bounded-Pareto POST size distribution.
POST_SIZE_ALPHA = 1.3
#: Seconds (plus up to one more, uniform) before re-dialling after a
#: failed connect.
RECONNECT_BACKOFF = 1.0

#: Stop each client after this many requests (None = run forever).
#: Finite-work runs are what the splice differential suite compares:
#: with every request completed well before the horizon, counters are
#: independent of the (intentionally coarser) spliced timing.
MAX_REQUESTS: int | None = None


@dataclass
class WebWorkloadConfig:
    """Shape of the web workload."""

    clients_per_host: int = 25
    #: Mean seconds between requests for one client.
    think_time: float = 2.0
    cacheable_fraction: float = 0.5
    #: Fraction of requests that are streaming POST uploads.
    post_fraction: float = 0.05
    #: Bounded-Pareto POST sizes (bytes).
    post_size_min: int = 50_000
    post_size_cap: int = 20_000_000
    #: Client upload bandwidth (bytes/s) — sets upload duration.
    upload_bandwidth: float = 250_000.0
    post_chunk_size: int = 64_000
    request_timeout: float = 20.0


class _Upload:
    """A POST body paced by the client's WAN bandwidth, one relay step
    per chunk: wait out the chunk's upload time, then send it — unless
    a response came mid-upload (an error from a restarting app server
    without PPR): the relay wakes the handler with it; after the last
    chunk with ``None``, and a failed send throws its error."""

    __slots__ = ("conn", "request", "size", "sent", "seq", "chunk_size",
                 "bandwidth", "relay")

    def __init__(self, conn, request: HttpRequest, size: int, sent: int,
                 seq: int, config: WebWorkloadConfig, relay):
        self.conn = conn
        self.request = request
        self.size = size
        self.sent = sent
        self.seq = seq
        self.chunk_size = config.post_chunk_size
        self.bandwidth = config.upload_bandwidth
        self.relay = relay
        self._pace()

    def _pace(self) -> None:
        chunk_size = min(self.chunk_size, self.size - self.sent)
        self.sent += chunk_size
        self.seq += 1
        self.relay.later(chunk_size / self.bandwidth, self._send, chunk_size)

    def _send(self, chunk_size: int) -> None:
        conn = self.conn
        early = conn.inbox.try_get()
        if early is not None:
            self.relay.wake(early)
            return
        try:
            conn.send(BodyChunk(self.request.id, chunk_size, self.seq,
                                is_last=(self.sent >= self.size)),
                      size=chunk_size)
        except (SocketClosedSim, ConnectionResetSim) as exc:
            self.relay.throw(exc)
            return
        if self.sent < self.size:
            self._pace()
        else:
            self.relay.wake()


class WebClientPopulation:
    """Many web users spread over a few client hosts."""

    #: Protocol kind, for per-population load shaping (repro.ops.load)
    #: and the cohort layer (repro.cohorts).
    kind = "web"

    def __init__(self, hosts: list[Host], vip: Endpoint, router: Router,
                 metrics: MetricsRegistry,
                 config: WebWorkloadConfig,
                 name: str = "web-clients", first_id: int = 1):
        self.hosts = hosts
        self.vip = vip
        self.router = router
        self.metrics = metrics
        self.config = config
        self.name = name
        self.counters = metrics.scoped_counters(name)
        self._client_serial = first_id - 1
        self._bases: dict[int, ClientBase] = {}
        #: Requests currently between "started" and their terminal
        #: counter, per kind — the request-conservation invariant's
        #: balancing term.
        self.inflight: dict[str, int] = {"get": 0, "post": 0}
        #: Arrival-rate multiplier (repro.ops.load): think time is
        #: divided by this, so the per-request hot path pays a single
        #: attribute read whether or not a load shape is active.
        self.rate_scale = 1.0

    def set_rate_scale(self, scale: float) -> None:
        self.rate_scale = max(0.01, scale)

    def start(self) -> None:
        """Spawn every client's driver process."""
        for index in range(len(self.hosts)):
            self.spawn_clients(self.config.clients_per_host,
                               host_index=index)

    def spawn_clients(self, count: int, host_index: int = 0) -> None:
        """Spawn ``count`` more clients on one host — callable mid-run
        (the cohort layer condenses solo flows out of a fluid this way)."""
        host = self.hosts[host_index]
        base = self._bases.get(host_index)
        if base is None:
            base = self._bases[host_index] = ClientBase(
                host, self.name, self.vip, self.router, self.metrics)
        for _ in range(count):
            self._client_serial += 1
            process = host.spawn(f"web-client-{self._client_serial}")
            sampler = DistributionSampler(
                host.streams.stream(f"web-{self._client_serial}"))
            process.run(self._client_loop(base, process, sampler))

    # -- the per-client driver ------------------------------------------------

    def _client_loop(self, base: ClientBase, process: SimProcess,
                     sampler: DistributionSampler):
        env = base.host.env
        config = self.config
        conn = None
        requests_done = 0
        while process.alive:
            if MAX_REQUESTS is not None and requests_done >= MAX_REQUESTS:
                # Finite-work mode: this client is done for good.
                if conn is not None and conn.alive:
                    conn.close()
                return
            if conn is None or not conn.alive:
                conn = yield from self._establish(base, process)
                if conn is None:
                    yield env.timeout(RECONNECT_BACKOFF
                                      + sampler.uniform(0, 1))
                    continue
            yield env.timeout(sampler.exponential(config.think_time)
                              / self.rate_scale)
            if not conn.alive:
                continue
            kind = "post" if sampler.bernoulli(config.post_fraction) else "get"
            requests_done += 1
            self.inflight[kind] += 1
            try:
                if kind == "post":
                    done = yield from self._do_post(base, conn, sampler)
                else:
                    done = yield from self._do_get(base, conn, sampler)
            finally:
                self.inflight[kind] -= 1
            if isinstance(done, float):
                # Shed (503 + Retry-After): not a failure — honor the
                # server's backoff hint, jittered so shed clients do not
                # come back in lockstep.
                yield env.timeout(done * (1.0 + sampler.uniform(0.0, 0.5)))
                continue
            if not done:
                # Request-level failure: drop the connection and let the
                # next loop iteration reconnect (possibly elsewhere).
                if conn.alive:
                    conn.close()
                conn = None

    def _establish(self, base: ClientBase, process: SimProcess):
        conn = yield from base.connect_routed(process)
        if conn is None:
            return None
        conn.send(TlsClientHello(), size=320)
        outcome = yield conn.recv(5.0)
        if outcome is TIMED_OUT or isinstance(outcome, StreamControl) \
                or not isinstance(outcome.payload, TlsServerDone):
            self.counters.inc("tls_failed")
            if conn.alive:
                conn.abort(reason="tls_failed")
            return None
        self.counters.inc("tls_established")
        return conn

    def _do_get(self, base: ClientBase, conn, sampler: DistributionSampler):
        config = self.config
        cacheable = sampler.bernoulli(config.cacheable_fraction)
        request = HttpRequest(
            "GET", "/api/feed",
            headers={"cacheable": "1"} if cacheable else {},
            id=next(base.host.run_record.request_ids))
        span = self._start_request_trace(base, conn, request, kind="get")
        start = base.host.env.now
        self.counters.inc("get_started")
        try:
            conn.send(request, size=350)
        except (SocketClosedSim, ConnectionResetSim):
            self.counters.inc("request_conn_reset")
            if span is not None:
                span.fail("conn_reset")
            return False
        outcome = yield conn.recv(config.request_timeout)
        return self._digest_response(base, outcome, start, kind="get",
                                     span=span)

    def _do_post(self, base: ClientBase, conn, sampler: DistributionSampler):
        """A streaming upload paced by the client's WAN bandwidth."""
        config = self.config
        size = int(sampler.pareto(POST_SIZE_ALPHA, config.post_size_min,
                                  cap=config.post_size_cap))
        request = HttpRequest("POST", "/upload", body_size=size,
                              streaming=True,
                              id=next(base.host.run_record.request_ids))
        span = self._start_request_trace(base, conn, request, kind="post")
        if span is not None:
            span.annotate("post.bytes", size)
        env = base.host.env
        start = env.now
        self.counters.inc("posts_started")
        governor = base.host.run_record.splice
        sent = seq = 0
        try:
            conn.send(request, size=400)
            if (governor is not None and governor.engaged
                    and size >= MIN_BULK_BYTES):
                sent, seq = yield from self._post_body_spliced(
                    conn, request, size, governor)
            if sent < size:
                # The body per chunk, from offset ``sent`` onwards, paced
                # by relay steps; this wakes after the last chunk, with a
                # response that came mid-upload, or with the failed
                # send's error raised here.
                early = yield _Upload(conn, request, size, sent, seq, config,
                                      env.relay()).relay
                if early is not None:
                    verdict = self._digest_response(base, early, start,
                                                    kind="post", span=span)
                    if isinstance(verdict, float) and conn.alive:
                        # Shed mid-upload: this connection has a
                        # dangling POST stream — retire it before the
                        # Retry-After backoff.
                        conn.close()
                    return verdict
        except (SocketClosedSim, ConnectionResetSim):
            self.counters.inc("post_conn_reset")
            self.metrics.series("client/post_disrupted").record(env.now)
            if span is not None:
                span.fail("conn_reset")
            return False
        outcome = yield conn.recv(config.request_timeout)
        return self._digest_response(base, outcome, start, kind="post",
                                     span=span)

    def _post_body_spliced(self, conn, request: HttpRequest, size: int,
                           governor):
        """Upload the body as one spliced bulk transfer (repro.splice).

        The whole chunk train collapses into a single pacing wait plus a
        single :class:`BodyChunk` whose ``chunks`` field carries the
        elided frame count, so relays fold per-chunk costs exactly.  A
        mechanism boundary (release walk, fault window) fires the
        governor's wake mid-wait: the bytes whose pacing already elapsed
        are flushed as one catch-up chunk and the remainder streams at
        per-chunk fidelity.  Returns the ``(sent, seq)`` progress the
        caller's per-chunk loop continues from: ``sent == size`` once the
        whole body went out.
        """
        config = self.config
        env = conn.kernel.env
        chunk_size = config.post_chunk_size
        sent, seq = 0, 0
        while sent < size:
            if not governor.engaged:
                return sent, seq
            remaining = size - sent
            begun = env.now
            completed = yield from governor.bulk_wait(
                remaining / config.upload_bandwidth)
            if completed:
                chunks = -(-remaining // chunk_size)
                conn.send(BodyChunk(request.id, remaining, seq + 1,
                                    is_last=True, chunks=chunks),
                          size=remaining)
                governor.note_bulk(remaining, chunks)
                return size, seq + 1
            # De-spliced mid-transfer: flush the full chunks whose
            # pacing completed before the boundary, then loop (the
            # engaged check above routes the rest per-chunk).  At least
            # the final chunk always remains, so is_last stays with the
            # per-chunk tail.
            elapsed = env.now - begun
            paced = min(int(elapsed * config.upload_bandwidth) // chunk_size,
                        (remaining - 1) // chunk_size)
            if paced > 0:
                flush = paced * chunk_size
                sent += flush
                seq += paced
                conn.send(BodyChunk(request.id, flush, seq,
                                    is_last=False, chunks=paced),
                          size=flush)
                governor.note_bulk(flush, paced)
        return sent, seq  # pragma: no cover - loop exits via returns above

    def _start_request_trace(self, base: ClientBase, conn,
                             request: HttpRequest, kind: str):
        """Root span for one request (None when tracing is disabled)."""
        tracer = base.host.run_record.tracer
        if tracer is None:
            return None
        span = tracer.start_trace(f"client.{kind}", scope=self.name)
        backend = conn.l4lb_backend
        if backend is not None:
            span.annotate("katran.backend", backend)
        request.trace = span
        return span

    def _digest_response(self, base: ClientBase, outcome, start: float,
                         kind: str, span=None):
        env = base.host.env
        if outcome is TIMED_OUT:
            self.counters.inc(f"{kind}_timeout")
            self.metrics.series("client/request_timeout").record(env.now)
            if span is not None:
                span.fail("timeout")
            return False
        item = outcome
        if isinstance(item, StreamControl):
            tag = ("conn_reset" if item.kind == ControlType.RST
                   else "conn_closed")
            self.counters.inc(f"{kind}_{tag}")
            if item.kind == ControlType.RST:
                self.metrics.series("client/conn_reset").record(env.now)
            if span is not None:
                span.fail(tag)
            return False
        response: HttpResponse = item.payload
        self.counters.inc("http_status_seen", tag=str(response.status))
        if (response.status == STATUS_SERVICE_UNAVAILABLE
                and RETRY_AFTER_HEADER in response.headers):
            self.counters.inc(f"{kind}_shed")
            self.metrics.series("client/request_shed").record(env.now)
            retry_after = float(response.headers[RETRY_AFTER_HEADER])
            if span is not None:
                span.annotate("shed.retry_after", retry_after)
                span.finish("shed")
            return retry_after
        if response.status == STATUS_OK:
            self.counters.inc(f"{kind}_ok")
            self.metrics.quantiles(f"client/{kind}_latency").add(
                env.now - start)
            self.metrics.series("client/requests_ok").record(env.now)
            if span is not None:
                span.finish("ok")
            return True
        self.counters.inc(f"{kind}_error")
        self.metrics.series("client/requests_error").record(env.now)
        if span is not None:
            span.annotate("status", response.status)
            span.fail(f"status_{response.status}")
        return False
