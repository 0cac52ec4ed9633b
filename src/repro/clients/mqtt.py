"""MQTT client population: billions of users, scaled down.

Each user keeps one persistent MQTT connection (tunneled Edge → Origin →
broker), publishes occasionally, pings periodically, and — because MQTT
"requires [the] underlying transport session to be always available" —
reconnects as soon as the transport breaks (§4.2).  The reconnect storm
those clients generate is exactly what DCR avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint
from ..netsim.errors import ConnectionResetSim, SocketClosedSim
from ..netsim.host import Host
from ..netsim.packet import StreamControl
from ..netsim.proc_utils import TIMED_OUT
from ..netsim.process import SimProcess
from ..protocols.mqtt import (
    MqttConnAck,
    MqttConnect,
    MqttPingReq,
    MqttPublish,
    ReconnectSolicitation,
)
from ..protocols.tls import TlsClientHello, TlsServerDone
from ..simkernel.rng import DistributionSampler
from .base import ClientBase, Router

__all__ = ["MqttWorkloadConfig", "MqttClientPopulation"]

#: Uniform back-off window (seconds) before reconnecting after a failed
#: connect or a broken session.
RECONNECT_BACKOFF = (0.5, 2.5)


@dataclass
class MqttWorkloadConfig:
    users_per_host: int = 50
    #: Mean seconds between upstream publishes per user.
    publish_interval: float = 8.0
    ping_interval: float = 15.0
    connect_timeout: float = 5.0
    #: Client-side support for the edge's reconnect solicitation (§4.2
    #: caveat: edge DCR needs the end-user application to understand the
    #: connection-reuse workflow).
    supports_reconnect_solicitation: bool = True
    #: Seconds of transport silence (no ping responses, no publishes)
    #: before the client declares the session dead and reconnects.  A
    #: blackholed path (WAN partition) never resets the connection, so
    #: without this bound the client would hang forever.  ``None``
    #: disables the check (the historical behaviour).
    keepalive_timeout: float | None = None


class MqttClientPopulation:
    """Pub/sub users behind the Edge."""

    #: Protocol kind, for per-population load shaping (repro.ops.load)
    #: and the cohort layer (repro.cohorts).
    kind = "mqtt"

    def __init__(self, hosts: list[Host], vip: Endpoint, router: Router,
                 metrics: MetricsRegistry,
                 config: MqttWorkloadConfig,
                 name: str = "mqtt-clients", first_id: int = 1):
        self.hosts = hosts
        self.vip = vip
        self.router = router
        self.metrics = metrics
        self.config = config
        self.name = name
        self.counters = metrics.scoped_counters(name)
        self._next_user = first_id
        self._bases: dict[int, ClientBase] = {}
        #: Arrival-rate multiplier (repro.ops.load): publish pacing is
        #: divided by this — one attribute read per publish.
        self.rate_scale = 1.0

    def set_rate_scale(self, scale: float) -> None:
        self.rate_scale = max(0.01, scale)

    def start(self) -> None:
        for index in range(len(self.hosts)):
            self.spawn_clients(self.config.users_per_host,
                               host_index=index)

    def spawn_clients(self, count: int, host_index: int = 0) -> None:
        """Spawn ``count`` more users on one host — callable mid-run
        (the cohort layer condenses solo flows out of a fluid this way)."""
        host = self.hosts[host_index]
        base = self._bases.get(host_index)
        if base is None:
            base = self._bases[host_index] = ClientBase(
                host, self.name, self.vip, self.router, self.metrics)
        for _ in range(count):
            user_id = self._next_user
            self._next_user += 1
            process = host.spawn(f"mqtt-user-{user_id}")
            sampler = DistributionSampler(
                host.streams.stream(f"mqtt-{user_id}"))
            process.run(self._user_loop(base, process, user_id, sampler))

    def _user_loop(self, base: ClientBase, process: SimProcess,
                   user_id: int, sampler: DistributionSampler):
        env = base.host.env
        config = self.config
        while process.alive:
            tracer = base.host.run_record.tracer
            span = None
            if tracer is not None:
                span = tracer.start_trace("client.mqtt", scope=self.name)
                span.annotate("user", user_id)
            conn = yield from self._connect(base, process, user_id,
                                            span=span)
            if conn is None:
                if span is not None:
                    span.fail("connect_failed")
                yield env.timeout(sampler.uniform(*RECONNECT_BACKOFF))
                continue
            self.counters.inc("sessions_established")
            ending = yield from self._session(base, conn, user_id, sampler)
            if ending == "solicited":
                # Edge-side DCR: the proxy asked us to move *before* the
                # drain deadline — reconnect immediately and gracefully,
                # no user-visible gap, no RST.
                self.counters.inc("proactive_reconnects")
                self.metrics.series("mqtt/proactive_reconnects").record(
                    env.now)
                if span is not None:
                    span.annotate("dcr.client_solicited")
                    tracer.keep(span)
                    span.finish("solicited")
                continue
            # Session broke under us: back off, then reconnect.
            self.counters.inc("reconnects")
            self.metrics.series("mqtt/client_reconnects").record(env.now)
            if span is not None:
                span.fail("session_broken")
            yield env.timeout(sampler.uniform(*RECONNECT_BACKOFF))

    def _connect(self, base: ClientBase, process: SimProcess, user_id: int,
                 span=None):
        conn = yield from base.connect_routed(
            process, timeout=self.config.connect_timeout)
        if conn is None:
            return None
        if span is not None:
            backend = conn.l4lb_backend
            if backend is not None:
                span.annotate("katran.backend", backend)
        # Real MQTT clients speak TLS to the edge; re-handshakes are what
        # makes reconnect storms expensive (§2.5).
        try:
            conn.send(TlsClientHello(), size=320)
        except (SocketClosedSim, ConnectionResetSim):
            return None
        outcome = yield conn.recv(self.config.connect_timeout)
        if (outcome is TIMED_OUT or isinstance(outcome, StreamControl)
                or not isinstance(outcome.payload, TlsServerDone)):
            self.counters.inc("tls_failed")
            if conn.alive:
                conn.abort(reason="tls_failed")
            return None
        try:
            conn.send(MqttConnect(user_id, trace=span), size=120)
        except (SocketClosedSim, ConnectionResetSim):
            return None
        outcome = yield conn.recv(self.config.connect_timeout)
        if (outcome is TIMED_OUT or isinstance(outcome, StreamControl)
                or not isinstance(outcome.payload, MqttConnAck)):
            self.counters.inc("connect_failed")
            if conn is not None and conn.alive:
                conn.abort(reason="mqtt_connect_failed")
            return None
        return conn

    def _session(self, base: ClientBase, conn, user_id: int,
                 sampler: DistributionSampler):
        """One established session: publish, ping, consume notifications."""
        env = base.host.env
        config = self.config
        seq = 0
        next_publish = env.now + (sampler.exponential(config.publish_interval)
                                  / self.rate_scale)
        next_ping = env.now + config.ping_interval
        last_inbound = env.now
        while conn.alive:
            wake = min(next_publish, next_ping)
            delay = max(0.0, wake - env.now)
            outcome = yield conn.recv(delay or 1e-4)
            if outcome is TIMED_OUT:
                if (config.keepalive_timeout is not None
                        and env.now - last_inbound
                        > config.keepalive_timeout):
                    # Silent path: nothing has come back for a whole
                    # keepalive window — treat the session as dead.
                    self.counters.inc("keepalive_expired")
                    self.counters.inc("session_broken")
                    if conn.alive:
                        conn.abort(reason="keepalive_expired")
                    return "broken"
                try:
                    if env.now >= next_publish:
                        seq += 1
                        conn.send(MqttPublish(user_id, "status", seq),
                                  size=80)
                        self.counters.inc("publishes_sent")
                        self.metrics.series("mqtt/client_publish").record(
                            env.now)
                        next_publish = env.now + (sampler.exponential(
                            config.publish_interval) / self.rate_scale)
                    if env.now >= next_ping:
                        conn.send(MqttPingReq(user_id), size=16)
                        next_ping = env.now + config.ping_interval
                except (SocketClosedSim, ConnectionResetSim):
                    self.counters.inc("session_broken")
                    return "broken"
                continue
            if isinstance(outcome, StreamControl):
                self.counters.inc("session_broken")
                return "broken"
            last_inbound = env.now
            message = outcome.payload
            if isinstance(message, MqttPublish):
                self.counters.inc("publishes_received")
                self.metrics.series("mqtt/client_publish_received").record(
                    env.now)
            elif isinstance(message, ReconnectSolicitation) \
                    and config.supports_reconnect_solicitation:
                conn.close()  # graceful: the proxy tears the tunnel down
                return "solicited"
            # ping responses, acks and ignored solicitations: no action
