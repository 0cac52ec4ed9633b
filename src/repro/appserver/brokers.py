"""MQTT pub/sub broker back-ends (§4.2).

Each end user's MQTT session lives on the broker that consistent-hashing
assigns to their ``user_id``.  The broker keeps the *session context*
independent of the transport path used to reach it — which is exactly
what lets Downstream Connection Reuse splice a new Origin proxy into an
existing session (``re_connect`` → context found → ``connect_ack``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..netsim.addresses import Endpoint
from ..netsim.host import Host
from ..netsim.packet import StreamControl
from ..netsim.process import SimProcess
from ..netsim.sockets import TcpEndpoint, TcpListenSocket
from ..protocols.mqtt import (
    ConnectAck,
    ConnectRefuse,
    MqttConnAck,
    MqttConnect,
    MqttPingReq,
    MqttPingResp,
    MqttPublish,
    ReConnect,
    MQTT_PUBLISH_BASE_SIZE,
)
from ..simkernel.rng import DistributionSampler

__all__ = ["MqttBroker", "BrokerSession"]

#: The port every broker listens on.
BROKER_PORT = 1883

#: QoS-style buffering: notifications queued per session while the
#: relay path is briefly absent (a DCR splice in progress).
MAX_QUEUED_PER_SESSION = 50

#: Downstream publishes per session per second (notifications).
DOWNSTREAM_PUBLISH_RATE = 0.5
#: How often the publisher loop scans sessions.
PUBLISH_TICK = 1.0


@dataclass
class BrokerSession:
    """One user's session context on this broker."""

    user_id: int
    #: Transport currently reaching the user (an Origin-proxy relay
    #: connection); ``None`` while the tunnel is being re-homed.
    path: Optional[TcpEndpoint] = None
    publishes_from_user: int = 0
    publishes_to_user: int = 0
    next_seq: int = field(default=1)
    #: Notifications waiting for a path (MQTT QoS ≥ 1 in-flight store).
    queued: list = field(default_factory=list)


class MqttBroker:
    """A pub/sub broker holding sessions for a shard of users."""

    def __init__(self, host: Host):
        self.host = host
        self.name = f"broker@{host.name}"
        self.endpoint = Endpoint(host.ip, BROKER_PORT)
        self.counters = host.metrics.scoped_counters(self.name)
        self.sessions: dict[int, BrokerSession] = {}
        self.process: Optional[SimProcess] = None
        self._sampler = DistributionSampler(host.streams.stream("broker"))

    def start(self) -> None:
        self.process = self.host.spawn("mqtt-broker")
        _, listener = self.host.kernel.tcp_listen(self.process, self.endpoint)
        self.process.run(self._accept_loop(listener))
        self.process.run(self._publisher_loop())

    # -- serving -------------------------------------------------------------

    def _accept_loop(self, listener: TcpListenSocket):
        while self.process.alive:
            conn = yield listener.accept(self.process)
            self.process.run(self._serve_conn(conn))

    def _serve_conn(self, conn: TcpEndpoint):
        while conn.alive:
            item = yield conn.recv()
            if isinstance(item, StreamControl):
                break
            message = item.payload
            if isinstance(message, MqttConnect):
                self._on_connect(conn, message)
            elif isinstance(message, ReConnect):
                self._on_reconnect(conn, message)
            elif isinstance(message, MqttPublish):
                self._on_publish(message)
            elif isinstance(message, MqttPingReq):
                conn.send(MqttPingResp(message.user_id), size=16)
        # The Origin's relay is gone: close our end too.
        self._detach_paths(conn)
        conn.close()

    def _on_connect(self, conn: TcpEndpoint, message: MqttConnect) -> None:
        session = self.sessions.get(message.user_id)
        present = session is not None
        if session is None:
            session = BrokerSession(message.user_id)
            self.sessions[message.user_id] = session
        session.path = conn
        conn.send(MqttConnAck(message.user_id, session_present=present),
                  size=32)
        # Fig 9's spike metric: ACKs sent for new MQTT connections.
        self.counters.inc("mqtt_connack_sent")
        self._flush_queued(session)

    def _on_reconnect(self, conn: TcpEndpoint, message: ReConnect) -> None:
        """DCR splice: accept iff the session context exists (§4.2)."""
        session = self.sessions.get(message.user_id)
        if session is None:
            conn.send(ConnectRefuse(message.user_id), size=32)
            self.counters.inc("dcr_refused")
            return
        session.path = conn
        conn.send(ConnectAck(message.user_id), size=32)
        self.counters.inc("dcr_accepted")
        self._flush_queued(session)

    def _on_publish(self, message: MqttPublish) -> None:
        session = self.sessions.get(message.user_id)
        if session is None:
            self.counters.inc("publish_no_session")
            return
        session.publishes_from_user += 1
        self.counters.inc("publish_received")
        self.host.metrics.series("mqtt/publish_received").record(
            self.host.env.now)

    # -- session transfer (region evacuation) ---------------------------------

    def release_session(self, user_id: int) -> Optional[BrokerSession]:
        """Detach and hand over one session context (evacuation).

        The caller re-homes the returned context onto another broker via
        :meth:`adopt_session`; the user's next ReConnect/Connect there
        finds it and splices without a session reset.
        """
        session = self.sessions.pop(user_id, None)
        if session is not None:
            self.counters.inc("sessions_released")
        return session

    def adopt_session(self, session: BrokerSession) -> bool:
        """Accept a session context transferred from another broker.

        If the user already re-connected here (fresh session created
        while the transfer was in flight), the live session wins and the
        transferred context is discarded — re-adopting it would stomp
        the newer path and strand the user's downstream publishes.
        """
        if session.user_id in self.sessions:
            self.counters.inc("sessions_adopt_merged")
            return False
        session.path = None
        self.sessions[session.user_id] = session
        self.counters.inc("sessions_adopted")
        return True

    def _detach_paths(self, conn: TcpEndpoint) -> None:
        """A relay connection died: sessions on it lose their path (the
        context itself survives — that is the DCR invariant)."""
        for session in self.sessions.values():
            if session.path is conn:
                session.path = None

    # -- downstream publishing -----------------------------------------------------

    def _publisher_loop(self):
        """Generate notification publishes toward connected users."""
        env = self.host.env
        while self.process.alive:
            yield env.timeout(PUBLISH_TICK)
            rate = DOWNSTREAM_PUBLISH_RATE * PUBLISH_TICK
            for session in self.sessions.values():
                for _ in range(self._sampler.poisson(rate)):
                    self._publish_downstream(session)

    def _publish_downstream(self, session: BrokerSession) -> None:
        message = MqttPublish(session.user_id, topic="notify",
                              seq=session.next_seq)
        session.next_seq += 1
        if session.path is None or not session.path.alive:
            # No transport toward the user right now.  With QoS-style
            # buffering the message waits for the spliced path (flat
            # DCR curve in Fig 9); without it — or past the cap — it is
            # the disruption the woutDCR curve shows.
            if len(session.queued) < MAX_QUEUED_PER_SESSION:
                session.queued.append(message)
                self.counters.inc("publish_queued_no_path")
            else:
                self.counters.inc("publish_dropped_no_path")
            return
        session.path.send(message, size=MQTT_PUBLISH_BASE_SIZE)
        session.publishes_to_user += 1
        self.counters.inc("publish_sent_downstream")

    def _flush_queued(self, session: BrokerSession) -> None:
        """Deliver notifications buffered during a path outage."""
        if not session.queued or session.path is None \
                or not session.path.alive:
            return
        for message in session.queued:
            session.path.send(message, size=MQTT_PUBLISH_BASE_SIZE)
            session.publishes_to_user += 1
            self.counters.inc("publish_sent_downstream")
            self.counters.inc("publish_flushed_after_splice")
        session.queued.clear()
