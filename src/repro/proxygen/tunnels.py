"""MQTT tunnels through the proxy tiers + Downstream Connection Reuse.

An end-user MQTT connection is relayed: client ⇄ Edge Proxygen ⇄ (HTTP/2
stream) ⇄ Origin Proxygen ⇄ broker (§2.2).  The Origin hop only relays
packets, so it is stateless w.r.t. the tunnel — the property DCR (§4.2)
exploits: when the Origin restarts it solicits the Edge to re-home the
tunnel through another healthy Origin proxy, and the broker splices the
new path into the existing session context.  The end user never notices.

Each direction of a tunnel is one task whose generator sets up and
handles the window edges (a FIN/RST, a broken stream, a DCR
solicitation), while the messages in between are relayed by steps of a
kernel relay (``env.relay()``): take the message, burn its relay CPU
(``CpuModel.charge``, skipped while the splice governor is engaged),
send it on, take the next — no process resumes per message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..netsim.cpu import CpuCosts
from ..netsim.errors import (
    ConnectionRefusedSim,
    ConnectionResetSim,
    SocketClosedSim,
)
from ..netsim.packet import StreamControl
from ..netsim.proc_utils import TIMED_OUT
from ..protocols.http2 import FrameType, H2Error, H2Stream
from ..protocols.mqtt import (
    ConnectAck,
    ConnectRefuse,
    MqttConnAck,
    MqttConnect,
    MqttDisconnect,
    MqttPingReq,
    MqttPingResp,
    MqttPublish,
    ReConnect,
    ReconnectSolicitation,
)
from .upstream import UpstreamUnavailable

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.sockets import TcpEndpoint
    from .instance import ProxygenInstance

__all__ = ["EdgeMqttTunnel", "OriginMqttTunnel"]

#: Seconds a re-homed tunnel keeps relaying from its pre-splice stream.
OLD_STREAM_GRACE = 2.0


class EdgeMqttTunnel:
    """The Edge side of one user's MQTT tunnel."""

    def __init__(self, instance: "ProxygenInstance",
                 client_conn: "TcpEndpoint", user_id: int):
        self.instance = instance
        self.client_conn = client_conn
        self.user_id = user_id
        self.stream: Optional[H2Stream] = None
        self.closed = False
        self.span = None
        self.cpu = instance.host.cpu
        self.governor = instance.run_record.splice
        #: Each direction's relay.
        self._up = self._down = None

    # -- establishment ---------------------------------------------------

    def establish(self, connect: MqttConnect):
        """Generator: open the upstream stream and forward the CONNECT."""
        instance = self.instance
        self.span = instance._hop_span(connect, "edge.tunnel")
        try:
            self.stream = yield from instance.upstream.open_stream()
        except UpstreamUnavailable:
            instance.count_client_error("stream_abort")
            self.client_conn.abort(reason="no_upstream")
            self.closed = True
            if self.span is not None:
                self.span.fail("no_upstream")
            return False
        self.stream.send(connect, size=120, frame_type=FrameType.HEADERS)
        instance.mqtt_tunnels[self.user_id] = self
        instance.process.run(self._downstream_loop())
        return True

    # -- client -> broker direction -------------------------------------------

    def client_loop(self):
        """Generator (runs in the connection's serve task): relay
        messages from the end user toward the broker, one relay step
        each, until the client's FIN/RST or the tunnel closes."""
        if self.closed or not self.client_conn.alive:
            return
        relay = self._up = self.instance.host.env.relay()
        relay.read(self.client_conn.inbox, self._from_client)
        try:
            gone = yield relay
        finally:
            relay.close()
        if gone is not None:
            self._on_client_gone()

    def _from_client(self, item) -> None:
        if isinstance(item, StreamControl):
            self._up.wake(item)
            return
        # Established-tunnel splice (repro.splice): while no mechanism
        # window is open, relayed messages skip the userspace CPU round
        # trip — the kernel-splice framing of §4.1.  Counters are
        # untouched either way.
        governor = self.governor
        if governor is not None and governor.engaged:
            governor.relay_fastpath += 1
            self._to_broker(item)
        else:
            self._up.charge(self.cpu, CpuCosts.relay_message,
                            self._to_broker, item)

    def _to_broker(self, item) -> None:
        instance = self.instance
        message = item.payload
        stream = self.stream
        if stream is None or stream.reset or self.closed:
            instance.counters.inc("mqtt_upstream_drop")
        else:
            try:
                stream.send(message, size=item.size)
            except H2Error:
                instance.counters.inc("mqtt_upstream_drop")
            else:
                if isinstance(message, MqttPublish):
                    instance.counters.inc("mqtt_publish_relayed_up")
                    instance.host.metrics.series("mqtt/publish_up").record(
                        instance.host.env.now)
        if self.client_conn.alive and not self.closed:
            self._up.read(self.client_conn.inbox, self._from_client)
        else:
            self._up.wake()

    # -- broker -> client direction ---------------------------------------------

    def _downstream_loop(self):
        """Relay messages from the Origin stream to the end user, one
        relay step each; the task wakes for a broken stream or a DCR
        solicitation.  Only its own :meth:`_rehome` moves
        ``self.stream``, so the relay always reads the current one."""
        instance = self.instance
        while not self.closed:
            stream = self.stream
            relay = self._down = instance.host.env.relay()
            relay.read(stream.inbox, self._from_origin)
            try:
                frame = yield relay
            finally:
                relay.close()
            if frame is None:
                return  # the client is gone, or the tunnel closed
            if frame.type == FrameType.RST_STREAM or stream.reset:
                # The Origin hop died without DCR (or DCR failed).
                self._on_tunnel_broken()
                return
            # A ReconnectSolicitation.
            if instance.config.enable_dcr:
                ok = yield from self._rehome()
                if not ok:
                    return
            # Without DCR support, ignore: the drain will kill us.

    def _from_origin(self, frame) -> None:
        if (frame.type == FrameType.RST_STREAM or self.stream.reset
                or isinstance(frame.payload, ReconnectSolicitation)):
            self._down.wake(frame)
            return
        governor = self.governor
        if governor is not None and governor.engaged:
            governor.relay_fastpath += 1
            self._to_client(frame)
        else:
            self._down.charge(self.cpu, CpuCosts.relay_message,
                              self._to_client, frame)

    def _to_client(self, frame) -> None:
        if not self.client_conn.alive:
            self._teardown()
            self._down.wake()
            return
        message = frame.payload
        self.client_conn.send(message, size=frame.size)
        if isinstance(message, MqttPublish):
            instance = self.instance
            instance.counters.inc("mqtt_publish_relayed_down")
            instance.host.metrics.series("mqtt/publish_down").record(
                instance.host.env.now)
        if self.closed:
            self._down.wake()
        else:
            self._down.read(self.stream.inbox, self._from_origin)

    # -- DCR -----------------------------------------------------------------

    def _rehome(self):
        """Generator: move this tunnel to a healthy Origin proxy (§4.2).

        On success the end-user connection is untouched; on failure the
        edge drops the client connection and the client reconnects the
        normal way.
        """
        instance = self.instance
        plane = instance.resilience
        old_stream = self.stream
        new_stream = None
        for attempt in range(3):
            if attempt > 0 and plane is not None:
                # Re-homing storms are synchronized by nature (every
                # tunnel on a draining Origin gets solicited at once):
                # jittered backoff de-herds the ReConnect relay.
                yield from plane.backoff_wait(attempt)
            try:
                candidate = yield from instance.upstream.open_stream()
            except UpstreamUnavailable:
                break
            candidate.send(ReConnect(self.user_id, trace=self.span), size=64,
                           frame_type=FrameType.HEADERS)
            outcome = yield candidate.recv(5.0)
            if (outcome is not TIMED_OUT and not candidate.reset
                    and isinstance(getattr(outcome, "payload", None),
                                   ConnectAck)):
                new_stream = candidate
                break
            # A refused stream usually means we raced the restarting
            # Origin's GOAWAY on a stale connection: the pool has seen
            # the GOAWAY by now, so the retry dials a fresh connection
            # (served by the updated parallel instance, §4.4).
            instance.counters.inc("dcr_rehome_retry")
            if self.span is not None:
                self.span.annotate("dcr.rehome_retry", attempt)
            if not candidate.reset and not candidate.local_closed:
                try:
                    candidate.send(MqttDisconnect(self.user_id), size=16,
                                   end_stream=True)
                except H2Error:
                    pass
        if new_stream is None:
            instance.counters.inc("dcr_rehome_failed")
            if self.span is not None:
                self.span.annotate("dcr.rehome_failed")
            self._on_tunnel_broken()
            return False
        self.stream = new_stream
        if self.span is not None:
            self.span.annotate("dcr.rehomed")
            instance.tracer.keep(self.span)
        if old_stream is not None and not old_stream.reset:
            try:
                old_stream.send(MqttDisconnect(self.user_id), size=16,
                                end_stream=True)
            except H2Error:
                pass
            # Messages already relayed into the old tunnel (in flight
            # when we switched) must still reach the client: drain the
            # old stream for a grace period.
            instance.process.run(self._drain_old_stream(old_stream))
        instance.counters.inc("dcr_rehomed")
        return True

    def _drain_old_stream(self, old_stream):
        """Relay publishes stranded on the pre-splice stream."""
        instance = self.instance
        env = instance.host.env
        deadline = env.now + OLD_STREAM_GRACE
        while env.now < deadline and not old_stream.reset:
            outcome = yield old_stream.recv(max(deadline - env.now, 1e-4))
            if outcome is TIMED_OUT:
                return
            frame = outcome
            if frame.type == FrameType.RST_STREAM:
                return
            message = frame.payload
            if isinstance(message, MqttPublish) and self.client_conn.alive:
                self.client_conn.send(message, size=frame.size)
                instance.counters.inc("mqtt_publish_relayed_down")
                instance.counters.inc("dcr_stranded_relayed")
                instance.host.metrics.series("mqtt/publish_down").record(
                    env.now)

    # -- edge-side DCR (§4.2 caveat) --------------------------------------------

    def solicit_client(self) -> None:
        """Ask the end-user client to proactively reconnect.

        "For a restart at the Edge, the same workflow can be used with
        end-users, especially mobile clients, to minimize disruptions
        (by pro-actively re-connecting)."  Requires client support —
        clients without it simply ignore the message and get cut at the
        end of the drain like before.
        """
        if self.closed or not self.client_conn.alive:
            return
        try:
            self.client_conn.send(
                ReconnectSolicitation(self.instance.name), size=48)
            self.instance.counters.inc("dcr_client_solicited")
        except (SocketClosedSim, ConnectionResetSim):
            pass

    # -- teardown ---------------------------------------------------------------

    def _on_client_gone(self) -> None:
        if self.closed:
            return
        if self.stream is not None and not self.stream.reset:
            try:
                self.stream.send(MqttDisconnect(self.user_id), size=16,
                                 end_stream=True)
            except H2Error:
                pass
        self._teardown()

    def _on_tunnel_broken(self) -> None:
        """The broker path is gone: cut the client loose (it reconnects)."""
        if self.closed:
            return
        self.instance.counters.inc("mqtt_tunnel_broken")
        if self.span is not None:
            self.span.fail("tunnel_broken")
        if self.client_conn.alive:
            self.client_conn.abort(reason="tunnel_broken")
        self._teardown()

    def _teardown(self) -> None:
        self.closed = True
        if self.span is not None:
            self.span.finish("closed")
        self.instance.mqtt_tunnels.pop(self.user_id, None)


class OriginMqttTunnel:
    """The Origin side: relay between an Edge stream and a broker conn."""

    def __init__(self, instance: "ProxygenInstance", stream: H2Stream,
                 user_id: int):
        self.instance = instance
        self.stream = stream
        self.user_id = user_id
        self.broker_conn: Optional["TcpEndpoint"] = None
        #: Which broker this tunnel relays into — region evacuation scans
        #: for tunnels still pointed at an evacuated broker.
        self.broker_ip: Optional[str] = None
        self.closed = False
        self.span = None
        self.cpu = instance.host.cpu
        self.governor = instance.run_record.splice
        #: Each direction's relay.
        self._up = self._down = None

    # -- establishment ---------------------------------------------------------

    def run(self, first_message):
        """Generator: establish toward the broker, then relay both ways.

        ``first_message`` is the MqttConnect (fresh session) or ReConnect
        (DCR splice) that opened the stream.  The stream's serve task
        relays Edge stream → broker conn itself; a second task relays
        the other way (:meth:`_from_broker_loop`); each message is a
        step of their relays, and the task wakes only when its stream
        is reset or the tunnel closed.
        """
        instance = self.instance
        self.span = instance._hop_span(first_message, "origin.tunnel")
        if self.span is not None and isinstance(first_message, ReConnect):
            self.span.annotate("dcr.splice")
        broker_ip = instance.context.broker_for_user(self.user_id)
        self.broker_ip = broker_ip
        if broker_ip is None:
            self._refuse()
            return
        if self.span is not None:
            self.span.annotate("broker", broker_ip)
        try:
            self.broker_conn = yield from instance.conn_pool.checkout(
                broker_ip, instance.context.broker_port)
        except ConnectionRefusedSim:
            self._refuse()
            return
        try:
            self.broker_conn.send(first_message, size=120)
        except (SocketClosedSim, ConnectionResetSim):
            self._refuse()
            return
        instance.mqtt_tunnels[self.user_id] = self
        instance.process.run(self._from_broker_loop())
        if self.closed:
            return
        relay = self._up = instance.host.env.relay()
        relay.read(self.stream.inbox, self._from_edge)
        try:
            reset = yield relay
        finally:
            relay.close()
        if reset is not None:
            self._teardown(close_broker=True)

    def _refuse(self) -> None:
        self.instance.counters.inc("origin_tunnel_refused")
        if self.span is not None:
            self.span.fail("refused")
        if not self.stream.reset:
            try:
                self.stream.send(ConnectRefuse(self.user_id), size=32,
                                 end_stream=True)
            except H2Error:
                pass
        self.closed = True

    # -- relays --------------------------------------------------------------------

    def _from_edge(self, frame) -> None:
        if frame.type == FrameType.RST_STREAM or self.stream.reset:
            self._up.wake(frame)
            return
        governor = self.governor
        if governor is not None and governor.engaged:
            governor.relay_fastpath += 1
            self._to_broker(frame)
        else:
            self._up.charge(self.cpu, CpuCosts.relay_message,
                            self._to_broker, frame)

    def _to_broker(self, frame) -> None:
        message = frame.payload
        if isinstance(message, MqttDisconnect) and frame.end_stream:
            # Graceful hand-off (DCR re-home away from us) or client
            # disconnect: stop relaying, release the broker conn.
            self._teardown(close_broker=True)
            self._up.wake()
            return
        broker_conn = self.broker_conn
        if broker_conn is None or not broker_conn.alive:
            self.instance.counters.inc("mqtt_broker_drop")
        else:
            broker_conn.send(message, size=frame.size)
            if isinstance(message, MqttPublish):
                self.instance.counters.inc("mqtt_publish_relayed_up")
        if self.closed:
            self._up.wake()
        else:
            self._up.read(self.stream.inbox, self._from_edge)

    def _from_broker_loop(self):
        """Broker conn → edge stream, one relay step per message; the
        task wakes for the broker's FIN/RST or once the tunnel closed."""
        if self.closed:
            return
        relay = self._down = self.instance.host.env.relay()
        relay.read(self.broker_conn.inbox, self._from_broker)
        try:
            gone = yield relay
        finally:
            relay.close()
        if gone is not None:
            if not self.closed and not self.stream.reset:
                self.stream.rst()
            self._teardown(close_broker=False)

    def _from_broker(self, item) -> None:
        if isinstance(item, StreamControl):
            self._down.wake(item)
            return
        governor = self.governor
        if governor is not None and governor.engaged:
            governor.relay_fastpath += 1
            self._to_edge(item)
        else:
            self._down.charge(self.cpu, CpuCosts.relay_message,
                              self._to_edge, item)

    def _to_edge(self, item) -> None:
        instance = self.instance
        message = item.payload
        stream = self.stream
        if stream.reset or self.closed:
            instance.counters.inc("mqtt_edge_drop")
        else:
            try:
                stream.send(message, size=item.size)
            except H2Error:
                instance.counters.inc("mqtt_edge_drop")
            else:
                if isinstance(message, MqttPublish):
                    instance.counters.inc("mqtt_publish_relayed_down")
        if self.closed:
            self._down.wake()
        else:
            self._down.read(self.broker_conn.inbox, self._from_broker)

    # -- DCR solicitation ---------------------------------------------------------

    def solicit_reconnect(self) -> None:
        """Called when this Origin instance starts draining (§4.2 step A)."""
        if self.closed or self.stream.reset:
            return
        try:
            self.stream.send(
                ReconnectSolicitation(self.instance.name), size=48)
        except H2Error:
            pass

    def terminate(self) -> None:
        """Forced broker-side close (the broker is going away for good).

        Region evacuation uses this for tunnels whose client never
        completed the solicited DCR splice — e.g. it is partitioned
        away: the edge stream is reset so the client re-dials once it
        can, and nothing keeps relaying into the departed broker.
        """
        if self.closed:
            return
        if not self.stream.reset:
            self.stream.rst()
        self._teardown(close_broker=True)

    def _teardown(self, close_broker: bool) -> None:
        if self.closed:
            return
        self.closed = True
        if self.span is not None:
            self.span.finish("closed")
        self.instance.mqtt_tunnels.pop(self.user_id, None)
        if close_broker and self.broker_conn is not None \
                and self.broker_conn.alive:
            self.broker_conn.close()
