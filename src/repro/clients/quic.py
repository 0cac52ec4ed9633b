"""QUIC client flows: stateful UDP traffic over the restartable edge.

Each flow holds a connection ID, sends packets at a steady rate, and
expects per-packet acks.  A packet whose ack never arrives was misrouted
to (or dropped by) a proxy process without the flow's state — the
client-visible face of Figures 2d and 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint, FourTuple, Protocol
from ..netsim.host import Host
from ..netsim.proc_utils import TIMED_OUT
from ..netsim.process import SimProcess
from ..protocols.quic import QUIC_PACKET_SIZE, QuicPacket
from ..simkernel.rng import DistributionSampler
from .base import Router

__all__ = ["QuicWorkloadConfig", "QuicClientPopulation"]


@dataclass
class QuicWorkloadConfig:
    flows_per_host: int = 20
    #: Seconds between packets within one flow.
    packet_interval: float = 0.5
    ack_timeout: float = 1.0
    #: Consecutive unacked packets before the client re-establishes
    #: with a fresh connection ID.
    loss_threshold: int = 3
    #: Mean packets per connection before it ends naturally and the
    #: client opens a fresh one (QUIC connections are short-lived
    #: relative to a drain — the property §4.1's user-space routing
    #: leans on).  ``None`` = infinite connections.
    mean_packets_per_connection: float | None = 40.0


class QuicClientPopulation:
    """Long-lived QUIC flows toward the edge's UDP VIP."""

    #: Protocol kind, for per-population load shaping (repro.ops.load)
    #: and the cohort layer (repro.cohorts).
    kind = "quic"

    def __init__(self, hosts: list[Host], vip: Endpoint, router: Router,
                 metrics: MetricsRegistry,
                 config: QuicWorkloadConfig | None = None,
                 name: str = "quic-clients", first_flow_id: int = 1):
        self.hosts = hosts
        self.vip = vip
        self.router = router
        self.metrics = metrics
        self.config = config or QuicWorkloadConfig()
        self.name = name
        self.counters = metrics.scoped_counters(name)
        self._serial = first_flow_id - 1
        #: Arrival-rate multiplier (repro.ops.load): packet pacing is
        #: divided by this — one attribute read per packet.
        self.rate_scale = 1.0

    def set_rate_scale(self, scale: float) -> None:
        self.rate_scale = max(0.01, scale)

    def start(self) -> None:
        for index in range(len(self.hosts)):
            self.spawn_clients(self.config.flows_per_host,
                               host_index=index)

    def spawn_clients(self, count: int, host_index: int = 0) -> None:
        """Spawn ``count`` more flows on one host — callable mid-run
        (the cohort layer condenses solo flows out of a fluid this way)."""
        host = self.hosts[host_index]
        for _ in range(count):
            self._serial += 1
            process = host.spawn(f"quic-flow-{self._serial}")
            sampler = DistributionSampler(
                host.streams.stream(f"quic-{self._serial}"))
            process.run(self._flow_loop(host, process, sampler))

    def _flow_loop(self, host: Host, process: SimProcess,
                   sampler: DistributionSampler):
        env = host.env
        config = self.config
        _, sock = host.kernel.udp_bind_ephemeral(process)
        # The L4LB pins this flow's packets to one edge host.
        flow = FourTuple(Protocol.UDP, sock.endpoint, self.vip)
        connection_ids = host.run_record.connection_ids
        cid = next(connection_ids)
        first = True
        consecutive_losses = 0
        packets_left = self._draw_connection_length(sampler)
        # Spread flow phases.
        yield env.timeout(sampler.uniform(0, config.packet_interval))
        while process.alive:
            if packets_left is not None and packets_left <= 0:
                # Connection ends naturally; open a fresh one.
                cid = next(connection_ids)
                first = True
                consecutive_losses = 0
                packets_left = self._draw_connection_length(sampler)
                self.counters.inc("connections_completed")
            backend_ip = self.router(flow)
            if backend_ip is None:
                yield env.timeout(config.packet_interval)
                continue
            packet = QuicPacket(connection_id=cid, is_initial=first,
                                payload="data")
            sock.sendto(packet, self.vip, size=QUIC_PACKET_SIZE,
                        connection_id=cid, via_ip=backend_ip)
            self.counters.inc("packets_sent")
            if packets_left is not None:
                packets_left -= 1
            acked = yield from self._await_ack(sock, packet)
            if acked:
                first = False
                consecutive_losses = 0
                self.counters.inc("packets_acked")
            else:
                consecutive_losses += 1
                self.counters.inc("packets_lost")
                self.metrics.series("quic/client_loss").record(env.now)
                if consecutive_losses >= config.loss_threshold:
                    # Give up on this connection: fresh CID (and, with a
                    # fresh source port, likely a fresh L4 route).
                    cid = next(connection_ids)
                    first = True
                    consecutive_losses = 0
                    self.counters.inc("connections_reestablished")
                    self.metrics.series("quic/reconnects").record(env.now)
            yield env.timeout(config.packet_interval / self.rate_scale)

    def _draw_connection_length(self, sampler: DistributionSampler):
        mean = self.config.mean_packets_per_connection
        if mean is None:
            return None
        return max(1, round(sampler.exponential(mean)))

    def _await_ack(self, sock, packet: QuicPacket):
        """True iff an ack for ``packet``'s connection ID arrives within
        ``ack_timeout``.  An ack that outlived its own timeout answers an
        ID this flow has since rotated away from: it is discarded and
        the wait goes on, to the same deadline."""
        env = sock.kernel.env
        deadline = env.now + self.config.ack_timeout
        while True:
            outcome = yield sock.recv(deadline - env.now)
            if outcome is TIMED_OUT:
                return False
            reply = outcome.payload
            if (isinstance(reply, QuicPacket)
                    and reply.connection_id == packet.connection_id):
                return True
