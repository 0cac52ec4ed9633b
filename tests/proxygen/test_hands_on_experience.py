"""§5 "Hands-on Experience": the production pitfalls and remediations.

* the §5.2 memory-corruption incident — a buggy upstream emitting bare
  379s must not trigger Partial Post Replay;
* the §5.1 orphaned-FD leak — ignored received FDs queue packets
  forever; the audit finds them and the external close command heals
  the ring.
"""

import pytest

from repro.appserver import AppServerConfig
from repro.netsim import Endpoint
from repro.protocols import BodyChunk, HttpRequest, QuicPacket
from repro.proxygen import (
    ProxygenConfig,
    audit_orphaned_udp_sockets,
    force_close_orphans,
)
from repro.proxygen.instance import UDP_SOCKETS_PER_VIP
from .conftest import MiniStack


def test_rogue_379_not_trusted(world):
    """A 379 without the PartialPOST status message must fail the
    request with a standard 500, not enter the replay loop."""
    stack = MiniStack(world, app_servers=2, app_config=AppServerConfig(
        rogue_status_fraction=1.0)).start()
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        request = HttpRequest("POST", "/up", body_size=1000,
                              streaming=True, id=1)
        conn.send(request, size=300)
        conn.send(BodyChunk(request.id, 1000, 1, is_last=True), size=1000)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    stack.env.run(until=stack.env.now + 5)
    assert got and got[0].status == 500
    assert stack.origin.counters.get("ppr_379_invalid") == 1
    assert stack.origin.counters.get("ppr_379_received") == 0


def test_rogue_status_on_gets_passes_through(world):
    """Random codes on non-POST requests just flow to the client —
    no PPR machinery involved."""
    stack = MiniStack(world, app_servers=1, app_config=AppServerConfig(
        rogue_status_fraction=1.0)).start()
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        conn.send(HttpRequest("GET", "/api", id=1), size=300)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    stack.env.run(until=stack.env.now + 3)
    assert got and got[0].status != 200
    assert stack.origin.counters.get("ppr_379_received") == 0


def _quic_blast(stack, count=60):
    """Send `count` QUIC packets from distinct flows at the edge."""
    host, proc = stack.client("quic-client")
    quic_vip = stack.edge_vips[1].endpoint

    def flow():
        for i in range(count):
            _, sock = host.kernel.udp_bind_ephemeral(proc)
            sock.sendto(QuicPacket(connection_id=10_000 + i,
                                   is_initial=True),
                        quic_vip, size=1200,
                        via_ip=stack.edge_host.ip)
            yield stack.env.timeout(0.01)

    proc.run(flow())


def test_ignored_fds_leak_and_queue_packets(world):
    stack = MiniStack(world, edge_config=ProxygenConfig(
        mode="edge", drain_duration=2.0, spawn_delay=0.3,
        buggy_ignore_received_udp_fds=True)).start()
    edge = stack.edge
    done = stack.env.process(edge.release())
    stack.env.run(until=done)
    stack.env.run(until=stack.env.now + 4)   # old drained away

    # The audit sees the orphans even before traffic arrives.
    orphans = audit_orphaned_udp_sockets(edge)
    assert len(orphans) == UDP_SOCKETS_PER_VIP
    assert all(not o.socket.closed for o in orphans)

    _quic_blast(stack)
    stack.env.run(until=stack.env.now + 3)
    orphans = audit_orphaned_udp_sockets(edge)
    # Packets sit unprocessed on the leaked sockets' queues (§5.1).
    assert sum(o.queued_datagrams for o in orphans) > 0
    assert edge.counters.get("quic_conn_created") == 0


def test_force_close_orphans_heals_the_ring(world):
    stack = MiniStack(world, edge_config=ProxygenConfig(
        mode="edge", drain_duration=2.0, spawn_delay=0.3,
        buggy_ignore_received_udp_fds=True)).start()
    edge = stack.edge
    quic_vip = stack.edge_vips[1].endpoint
    done = stack.env.process(edge.release())
    stack.env.run(until=done)
    stack.env.run(until=stack.env.now + 4)

    closed = force_close_orphans(edge)
    assert closed == UDP_SOCKETS_PER_VIP
    ring = stack.edge_host.kernel.reuseport_ring(quic_vip)
    assert ring is None or len(ring) == 0
    assert audit_orphaned_udp_sockets(edge) == []


def test_healthy_takeover_has_no_orphans(world):
    stack = MiniStack(world).start()
    edge = stack.edge
    done = stack.env.process(edge.release())
    stack.env.run(until=done)
    assert audit_orphaned_udp_sockets(edge) == []
    stack.env.run(until=stack.env.now + 8)
    assert audit_orphaned_udp_sockets(edge) == []
