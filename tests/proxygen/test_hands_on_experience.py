"""§5 "Hands-on Experience": the production pitfalls.

* the §5.2 memory-corruption incident — a buggy upstream emitting bare
  379s must not trigger Partial Post Replay;
* the §5.1 orphaned-FD leak — ignored received FDs queue packets
  forever.
"""

from repro.protocols import BodyChunk, HttpRequest, QuicPacket
from repro.proxygen import ProxygenConfig
from repro.proxygen.instance import UDP_SOCKETS_PER_VIP
from .conftest import MiniStack


def _rogue_stack(world, app_servers):
    """A stack whose every app server answers with random status codes."""
    stack = MiniStack(world, app_servers=app_servers)
    for server in stack.app_servers:
        server.fault_rogue_fraction = 1.0
    return stack.start()


def test_rogue_379_not_trusted(world):
    """A 379 without the PartialPOST status message must fail the
    request with a standard 500, not enter the replay loop."""
    stack = _rogue_stack(world, app_servers=2)
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
    stack = _rogue_stack(world, app_servers=1)
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
    """§5.1: received UDP FDs that nobody reads stay alive in the ring
    and the packets hashed to them sit unprocessed on their queues."""
    stack = MiniStack(world, edge_config=ProxygenConfig(
        mode="edge", drain_duration=2.0, spawn_delay=0.3))
    edge = stack.edge
    edge.fault_ignore_udp_fds = True
    stack.start()
    done = stack.env.process(edge.release())
    stack.env.run(until=done)
    stack.env.run(until=stack.env.now + 4)   # old drained away

    sockets = edge.active_instance.udp_sockets["quic"]
    assert len(sockets) == UDP_SOCKETS_PER_VIP
    assert all(not sock.closed for sock in sockets)

    _quic_blast(stack)
    stack.env.run(until=stack.env.now + 3)
    assert sum(len(sock.inbox.items) for sock in sockets) > 0
    assert edge.counters.get("quic_conn_created") == 0
