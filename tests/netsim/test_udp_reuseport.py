"""UDP delivery and SO_REUSEPORT ring semantics (paper §4.1, Fig 2d)."""

import pytest

from repro.netsim import BindError, Endpoint, FourTuple, Protocol


def _bind_ring(host, process, port=443, count=4):
    """Bind `count` reuseport sockets on one endpoint (server threads)."""
    endpoint = Endpoint(host.ip, port)
    socks = []
    for _ in range(count):
        _, sock = host.kernel.udp_bind(process, endpoint, reuseport=True)
        socks.append(sock)
    return endpoint, socks


def test_udp_roundtrip(world):
    server = world.host("server")
    client = world.host("client")
    sproc, cproc = server.spawn("s"), client.spawn("c")
    endpoint, socks = _bind_ring(server, sproc, count=1)
    _, csock = client.kernel.udp_bind_ephemeral(cproc)
    got = []

    def srv():
        datagram = yield socks[0].recv()
        got.append(datagram.payload)
        socks[0].sendto("reply", datagram.flow.src)

    def cli():
        csock.sendto("hello", endpoint)
        reply = yield csock.recv()
        got.append(reply.payload)

    sproc.run(srv())
    cproc.run(cli())
    world.env.run(until=1)
    assert got == ["hello", "reply"]


def test_reuseport_hash_is_stable_for_flow(world):
    server = world.host("server")
    sproc = server.spawn("s")
    endpoint, socks = _bind_ring(server, sproc, count=4)
    ring = server.kernel.reuseport_ring(endpoint)
    flow = FourTuple(Protocol.UDP, Endpoint("1.2.3.4", 5555), endpoint)
    picks = {ring.pick(flow) for _ in range(20)}
    assert len(picks) == 1


def test_reuseport_spreads_flows(world):
    server = world.host("server")
    sproc = server.spawn("s")
    endpoint, socks = _bind_ring(server, sproc, count=4)
    ring = server.kernel.reuseport_ring(endpoint)
    picked = set()
    for port in range(2000, 2200):
        flow = FourTuple(Protocol.UDP, Endpoint("1.2.3.4", port), endpoint)
        picked.add(ring.pick(flow))
    assert len(picked) == 4  # all sockets get a share


def test_ring_flux_remaps_flows(world):
    """Adding/purging ring entries changes the hash mapping — the
    misrouting mechanism behind Figure 2d."""
    server = world.host("server")
    sproc = server.spawn("s")
    endpoint, old_socks = _bind_ring(server, sproc, count=4)
    ring = server.kernel.reuseport_ring(endpoint)

    flows = [FourTuple(Protocol.UDP, Endpoint("1.2.3.4", p), endpoint)
             for p in range(2000, 2400)]
    before = [ring.pick(f) for f in flows]

    # A naively restarting process binds its own 4 new sockets...
    nproc = server.spawn("new")
    _, new_socks = _bind_ring(server, nproc, count=4)
    during = [ring.pick(f) for f in flows]
    moved_during = sum(1 for b, d in zip(before, during) if b is not d)

    # ...then the old process closes, purging its entries.
    sproc.exit("restart")
    after = [ring.pick(f) for f in flows]
    landed_on_new = sum(1 for a in after if a in new_socks)

    assert moved_during > len(flows) * 0.3   # mapping substantially reshuffled
    assert landed_on_new == len(flows)       # all traffic on the new process
    assert ring.version >= 8


def test_fd_passing_keeps_ring_unchanged(world):
    """Dup-style FD passing leaves ring membership (and mapping) intact —
    why Socket Takeover does not misroute UDP."""
    server = world.host("server")
    old = server.spawn("old")
    endpoint, socks = _bind_ring(server, old, count=4)
    ring = server.kernel.reuseport_ring(endpoint)
    version_before = ring.version

    flows = [FourTuple(Protocol.UDP, Endpoint("9.9.9.9", p), endpoint)
             for p in range(3000, 3200)]
    before = [ring.pick(f) for f in flows]

    # Pass all FDs to the new process (install same descriptions)...
    new = server.spawn("new")
    for fd in list(old.fd_table.fds()):
        new.fd_table.install(old.fd_table.description(fd))
    # ...and the old process exits.
    old.exit("takeover restart")

    after = [ring.pick(f) for f in flows]
    assert before == after
    assert ring.version == version_before
    assert all(not s.closed for s in socks)


def test_exclusive_bind_conflicts(world):
    host = world.host("h")
    proc = host.spawn("p")
    endpoint = Endpoint(host.ip, 9000)
    host.kernel.udp_bind(proc, endpoint, reuseport=False)
    with pytest.raises(BindError):
        host.kernel.udp_bind(proc, endpoint, reuseport=True)
    with pytest.raises(BindError):
        host.kernel.udp_bind(proc, endpoint, reuseport=False)


def test_datagram_to_unbound_endpoint_dropped(world):
    server = world.host("server")
    client = world.host("client")
    cproc = client.spawn("c")
    _, csock = client.kernel.udp_bind_ephemeral(cproc)
    csock.sendto("into the void", Endpoint(server.ip, 9999))
    world.env.run(until=1)
    assert server.counters.get("udp_dropped_no_listener") == 1


def test_orphaned_socket_queues_grow(world):
    """The §5.1 leak: a socket whose FDs were passed but never read keeps
    receiving its hash share of packets, which sit unprocessed."""
    server = world.host("server")
    client = world.host("client")
    sproc, cproc = server.spawn("s"), client.spawn("c")
    endpoint, socks = _bind_ring(server, sproc, count=2)
    _, csock = client.kernel.udp_bind_ephemeral(cproc)

    for i in range(200):
        # Different source ports -> flows spread over both ring entries.
        _, sock_i = client.kernel.udp_bind_ephemeral(cproc)
        sock_i.sendto(f"pkt{i}", endpoint)
    world.env.run(until=1)
    assert all(len(s.inbox.items) > 0 for s in socks)
    assert sum(len(s.inbox.items) for s in socks) == 200


def test_closed_socket_share_is_dropped(world):
    """If a received FD is closed (but ring not rebuilt correctly in our
    model: entry removed), packets rehash to live sockets."""
    server = world.host("server")
    sproc = server.spawn("s")
    endpoint, socks = _bind_ring(server, sproc, count=2)
    ring = server.kernel.reuseport_ring(endpoint)
    # Close one of the two sockets via its fd.
    fd = sproc.fd_table.find_fd(socks[0])
    sproc.fd_table.close(fd)
    assert len(ring) == 1
    flow = FourTuple(Protocol.UDP, Endpoint("8.8.8.8", 1234), endpoint)
    assert ring.pick(flow) is socks[1]
