"""Kernel detail coverage: backlogs, ports, VIP addressing, counters."""

import pytest

from repro.netsim import (
    ConnectionRefusedSim,
    Endpoint,
    Protocol,
    with_timeout,
)
from repro.netsim import kernel as kernel_module


def test_ephemeral_ports_unique_per_host(world):
    host = world.host("h")
    ports = {host.kernel.ephemeral_port() for _ in range(500)}
    assert len(ports) == 500
    assert all(p > 40_000 for p in ports)


def test_accept_backlog_overflow_refuses(world, monkeypatch):
    monkeypatch.setattr(kernel_module, "ACCEPT_BACKLOG", 2)
    server = world.host("server")
    client = world.host("client")
    sproc = server.spawn("s")
    cproc = client.spawn("c")
    endpoint = Endpoint(server.ip, 443)
    _, listener = server.kernel.tcp_listen(sproc, endpoint)
    refused = []
    accepted = []

    def dial(i):
        try:
            conn = yield client.kernel.tcp_connect(cproc, endpoint)
            accepted.append(i)
        except ConnectionRefusedSim:
            refused.append(i)

    for i in range(5):  # nobody accepts; queue holds only 2
        cproc.run(dial(i))
    world.env.run(until=1)
    assert len(accepted) == 2
    assert len(refused) == 3
    assert server.counters.get(
        "tcp_rst_sent", tag="accept_queue_full") == 3
    assert listener.pending == 2


def test_vip_addressing_delivered_via_host(world):
    """A listener bound to a VIP ip answers SYNs delivered to the host."""
    server = world.host("server")
    client = world.host("client")
    sproc, cproc = server.spawn("s"), client.spawn("c")
    vip = Endpoint("100.99.0.1", 443)       # not the host's own ip
    _, listener = server.kernel.tcp_listen(sproc, vip)
    results = []

    def dial():
        conn = yield client.kernel.tcp_connect(cproc, vip,
                                               via_ip=server.ip)
        results.append(conn)

    cproc.run(dial())
    world.env.run(until=1)
    assert results
    assert results[0].remote == vip
    assert results[0].remote_host_ip == server.ip


def test_same_vip_on_two_hosts_independent(world):
    """Two hosts binding the same VIP (the cluster setting): each serves
    the SYNs routed to it."""
    a, b = world.host("a"), world.host("b")
    client = world.host("client")
    pa, pb, pc = a.spawn("pa"), b.spawn("pb"), client.spawn("pc")
    vip = Endpoint("100.99.0.2", 443)
    a.kernel.tcp_listen(pa, vip)
    b.kernel.tcp_listen(pb, vip)
    landed = []

    def dial(via, label):
        conn = yield client.kernel.tcp_connect(pc, vip, via_ip=via)
        landed.append((label, conn.remote_host_ip))

    pc.run(dial(a.ip, "a"))
    pc.run(dial(b.ip, "b"))
    world.env.run(until=1)
    assert ("a", a.ip) in landed
    assert ("b", b.ip) in landed


def test_syn_counters(world):
    server = world.host("server")
    client = world.host("client")
    sproc, cproc = server.spawn("s"), client.spawn("c")
    endpoint = Endpoint(server.ip, 443)
    _, listener = server.kernel.tcp_listen(sproc, endpoint)

    def dial():
        yield client.kernel.tcp_connect(cproc, endpoint)

    cproc.run(dial())
    world.env.run(until=1)
    assert client.counters.get("tcp_syn_sent") == 1
    assert server.counters.get("tcp_accepted") == 1
    assert server.counters.get("tcp_accepted_from",
                               tag="client") == 1


def test_udp_counters(world):
    server = world.host("server")
    client = world.host("client")
    sproc, cproc = server.spawn("s"), client.spawn("c")
    endpoint = Endpoint(server.ip, 443)
    server.kernel.udp_bind(sproc, endpoint, reuseport=True)
    _, csock = client.kernel.udp_bind_ephemeral(cproc)
    csock.sendto("x", endpoint)
    world.env.run(until=1)
    assert client.counters.get("udp_sent") == 1
    assert server.counters.get("udp_delivered") == 1


def test_double_close_of_fd_raises(world):
    from repro.netsim import SocketClosedSim
    host = world.host("h")
    proc = host.spawn("p")
    fd, _ = host.kernel.tcp_listen(proc, Endpoint(host.ip, 80))
    proc.fd_table.close(fd)
    with pytest.raises(SocketClosedSim):
        proc.fd_table.close(fd)


def test_send_on_reset_endpoint_raises(world):
    from repro.netsim import ConnectionResetSim
    server = world.host("server")
    client = world.host("client")
    sproc, cproc = server.spawn("s"), client.spawn("c")
    endpoint = Endpoint(server.ip, 443)
    _, listener = server.kernel.tcp_listen(sproc, endpoint)
    raised = []

    def server_logic():
        conn = yield listener.accept(sproc)
        conn.abort()

    def client_logic():
        conn = yield client.kernel.tcp_connect(cproc, endpoint)
        yield conn.recv()   # the RST
        try:
            conn.send("anyone there?")
        except ConnectionResetSim:
            raised.append(True)

    sproc.run(server_logic())
    cproc.run(client_logic())
    world.env.run(until=1)
    assert raised
