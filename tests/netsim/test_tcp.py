"""TCP connect / data / close / reset semantics."""

import pytest

from repro.netsim import (
    ConnectionRefusedSim,
    ControlType,
    Endpoint,
    StreamControl,
    StreamMessage,
)
from repro.netsim.proc_utils import TIMED_OUT, with_timeout


def _listen(world, host, process, port=443):
    endpoint = Endpoint(host.ip, port)
    fd, listener = host.kernel.tcp_listen(process, endpoint)
    return endpoint, fd, listener


def test_connect_and_exchange(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, _, listener = _listen(world, server_host, server_proc)
    log = []

    def server():
        conn = yield listener.accept(server_proc)
        message = yield conn.recv()
        log.append(("server_got", message.payload))
        conn.send("pong", size=50)

    def client():
        conn = yield client_host.kernel.tcp_connect(client_proc, endpoint)
        conn.send("ping", size=50)
        reply = yield conn.recv()
        log.append(("client_got", reply.payload))

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=1)
    assert ("server_got", "ping") in log
    assert ("client_got", "pong") in log


def test_connect_refused_when_no_listener(world):
    server_host = world.host("server")
    client_host = world.host("client")
    client_proc = client_host.spawn("cli")
    refused = []

    def client():
        try:
            yield client_host.kernel.tcp_connect(
                client_proc, Endpoint(server_host.ip, 443))
        except ConnectionRefusedSim:
            refused.append(world.env.now)

    client_proc.run(client())
    world.env.run(until=1)
    assert refused


def test_connect_refused_while_draining(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    _, _, listener = _listen(world, server_host, server_proc)
    listener.pause_accepting()
    refused = []

    def client():
        try:
            yield client_host.kernel.tcp_connect(
                client_proc, Endpoint(server_host.ip, 443))
        except ConnectionRefusedSim:
            refused.append(True)

    client_proc.run(client())
    world.env.run(until=1)
    assert refused
    assert server_host.counters.get("tcp_rst_sent", tag="syn_while_draining") == 1


def test_connect_to_unknown_host_fails(world):
    client_host = world.host("client")
    client_proc = client_host.spawn("cli")
    refused = []

    def client():
        try:
            yield client_host.kernel.tcp_connect(
                client_proc, Endpoint("10.99.99.99", 80))
        except ConnectionRefusedSim:
            refused.append(True)

    client_proc.run(client())
    world.env.run(until=1)
    assert refused


def test_graceful_close_delivers_fin(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, _, listener = _listen(world, server_host, server_proc)
    got = []

    def server():
        conn = yield listener.accept(server_proc)
        item = yield conn.recv()
        got.append(item)

    def client():
        conn = yield client_host.kernel.tcp_connect(client_proc, endpoint)
        conn.close()

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=1)
    assert isinstance(got[0], StreamControl)
    assert got[0].kind == ControlType.FIN


def test_process_exit_resets_connections(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, _, listener = _listen(world, server_host, server_proc)
    got = []

    def server():
        conn = yield listener.accept(server_proc)
        yield conn.recv()

    def client():
        conn = yield client_host.kernel.tcp_connect(client_proc, endpoint)
        yield world.env.timeout(0.1)
        server_proc.exit("hard restart")
        item = yield conn.recv()
        got.append(item)

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=1)
    assert isinstance(got[0], StreamControl)
    assert got[0].kind == ControlType.RST
    assert server_host.counters.get("tcp_rst_sent", tag="process_exit") >= 1


def test_listener_close_resets_pending_accepts(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, fd, listener = _listen(world, server_host, server_proc)
    got = []

    def client():
        conn = yield client_host.kernel.tcp_connect(client_proc, endpoint)
        # Connection sits in the accept queue; nobody ever accepts it.
        yield world.env.timeout(0.05)
        server_proc.fd_table.close(fd)  # last reference -> reset queue
        item = yield conn.recv()
        got.append(item)

    client_proc.run(client())
    world.env.run(until=1)
    assert got and got[0].kind == ControlType.RST
    assert listener.closed


def test_data_after_close_triggers_rst(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, _, listener = _listen(world, server_host, server_proc)
    got = []

    def server():
        conn = yield listener.accept(server_proc)
        conn.close()

    def client():
        conn = yield client_host.kernel.tcp_connect(client_proc, endpoint)
        yield world.env.timeout(0.1)   # let the server close
        item = yield conn.recv()       # FIN
        assert item.kind == ControlType.FIN
        conn.send("more data")
        item = yield conn.recv()       # RST in response to our data
        got.append(item)

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=1)
    assert got and got[0].kind == ControlType.RST


def test_accept_assigns_ownership(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, _, listener = _listen(world, server_host, server_proc)
    conns = []

    def server():
        conn = yield listener.accept(server_proc)
        conns.append(conn)
        yield world.env.timeout(10)

    def client():
        yield client_host.kernel.tcp_connect(client_proc, endpoint)

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=1)
    assert conns[0].owner is server_proc
    assert server_proc.connection_count == 1


def test_accept_under_a_deadline_that_wins(world):
    """The deadline succeeds the accept with ``TIMED_OUT``, which is
    not an endpoint to adopt; the connection that arrives afterwards
    belongs to the next ``accept``."""
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, _, listener = _listen(world, server_host, server_proc)
    outcomes = []

    def server():
        outcomes.append((yield from with_timeout(
            world.env, listener.accept(server_proc), 1.0)))
        outcomes.append((yield from with_timeout(
            world.env, listener.accept(server_proc), 5.0)))

    def client():
        yield world.env.timeout(2.0)
        yield client_host.kernel.tcp_connect(client_proc, endpoint)

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=10)
    assert outcomes[0] is TIMED_OUT
    assert outcomes[1].owner is server_proc
    assert server_proc.connection_count == 1
    assert listener.pending == 0


def test_accept_under_a_deadline_the_connection_wins(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint, _, listener = _listen(world, server_host, server_proc)
    owners = []

    def server():
        conn = yield from with_timeout(
            world.env, listener.accept(server_proc), 5.0)
        # Adopted before the acceptor resumed, not some time after.
        owners.append((conn.owner, server_proc.connection_count))

    def client():
        yield client_host.kernel.tcp_connect(client_proc, endpoint)

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=10)
    assert owners == [(server_proc, 1)]


def test_messages_carry_sizes_and_latency(world):
    # Bandwidth-limited link: a big message takes visibly longer.
    from repro.netsim import LinkProfile
    world.network.add_profile("slow", "slow", LinkProfile(
        latency=0.01, bandwidth=1_000_000))
    a = world.host("a", site="slow")
    b = world.host("b", site="slow")
    pa, pb = a.spawn("pa"), b.spawn("pb")
    endpoint, _, listener = _listen(world, b, pb, port=80)
    arrivals = []

    def server():
        conn = yield listener.accept(pb)
        yield conn.recv()
        arrivals.append(world.env.now)
        yield conn.recv()
        arrivals.append(world.env.now)

    def client():
        conn = yield a.kernel.tcp_connect(pa, endpoint)
        conn.send("small", size=100)
        conn.send("big", size=2_000_000)  # 2s of serialization at 1MB/s

    pb.run(server())
    pa.run(client())
    world.env.run(until=10)
    assert len(arrivals) == 2
    assert arrivals[1] - arrivals[0] > 1.5


def test_bind_conflict_rejected(world):
    host = world.host("server")
    proc = host.spawn("srv")
    endpoint = Endpoint(host.ip, 443)
    host.kernel.tcp_listen(proc, endpoint)
    from repro.netsim import BindError
    with pytest.raises(BindError):
        host.kernel.tcp_listen(proc, endpoint)


def test_rebind_allowed_after_close(world):
    host = world.host("server")
    proc = host.spawn("srv")
    endpoint = Endpoint(host.ip, 443)
    fd, _ = host.kernel.tcp_listen(proc, endpoint)
    proc.fd_table.close(fd)
    host.kernel.tcp_listen(proc, endpoint)  # must not raise
