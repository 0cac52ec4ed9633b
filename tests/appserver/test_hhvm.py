"""App server: serving, draining, restarts, PPR server side."""

import pytest

from repro.appserver import AppServer, AppServerConfig
from repro.netsim import ControlType, Endpoint, StreamControl
from repro.protocols import (
    BodyChunk,
    HttpRequest,
    HttpResponse,
    PARTIAL_POST_STATUS_MESSAGE,
    STATUS_OK,
    STATUS_PARTIAL_POST_REPLAY,
)


def make_server(world, **config_kwargs):
    host = world.host("app")
    config = AppServerConfig(**config_kwargs)
    server = AppServer(host, config)
    server.start()
    return host, server


def connect(world, server, name="proxy"):
    client_host = world.host(name)
    proc = client_host.spawn(name)
    result = {}

    def dial():
        result["conn"] = yield client_host.kernel.tcp_connect(
            proc, server.endpoint)

    proc.run(dial())
    world.env.run(until=world.env.now + 0.5)
    return client_host, proc, result["conn"]


def test_short_request_served(world):
    host, server = make_server(world)
    client_host, proc, conn = connect(world, server)
    got = []

    def flow():
        conn.send(HttpRequest("GET", "/api", id=1), size=300)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 2)
    assert got and got[0].status == STATUS_OK
    assert server.counters.get("requests_served") == 1


def test_streaming_post_completes(world):
    host, server = make_server(world)
    client_host, proc, conn = connect(world, server)
    got = []

    def flow():
        request = HttpRequest("POST", "/up", body_size=3000, streaming=True,
                              id=1)
        conn.send(request, size=300)
        for seq in range(1, 4):
            conn.send(BodyChunk(request.id, 1000, seq, is_last=(seq == 3)),
                      size=1000)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 2)
    assert got and got[0].status == STATUS_OK
    assert server.counters.get("posts_completed") == 1
    assert not server.in_flight_posts


def test_incomplete_replay_rejected_with_400(world):
    """A 'replay' that claims is_last without covering body_size is a
    proxy bug; the server must not silently 200 it."""
    host, server = make_server(world)
    client_host, proc, conn = connect(world, server)
    got = []

    def flow():
        request = HttpRequest("POST", "/up", body_size=5000, streaming=True,
                              id=1)
        conn.send(request, size=300)
        conn.send(BodyChunk(request.id, 1000, 1, is_last=True), size=1000)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 2)
    assert got and got[0].status == 400
    assert server.counters.get("posts_incomplete") == 1


@pytest.mark.parametrize("end_drain", ["restart", "decommission"])
def test_body_complete_post_is_answered_before_the_old_process_exits(
        world, end_drain):
    """The side effect of a body-complete POST already ran, so at drain
    end it must get its 200 — not a 379 (the replay would apply it
    twice) and not a bare reset."""
    host, server = make_server(world, drain_duration=1.0,
                               restart_downtime=1.0, enable_ppr=True)
    client_host, proc, conn = connect(world, server)
    got = []

    def flow():
        request = HttpRequest("POST", "/up", body_size=2000,
                              streaming=True, version="2", id=1)
        conn.send(request, size=300)
        conn.send(BodyChunk(request.id, 1000, 1), size=1000)
        world.env.process(getattr(server, end_drain)())
        # The last chunk lands ~4 ms before the 1 s drain ends, so the
        # 10 ms http_request charge ahead of the 200 straddles it.
        yield world.env.timeout(1.0 - 0.005)
        conn.send(BodyChunk(request.id, 1000, 2, is_last=True), size=1000)
        item = yield conn.recv()
        got.append(item if isinstance(item, StreamControl)
                   else item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 4)
    assert isinstance(got[0], HttpResponse) and got[0].status == STATUS_OK
    assert server.counters.get("posts_completed") == 1
    assert server.counters.get("http_status", tag="379") == 0
    assert not server.in_flight_posts


def test_restart_sends_379_for_inflight_posts(world):
    host, server = make_server(world, drain_duration=1.0,
                               restart_downtime=1.0, enable_ppr=True)
    client_host, proc, conn = connect(world, server)
    got = []

    def flow():
        request = HttpRequest("POST", "/up", body_size=10_000_000,
                              streaming=True, version="2", id=1)
        conn.send(request, size=300)
        conn.send(BodyChunk(request.id, 5000, 1), size=5000)
        conn.send(BodyChunk(request.id, 5000, 2), size=5000)
        yield world.env.timeout(0.5)
        world.env.process(server.restart())
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 6)
    response = got[0]
    assert response.status == STATUS_PARTIAL_POST_REPLAY
    assert response.status_message == PARTIAL_POST_STATUS_MESSAGE
    assert response.partial_body_size == 10_000
    assert response.partial_chunks == 2
    assert server.counters.get("ppr_bytes_echoed") == 10_000


def test_restart_sends_500_without_ppr(world):
    host, server = make_server(world, drain_duration=1.0,
                               restart_downtime=1.0, enable_ppr=False)
    client_host, proc, conn = connect(world, server)
    got = []

    def flow():
        request = HttpRequest("POST", "/up", body_size=10_000_000,
                              streaming=True, id=1)
        conn.send(request, size=300)
        conn.send(BodyChunk(request.id, 5000, 1), size=5000)
        yield world.env.timeout(0.5)
        world.env.process(server.restart())
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 6)
    assert got[0].status == 500


def test_restart_cycle_and_downtime(world):
    host, server = make_server(world, drain_duration=1.0,
                               restart_downtime=2.0)
    assert server.accepting
    start = world.env.now
    world.env.process(server.restart())
    world.env.run(until=start + 0.5)
    assert server.state == AppServer.STATE_DRAINING
    assert not server.accepting
    world.env.run(until=start + 2.0)
    assert server.state == AppServer.STATE_DOWN
    world.env.run(until=start + 5.0)
    assert server.state == AppServer.STATE_ACTIVE
    assert server.generation == 2
    assert server.counters.get("restart_finished") == 1


def test_connects_refused_while_down(world):
    host, server = make_server(world, drain_duration=0.5,
                               restart_downtime=3.0)
    world.env.process(server.restart())
    world.env.run(until=world.env.now + 1.0)  # draining/down window
    client_host = world.host("late-proxy")
    proc = client_host.spawn("p")
    refused = []

    def dial():
        from repro.netsim import ConnectionRefusedSim
        try:
            yield client_host.kernel.tcp_connect(proc, server.endpoint)
        except ConnectionRefusedSim:
            refused.append(True)

    proc.run(dial())
    world.env.run(until=world.env.now + 1.0)
    assert refused


def test_restart_noop_when_not_active(world):
    host, server = make_server(world, drain_duration=0.5,
                               restart_downtime=1.0)
    world.env.process(server.restart())
    world.env.run(until=world.env.now + 0.2)
    generation = server.generation
    # Second restart while draining: must be a no-op.
    world.env.process(server.restart())
    world.env.run(until=world.env.now + 8)
    assert server.generation == generation + 1


def test_priming_memory_spike_during_restart(world):
    host, server = make_server(world, drain_duration=0.5,
                               restart_downtime=2.0)
    baseline = host.memory_usage()
    world.env.process(server.restart())
    world.env.run(until=world.env.now + 1.0)  # inside priming window
    assert host.memory_usage() > baseline
    world.env.run(until=world.env.now + 5)
    assert host.memory_usage() == pytest.approx(baseline)
