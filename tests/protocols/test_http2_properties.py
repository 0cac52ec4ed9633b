"""Property-style tests over HTTP/2 stream management."""

import pytest

from repro.netsim import Endpoint
from repro.protocols import FrameType, H2Connection


def _pair(world):
    server_host = world.host("server")
    client_host = world.host("client")
    sproc, cproc = server_host.spawn("s"), client_host.spawn("c")
    endpoint = Endpoint(server_host.ip, 443)
    _, listener = server_host.kernel.tcp_listen(sproc, endpoint)
    made = {}

    def server():
        conn = yield listener.accept(sproc)
        h2 = H2Connection(conn, role="server")
        h2.start(sproc)
        made["server"] = h2

    def client():
        conn = yield client_host.kernel.tcp_connect(cproc, endpoint)
        h2 = H2Connection(conn, role="client")
        h2.start(cproc)
        made["client"] = h2

    sproc.run(server())
    cproc.run(client())
    world.env.run(until=0.2)
    return made["client"], made["server"], cproc, sproc


def test_stream_ids_strictly_increasing_and_unique(world):
    client, server, *_ = _pair(world)
    ids = [client.open_stream().id for _ in range(50)]
    assert ids == sorted(ids)
    assert len(set(ids)) == 50
    assert all(i % 2 == 1 for i in ids)


def test_many_interleaved_streams_route_correctly(world):
    client, server, cproc, sproc = _pair(world)
    received: dict[int, list] = {}

    def server_logic():
        while True:
            stream = yield server.accept_stream()
            sproc.run(echo(stream))

    def echo(stream):
        while not (stream.local_closed and stream.remote_closed
                   or stream.reset):
            frame = yield stream.recv()
            if frame.type == FrameType.RST_STREAM:
                return
            received.setdefault(stream.id, []).append(frame.payload)
            if frame.end_stream:
                return

    def client_logic():
        streams = [client.open_stream() for _ in range(10)]
        # Interleave: round-robin three messages onto each stream.
        for round_number in range(3):
            for i, stream in enumerate(streams):
                stream.send((i, round_number),
                            end_stream=(round_number == 2))
        yield world.env.timeout(0.1)

    sproc.run(server_logic())
    cproc.run(client_logic())
    world.env.run(until=1)
    assert len(received) == 10
    for sid, messages in received.items():
        rounds = [r for _, r in messages]
        assert rounds == [0, 1, 2]        # per-stream order preserved
        assert len({i for i, _ in messages}) == 1  # no cross-talk


def test_open_stream_count_tracks_lifecycle(world):
    client, server, cproc, sproc = _pair(world)
    s1 = client.open_stream()
    s2 = client.open_stream()
    assert client.open_stream_count() == 2
    s1.send("done", end_stream=True)
    s1.remote_closed = True  # peer also finished
    assert client.open_stream_count() == 1
    s2.rst()
    assert client.open_stream_count() == 0


def test_goaway_idempotent(world):
    client, server, *_ = _pair(world)
    server.send_goaway()
    server.send_goaway()   # must not raise or double-send
    world.env.run(until=0.5)
    assert client.goaway_received
