"""HTTP/2-lite: multiplexing, GOAWAY, transport failure propagation,
what a closed stream leaves behind (nothing in ``streams``), and who
demultiplexes frames when (the three ownership cases at the
end hold whoever runs the demux: a dispatcher process or the delivery
callback itself)."""

import pytest

from repro.netsim import Endpoint
from repro.protocols import FrameType, GoAwayError, H2Connection, H2Error
from repro.simkernel import Interrupt
from tests.proxygen.conftest import MiniStack


def _h2_pair(world):
    """Build a connected, started (client_conn, server_conn) H2 pair;
    returns (client_conn, server_conn, procs)."""
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
    world.env.run(until=0.1)
    return made["client"], made["server"], (cproc, sproc)


def test_stream_roundtrip(world):
    client, server, (cproc, sproc) = _h2_pair(world)
    log = []

    def server_logic():
        stream = yield server.accept_stream()
        frame = stream.inbox.try_get()
        log.append(("server", frame.payload))
        stream.send("response", end_stream=True)

    def client_logic():
        stream = client.open_stream()
        stream.send("request", frame_type=FrameType.HEADERS)
        sproc.run(server_logic())
        frame = yield stream.recv()
        log.append(("client", frame.payload))

    cproc.run(client_logic())
    world.env.run(until=1)
    assert ("server", "request") in log
    assert ("client", "response") in log


def test_stream_ids_have_role_parity(world):
    client, server, _ = _h2_pair(world)
    assert client.open_stream().id % 2 == 1
    assert client.open_stream().id % 2 == 1
    assert server.open_stream().id % 2 == 0


def test_concurrent_streams_multiplex(world):
    client, server, (cproc, sproc) = _h2_pair(world)
    received = []

    def server_logic():
        for _ in range(3):
            stream = yield server.accept_stream()
            frame = stream.inbox.try_get()
            received.append((stream.id, frame.payload))

    def client_logic():
        for i in range(3):
            stream = client.open_stream()
            stream.send(f"req-{i}", frame_type=FrameType.HEADERS)
        yield world.env.timeout(0.01)

    sproc.run(server_logic())
    cproc.run(client_logic())
    world.env.run(until=1)
    assert sorted(p for _, p in received) == ["req-0", "req-1", "req-2"]
    assert len({sid for sid, _ in received}) == 3


def test_goaway_blocks_new_streams(world):
    client, server, (cproc, sproc) = _h2_pair(world)
    server.send_goaway()
    world.env.run(until=0.2)
    assert client.goaway_received
    with pytest.raises(GoAwayError):
        client.open_stream()


def test_goaway_lets_inflight_streams_finish(world):
    client, server, (cproc, sproc) = _h2_pair(world)
    finished = []

    def server_logic():
        stream = yield server.accept_stream()
        server.send_goaway()           # drain: no NEW streams...
        stream.send("late reply", end_stream=True)  # ...old ones finish

    def client_logic():
        stream = client.open_stream()
        stream.send("long request", frame_type=FrameType.HEADERS)
        sproc.run(server_logic())
        frame = yield stream.recv()
        finished.append(frame.payload)

    cproc.run(client_logic())
    world.env.run(until=1)
    assert finished == ["late reply"]


def test_goaway_race_resets_new_stream(world):
    """A stream opened by the client while the server's GOAWAY is in
    flight gets RST_STREAM, not silent loss."""
    client, server, (cproc, sproc) = _h2_pair(world)
    outcomes = []

    def client_logic():
        stream = client.open_stream()   # GOAWAY not yet received
        stream.send("racing", frame_type=FrameType.HEADERS)
        frame = yield stream.recv()
        outcomes.append(frame.type)

    server.send_goaway()
    cproc.run(client_logic())
    world.env.run(until=1)
    assert outcomes == [FrameType.RST_STREAM]


def test_transport_death_resets_streams(world):
    client, server, (cproc, sproc) = _h2_pair(world)
    outcomes = []

    def client_logic():
        stream = client.open_stream()
        stream.send("hello", frame_type=FrameType.HEADERS)
        yield world.env.timeout(0.05)
        sproc.exit("hard restart")      # server process dies -> RST
        frame = yield stream.recv()
        outcomes.append((frame.type, client.broken))

    cproc.run(client_logic())
    world.env.run(until=1)
    assert outcomes == [(FrameType.RST_STREAM, True)]
    assert not client.alive


def test_send_on_broken_connection_raises(world):
    client, server, (cproc, sproc) = _h2_pair(world)

    def client_logic():
        yield world.env.timeout(0.05)
        sproc.exit("gone")
        yield world.env.timeout(0.05)
        with pytest.raises(H2Error):
            client.open_stream()

    cproc.run(client_logic())
    world.env.run(until=1)


def test_stream_end_stream_closes(world):
    client, server, (cproc, sproc) = _h2_pair(world)

    def flow():
        stream = client.open_stream()
        stream.send("only", end_stream=True)
        assert stream.local_closed
        with pytest.raises(H2Error):
            stream.send("more")
        yield world.env.timeout(0)

    cproc.run(flow())
    world.env.run(until=1)


# -- what a stream costs ---------------------------------------------------------


def test_a_frame_costs_its_delivery_and_a_new_stream_its_handler_too(world):
    """Event prices by ``env._eid`` delta (as ``tests/netsim/
    test_event_budget.py``): the delivery timeout is the reader's
    wake-up, so no event exists only to move a frame along."""
    client, server, (cproc, sproc) = _h2_pair(world)
    env = world.env
    accepted, seen = [], []

    def handler(stream):
        seen.append(stream.inbox.try_get().payload)
        while True:
            seen.append((yield stream.recv()).payload)

    def accept_loop():
        while True:
            stream = yield server.accept_stream()
            accepted.append(stream.id)
            sproc.run(handler(stream))

    sproc.run(accept_loop())
    env.run(until=0.2)  # the accept loop is parked

    before = env._eid
    stream = client.open_stream()
    stream.send("headers", frame_type=FrameType.HEADERS)
    env.step()  # the delivery timeout: the accept loop ran inside it
    assert accepted == [1] and seen == []
    env.run(until=0.3)
    assert seen == ["headers"]
    assert env._eid - before == 2  # the delivery, the handler's Initialize

    for payload in ("data-1", "data-2"):
        before = env._eid
        stream.send(payload)
        env.step()  # the delivery timeout: the handler ran inside it
        assert seen[-1] == payload
        env.run(until=env.now + 0.1)
        assert env._eid - before == 1


# -- what a closed stream leaves behind ------------------------------------------


def test_finished_exchanges_leave_no_stream_behind(world):
    client, server, (cproc, sproc) = _h2_pair(world)
    replies = []

    def accept_loop():
        while True:
            stream = yield server.accept_stream()
            request = stream.inbox.try_get()
            stream.send(f"re: {request.payload}", end_stream=True)

    def client_logic():
        for i in range(50):
            stream = client.open_stream()
            stream.send(f"req-{i}", frame_type=FrameType.HEADERS,
                        end_stream=True)
            replies.append((yield stream.recv()).payload)

    sproc.run(accept_loop())
    cproc.run(client_logic())
    world.env.run(until=2)
    assert replies == [f"re: req-{i}" for i in range(50)]
    assert client.streams == {} and server.streams == {}


def _closed(stream) -> bool:
    return (stream.local_closed and stream.remote_closed) or stream.reset


def _open_accepted(client, server, env):
    """One client stream with HEADERS sent, and the server's side of it."""
    stream = client.open_stream()
    stream.send("headers", frame_type=FrameType.HEADERS)
    env.run(until=env.now + 0.01)
    peer = server.incoming.try_get()
    assert peer.id == stream.id and peer.inbox.try_get().payload == "headers"
    return stream, peer


#: How the client's stream gets closed: (stream, peer) -> None steps.
CLOSING_PATHS = {
    "sent_then_received": (lambda s, p: s.send("last", end_stream=True),
                           lambda s, p: p.send("reply", end_stream=True)),
    "received_then_sent": (lambda s, p: p.send("reply", end_stream=True),
                           lambda s, p: s.send("last", end_stream=True)),
    "local_rst": (lambda s, p: s.rst(),),
    "peer_rst": (lambda s, p: p.rst(),),
}


@pytest.mark.parametrize("path", list(CLOSING_PATHS))
def test_each_closing_path_forgets_the_stream(world, path):
    """The client's stream leaves ``client.streams`` once the last step
    of its closing path has landed, and not before."""
    client, server, _ = _h2_pair(world)
    env = world.env
    stream, peer = _open_accepted(client, server, env)
    *first, last = CLOSING_PATHS[path]
    for step in first:
        step(stream, peer)
        env.run(until=env.now + 0.01)
        assert list(client.streams) == [stream.id] and not _closed(stream)
    last(stream, peer)
    env.run(until=env.now + 0.01)
    assert _closed(stream) and _closed(peer)
    assert client.streams == {} and server.streams == {}


def test_a_half_closed_stream_stays_until_its_other_half_closes(world):
    client, server, _ = _h2_pair(world)
    env = world.env
    stream, peer = _open_accepted(client, server, env)
    stream.send("last", end_stream=True)
    env.run(until=env.now + 1)
    assert stream.local_closed and peer.remote_closed
    assert client.streams == {stream.id: stream}
    assert server.streams == {peer.id: peer}
    assert client.open_stream_count() == server.open_stream_count() == 1

    peer.send("reply", end_stream=True)
    assert server.streams == {}         # both halves closed here and now
    env.run(until=env.now + 0.01)
    assert client.streams == {}
    assert stream.inbox.try_get().payload == "reply"  # still readable


@pytest.mark.parametrize("draining", [False, True])
def test_a_late_frame_for_a_forgotten_peer_stream_is_dropped(world, draining):
    """The server resets stream 1 while the client's DATA on it is in
    flight.  That DATA reaches a server that has forgotten the stream:
    it must not come back as a new stream (accept queue) nor, after
    GOAWAY, be refused with an RST_STREAM of its own."""
    client, server, _ = _h2_pair(world)
    env = world.env
    stream, peer = _open_accepted(client, server, env)
    if draining:
        server.send_goaway()
    peer.rst()
    stream.send("late body")            # crosses the RST_STREAM
    sent = server.endpoint.bytes_sent
    snapshot = world.metrics.snapshot()
    env.run(until=env.now + 0.1)
    assert stream.reset and client.streams == {}
    assert server.streams == {} and server.incoming.items == []
    assert server.endpoint.bytes_sent == sent
    assert world.metrics.snapshot() == snapshot


def test_transport_death_resets_exactly_the_open_streams_in_open_order(world):
    """Of five streams, 3 is reset and 5 finished both ways (forgotten);
    1 and 7 are open and 9 is half-closed.  The server dying resets 1, 7
    and 9, waking their readers in open order and the accept loop last,
    and leaves the closed streams' inboxes alone."""
    client, server, (cproc, sproc) = _h2_pair(world)
    env = world.env
    streams = {}
    for _ in range(5):
        stream, peer = _open_accepted(client, server, env)
        streams[stream.id] = (stream, peer)
    streams[3][0].rst()
    streams[5][0].send("last", end_stream=True)
    streams[5][1].send("reply", end_stream=True)
    streams[9][0].send("last", end_stream=True)
    env.run(until=env.now + 0.01)
    assert list(client.streams) == [1, 7, 9]
    woke = []

    def reader(stream):
        woke.append((stream.id, (yield stream.recv()).type))

    def accept_loop():
        woke.append(("accept", (yield client.accept_stream())))

    cproc.run(accept_loop())
    for stream_id in (9, 7, 1):         # parked in reverse: order is open order
        cproc.run(reader(client.streams[stream_id]))
    env.run(until=env.now + 0.01)
    sproc.exit("killed")
    env.run(until=env.now + 0.1)
    assert woke == [(1, FrameType.RST_STREAM), (7, FrameType.RST_STREAM),
                    (9, FrameType.RST_STREAM), ("accept", None)]
    assert client.broken and client.streams == {}
    assert all(streams[i][0].reset for i in (1, 7, 9))
    assert streams[3][0].inbox.items == []
    assert [f.payload for f in streams[5][0].inbox.items] == ["reply"]


# -- who owns the demux ---------------------------------------------------------


def test_demux_dies_with_its_owning_process(world):
    """The owning OS process exits with a stream open: the exit breaks
    the session and forgets the stream without waking its reader (an
    interrupted task of that process) or resetting it; data that was in
    flight is answered by the socket layer (RST), and the FIN behind it
    reaches nobody — no handler is resumed and nothing is scheduled."""
    client, server, (cproc, sproc) = _h2_pair(world)
    env = world.env
    log = []

    def handler(stream):
        stream.inbox.try_get()
        try:
            log.append((yield stream.recv()).type)
        except Interrupt:
            log.append("interrupted")

    def accept_loop():
        while True:
            sproc.run(handler((yield server.accept_stream())))

    sproc.run(accept_loop())
    stream = client.open_stream()
    stream.send("request", frame_type=FrameType.HEADERS)
    env.run(until=0.2)
    (server_stream,) = server.streams.values()

    sproc.exit("killed")                # t=0.2; its RST lands at 0.201
    assert server.broken and server.streams == {}
    assert server.endpoint.inbox_deliver != server._demux
    env.run(until=0.2005)
    assert log == ["interrupted"]
    stream.send("body")                 # both land at the dead process
    client.close()
    env.run(until=0.2012)               # the client side has settled
    assert client.broken
    rst_sent = server.endpoint.kernel.host.counters
    assert rst_sent.get("tcp_rst_sent", tag="data_after_close") == 0
    scheduled = env._eid

    env.run(until=1)
    assert rst_sent.get("tcp_rst_sent", tag="data_after_close") == 1
    assert env._eid == scheduled
    assert log == ["interrupted"]
    assert not server_stream.reset and server_stream.inbox.items == []


def test_peer_fin_after_local_close_still_ends_the_connection(
        world, quiet_brokers):
    """``close()`` is the socket's, not the demux's: with the process
    alive, the peer's FIN still breaks the connection, resets its open
    streams and ends the accept loop."""
    stack = MiniStack(world).start()
    env = stack.env
    edge, origin = stack.edge.active_instance, stack.origin.active_instance
    opened = []

    def flow():
        stream = yield from edge.upstream.open_stream()
        stream.send("opaque", frame_type=FrameType.HEADERS)
        opened.append(stream)

    edge.process.run(flow())
    env.run(until=env.now + 0.5)
    (h2,) = origin.edge_h2_conns
    (origin_stream,) = h2.streams.values()
    assert not _closed(origin_stream)

    h2.close()
    env.run(until=env.now + 0.5)
    assert origin.process.alive and not h2.alive and not h2.broken
    assert origin.edge_h2_conns == [h2]     # the loop is parked in accept

    opened[0].conn.close()
    env.run(until=env.now + 0.5)
    assert h2.broken and origin_stream.reset
    assert origin_stream.inbox.items[-1].type == FrameType.RST_STREAM
    assert origin.edge_h2_conns == []


@pytest.mark.parametrize("draining", [False, True])
def test_frames_queued_before_start_wait_for_the_caller(world, draining):
    """Frames that reached the socket before ``start()`` are handled
    after the caller's remaining code, at the same instant, in arrival
    order — so ``start()`` + ``send_goaway()`` still refuses them."""
    env = world.env
    server_host, client_host = world.host("server"), world.host("client")
    sproc, cproc = server_host.spawn("s"), client_host.spawn("c")
    endpoint = Endpoint(server_host.ip, 443)
    _, listener = server_host.kernel.tcp_listen(sproc, endpoint)
    log, refused = [], []

    def server():
        conn = yield listener.accept(sproc)
        yield env.timeout(0.05)             # accept costs; frames queue
        assert len(conn.inbox.items) == 2
        h2 = H2Connection(conn, role="server")
        h2.start(sproc)
        if draining:
            h2.send_goaway()
        log.append(("caller done", len(h2.streams), env.now))
        while True:
            stream = yield h2.accept_stream()
            log.append((stream.id, stream.inbox.try_get().payload, env.now))

    def reader(stream):
        refused.append((stream.id, (yield stream.recv()).type))

    def client():
        conn = yield client_host.kernel.tcp_connect(cproc, endpoint)
        h2 = H2Connection(conn, role="client")
        h2.start(cproc)
        for payload in ("first", "second"):
            stream = h2.open_stream()
            stream.send(payload, frame_type=FrameType.HEADERS)
            cproc.run(reader(stream))

    sproc.run(server())
    cproc.run(client())
    env.run(until=1)
    started = log[0][2]
    if draining:
        assert log == [("caller done", 0, started)]
        assert refused == [(1, FrameType.RST_STREAM),
                           (3, FrameType.RST_STREAM)]
    else:
        assert log == [("caller done", 0, started),
                       (1, "first", started), (3, "second", started)]
        assert refused == []


# -- what an accepted stream holds -----------------------------------------------


@pytest.mark.parametrize("parked", [True, False])
def test_an_accepted_stream_already_holds_its_opening_frame(world, parked):
    """``_demux`` delivers a new peer stream's opening frame before it
    wakes ``accept_stream``, whether the acceptor is parked there or
    comes later: the Origin's accept loop takes that frame with
    ``try_get`` and never waits for it."""
    client, server, (cproc, sproc) = _h2_pair(world)
    env = world.env
    held = []

    def acceptor():
        if not parked:
            yield env.timeout(0.5)          # both streams queue meanwhile
        for _ in range(2):
            stream = yield server.accept_stream()
            held.append((stream.id,
                         [frame.payload for frame in stream.inbox.items]))

    sproc.run(acceptor())
    env.run(until=0.2)
    for payload in ("first", "second"):
        client.open_stream().send(payload, frame_type=FrameType.HEADERS)
    env.run(until=1)
    assert held == [(1, ["first"]), (3, ["second"])]


def test_a_peer_stream_opened_by_rst_stream_gets_no_origin_handler(
        world, quiet_brokers, monkeypatch):
    """A stream whose first frame is RST_STREAM is accepted (its id is
    used up) and reset at once: the Origin's accept loop starts nothing
    for it, and no counter moves."""
    stack = MiniStack(world).start()
    env = stack.env
    edge, origin = stack.edge.active_instance, stack.origin.active_instance
    spawned = []
    run = origin.process.run

    def recording_run(generator):
        spawned.append(generator.__name__)
        return run(generator)

    monkeypatch.setattr(origin.process, "run", recording_run)

    def reset_at_once():
        stream = yield from edge.upstream.open_stream()
        stream.rst()

    # Dials: the connection's task, and the one-shot task for the RST
    # that reached its socket during the accept cost.
    edge.process.run(reset_at_once())
    env.run(until=env.now + 0.5)
    assert spawned == ["_serve_origin_conn", "_demux_backlog"]
    (h2,) = origin.edge_h2_conns
    assert h2._highest_peer_stream == 1 and h2.streams == {}
    spawned.clear()
    counters = world.metrics.snapshot()
    del counters["series"], counters["quantiles"]

    edge.process.run(reset_at_once())       # the connection is up
    env.run(until=env.now + 0.5)
    assert spawned == []
    assert h2._highest_peer_stream == 3 and h2.streams == {}
    after = world.metrics.snapshot()
    del after["series"], after["quantiles"]
    assert after == counters
