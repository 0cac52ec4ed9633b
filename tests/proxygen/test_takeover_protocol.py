"""Message-level tests of the takeover protocol (error paths included)."""

import pytest

from repro.proxygen import ProxygenConfig, SocketMeta
from repro.proxygen.instance import UDP_SOCKETS_PER_VIP
from repro.proxygen.takeover import run_takeover_client
from .conftest import MiniStack


def test_fd_bundle_contains_all_vips(world):
    stack = MiniStack(world).start()
    edge_instance = stack.edge.active_instance
    host = stack.edge_host
    requester = host.spawn("requester")
    results = []

    def flow():
        result = yield from run_takeover_client_for(requester)
        results.append(result)

    def run_takeover_client_for(process):
        # Borrow a throw-away instance shell just for the client call.
        class Shim:
            pass
        shim = Shim()
        shim.host = host
        shim.process = process
        shim.config = edge_instance.config
        return run_takeover_client(shim)

    requester.run(flow())
    world.env.run(until=world.env.now + 1)
    result = results[0]
    # 2 TCP listeners (https + mqtt), 4 UDP sockets for the quic VIP.
    assert set(result.tcp_listener_fds) == {"https", "mqtt"}
    assert set(result.udp_socket_fds) == {"quic"}
    assert len(result.udp_socket_fds["quic"]) == UDP_SOCKETS_PER_VIP
    assert result.old_forward_port == edge_instance.forward_port
    assert result.drain_confirmed
    # The old instance is draining now (the shim "took over").
    assert edge_instance.state == edge_instance.STATE_DRAINING


def test_bad_request_type_rejected(world):
    stack = MiniStack(world).start()
    host = stack.edge_host
    requester = host.spawn("requester")
    replies = []

    def flow():
        channel = yield host.unix_connect(
            requester, stack.edge.config.takeover_path)
        channel.send({"type": "gimme sockets plz"})
        payload, fds = yield channel.recv()
        replies.append((payload, fds))

    requester.run(flow())
    world.env.run(until=world.env.now + 1)
    payload, fds = replies[0]
    assert payload["type"] == "error"
    assert fds == []
    # The serving instance must NOT have started draining.
    assert stack.edge.active_instance.state == "active"


def test_missing_confirm_does_not_drain(world):
    stack = MiniStack(world).start()
    host = stack.edge_host
    requester = host.spawn("requester")
    replies = []

    def flow():
        channel = yield host.unix_connect(
            requester, stack.edge.config.takeover_path)
        channel.send({"type": "request_fds"})
        payload, fds = yield channel.recv()
        replies.append((payload, fds))
        channel.send({"type": "whoops"})   # not a confirm
        payload, _ = yield channel.recv()
        replies.append((payload, []))

    requester.run(flow())
    world.env.run(until=world.env.now + 1)
    assert replies[0][0]["type"] == "fds"
    assert len(replies[0][1]) == 6          # 2 tcp + 4 udp
    assert replies[1][0]["type"] == "error"
    assert stack.edge.active_instance.state == "active"
    # But the requester now holds references (the leak §5.1 warns about
    # if it never closes them).
    assert len(requester.fd_table) == 6


def test_socket_meta_is_ordered_with_fds(world):
    stack = MiniStack(world).start()
    host = stack.edge_host
    requester = host.spawn("requester")
    seen = {}

    def flow():
        channel = yield host.unix_connect(
            requester, stack.edge.config.takeover_path)
        channel.send({"type": "request_fds"})
        payload, fds = yield channel.recv()
        seen["meta"] = payload["meta"]
        seen["fds"] = fds
        channel.send({"type": "confirm"})
        yield channel.recv()

    requester.run(flow())
    world.env.run(until=world.env.now + 1)
    meta = seen["meta"]
    fds = seen["fds"]
    assert len(meta) == len(fds)
    assert all(isinstance(m, SocketMeta) for m in meta)
    for entry, fd in zip(meta, fds):
        resource = requester.fd_table.resource(fd)
        if entry.protocol == "tcp":
            assert resource.endpoint.port in (443, 8883)
        else:
            assert resource.reuseport
