"""Edge/Origin serving paths through the hand-wired mini-stack."""

import pytest

from repro.netsim import with_timeout
from repro.protocols import (
    BodyChunk,
    HttpRequest,
    MqttConnAck,
    MqttConnect,
    MqttPublish,
    STATUS_OK,
    TlsClientHello,
    TlsServerDone,
)


def test_cacheable_request_served_at_edge(stack):
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        conn.send(HttpRequest("GET", "/static/logo",
                              headers={"cacheable": "1"}, id=1), size=300)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    stack.env.run(until=stack.env.now + 2)
    assert got[0].status == STATUS_OK
    # Never reached the app servers.
    assert all(s.counters.get("requests_served") == 0
               for s in stack.app_servers)
    assert stack.edge.counters.get("http_status", tag="200") == 1


def test_dynamic_request_forwarded_to_app(stack):
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        conn.send(HttpRequest("GET", "/api/feed", id=1), size=300)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    stack.env.run(until=stack.env.now + 3)
    assert got[0].status == STATUS_OK
    assert sum(s.counters.get("requests_served")
               for s in stack.app_servers) == 1
    assert stack.origin.counters.get("rps") == 1


def test_tls_then_request(stack):
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        conn.send(TlsClientHello(), size=320)
        hello = yield conn.recv()
        got.append(hello.payload)
        conn.send(HttpRequest("GET", "/x", headers={"cacheable": "1"},
                              id=1),
                  size=300)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    stack.env.run(until=stack.env.now + 2)
    assert isinstance(got[0], TlsServerDone)
    assert got[1].status == STATUS_OK
    assert stack.edge.counters.get("tls_handshakes") == 1


def test_streaming_post_end_to_end(stack):
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        request = HttpRequest("POST", "/upload", body_size=3000,
                              streaming=True, id=1)
        conn.send(request, size=300)
        for seq in (1, 2, 3):
            conn.send(BodyChunk(request.id, 1000, seq, is_last=(seq == 3)),
                      size=1000)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    stack.env.run(until=stack.env.now + 3)
    assert got[0].status == STATUS_OK
    assert stack.origin.counters.get("post_completed") == 1


def test_mqtt_tunnel_end_to_end(stack):
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_mqtt,
                                             via_ip=stack.edge_host.ip)
        conn.send(MqttConnect(user_id=77), size=120)
        item = yield conn.recv()
        got.append(item.payload)
        conn.send(MqttPublish(user_id=77, topic="t", seq=1), size=60)
        yield stack.env.timeout(1)

    proc.run(flow())
    stack.env.run(until=stack.env.now + 3)
    assert isinstance(got[0], MqttConnAck)
    assert 77 in stack.broker.sessions
    assert stack.broker.counters.get("publish_received") == 1
    assert stack.edge.counters.get("mqtt_publish_relayed_up") == 1
    assert 77 in stack.edge.active_instance.mqtt_tunnels
    assert 77 in stack.origin.active_instance.mqtt_tunnels


def test_request_with_all_apps_down_gets_500(stack):
    for server in stack.app_servers:
        server.listener.pause_accepting()
        server.state = server.STATE_DRAINING
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
    assert got[0].status == 500
    assert stack.origin.counters.get("client_error", tag="stream_abort") == 1


def test_app_restart_midrequest_retried_transparently(stack):
    """A short GET hitting a hard-dying app server is retried on another
    (idempotent requests are safe to retry)."""
    host, proc = stack.client()
    got = []

    def killer():
        yield stack.env.timeout(0.35)
        # Kill every app process hard, then revive one instantly.
        victim = stack.app_servers[0]
        victim.process.exit("crash")

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        for i in range(8):
            conn.send(HttpRequest("GET", f"/api/{i}", id=i + 1), size=300)
            item = yield conn.recv()
            got.append(item.payload.status)
            yield stack.env.timeout(0.1)

    stack.env.process(killer())
    proc.run(flow())
    stack.env.run(until=stack.env.now + 10)
    assert got.count(STATUS_OK) == 8
