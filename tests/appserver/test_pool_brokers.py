"""App-server pools, connection pooling, MQTT broker behaviour."""

import pytest

from repro.appserver import (
    AppServer,
    AppServerConfig,
    AppServerPool,
    MqttBroker,
    UpstreamConnectionPool,
    brokers,
)
from repro.appserver import pool as pool_module
from repro.netsim import Endpoint
from repro.protocols import (
    ConnectAck,
    ConnectRefuse,
    MqttConnAck,
    MqttConnect,
    MqttPingReq,
    MqttPingResp,
    MqttPublish,
    ReConnect,
)


# -- AppServerPool ------------------------------------------------------------

def _pool_of(world, count):
    pool = AppServerPool()
    servers = []
    for i in range(count):
        host = world.host(f"app-{i}")
        server = AppServer(host, AppServerConfig())
        server.start()
        pool.add(server)
        servers.append(server)
    return pool, servers


def test_pool_round_robin_cycles(world):
    pool, servers = _pool_of(world, 3)
    picks = {pool.pick().name for _ in range(6)}
    assert len(picks) == 3


def test_pool_excludes_draining(world):
    pool, servers = _pool_of(world, 3)
    servers[0].state = AppServer.STATE_DRAINING
    picks = {pool.pick().name for _ in range(6)}
    assert servers[0].name not in picks


def test_pool_exclude_by_ip(world):
    pool, servers = _pool_of(world, 2)
    excluded_ip = servers[0].host.ip
    for _ in range(4):
        assert pool.pick(exclude=(excluded_ip,)) is servers[1]


def test_pool_empty_returns_none(world):
    pool, servers = _pool_of(world, 1)
    servers[0].state = AppServer.STATE_DOWN
    assert pool.pick() is None


# -- UpstreamConnectionPool ----------------------------------------------------

def test_conn_pool_reuses_connections(world):
    pool_srv, servers = _pool_of(world, 1)
    proxy_host = world.host("proxy")
    proc = proxy_host.spawn("p")
    pool = UpstreamConnectionPool(proxy_host, proc)
    target = servers[0]
    log = []

    def flow():
        conn = yield from pool.checkout(target.host.ip,
                                        target.endpoint.port)
        pool.checkin(conn)
        conn2 = yield from pool.checkout(target.host.ip,
                                         target.endpoint.port)
        log.append(conn2 is conn)

    proc.run(flow())
    world.env.run(until=2)
    assert log == [True]
    assert pool.dials == 1
    assert pool.reuses == 1


def test_conn_pool_discards_dead_connections(world):
    pool_srv, servers = _pool_of(world, 1)
    proxy_host = world.host("proxy")
    proc = proxy_host.spawn("p")
    pool = UpstreamConnectionPool(proxy_host, proc)
    target = servers[0]
    log = []

    def flow():
        conn = yield from pool.checkout(target.host.ip,
                                        target.endpoint.port)
        pool.checkin(conn)
        conn.abort()  # dies while idle
        conn2 = yield from pool.checkout(target.host.ip,
                                         target.endpoint.port)
        log.append(conn2 is not conn and conn2.alive)

    proc.run(flow())
    world.env.run(until=2)
    assert log == [True]
    assert pool.dials == 2


def test_conn_pool_caps_idle(world, monkeypatch):
    monkeypatch.setattr(pool_module, "MAX_IDLE_PER_DEST", 1)
    pool_srv, servers = _pool_of(world, 1)
    proxy_host = world.host("proxy")
    proc = proxy_host.spawn("p")
    pool = UpstreamConnectionPool(proxy_host, proc)
    target = servers[0]

    def flow():
        a = yield from pool.checkout(target.host.ip, target.endpoint.port)
        b = yield from pool.checkout(target.host.ip, target.endpoint.port)
        pool.checkin(a)
        pool.checkin(b)   # over the cap: closed instead of pooled
        assert not b.alive or b.closed

    proc.run(flow())
    world.env.run(until=2)


# -- MqttBroker -----------------------------------------------------------------

def _broker_and_conn(world, monkeypatch):
    monkeypatch.setattr(brokers, "DOWNSTREAM_PUBLISH_RATE", 0.0)
    broker_host = world.host("broker")
    broker = MqttBroker(broker_host)
    broker.start()
    origin_host = world.host("origin")
    proc = origin_host.spawn("relay")
    result = {}

    def dial():
        result["conn"] = yield origin_host.kernel.tcp_connect(
            proc, broker.endpoint)

    proc.run(dial())
    world.env.run(until=world.env.now + 0.5)
    return broker, origin_host, proc, result["conn"]


def test_broker_connack_and_session(world, monkeypatch):
    broker, origin_host, proc, conn = _broker_and_conn(world, monkeypatch)
    got = []

    def flow():
        conn.send(MqttConnect(user_id=1), size=120)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 1)
    assert isinstance(got[0], MqttConnAck)
    assert not got[0].session_present
    assert 1 in broker.sessions
    assert broker.counters.get("mqtt_connack_sent") == 1


def test_broker_session_present_on_reconnect(world, monkeypatch):
    broker, origin_host, proc, conn = _broker_and_conn(world, monkeypatch)
    got = []

    def flow():
        conn.send(MqttConnect(user_id=1), size=120)
        yield conn.recv()
        conn.send(MqttConnect(user_id=1), size=120)  # client reconnected
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 1)
    assert got[0].session_present


def test_broker_dcr_reconnect_accept_and_refuse(world, monkeypatch):
    broker, origin_host, proc, conn = _broker_and_conn(world, monkeypatch)
    got = []

    def flow():
        conn.send(MqttConnect(user_id=5), size=120)
        yield conn.recv()
        conn.send(ReConnect(user_id=5), size=64)     # context exists
        item = yield conn.recv()
        got.append(item.payload)
        conn.send(ReConnect(user_id=999), size=64)   # no context
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 1)
    assert isinstance(got[0], ConnectAck)
    assert isinstance(got[1], ConnectRefuse)
    assert broker.counters.get("dcr_accepted") == 1
    assert broker.counters.get("dcr_refused") == 1


def test_broker_ping_and_publish(world, monkeypatch):
    broker, origin_host, proc, conn = _broker_and_conn(world, monkeypatch)
    got = []

    def flow():
        conn.send(MqttConnect(user_id=2), size=120)
        yield conn.recv()
        conn.send(MqttPublish(user_id=2, topic="t", seq=1), size=60)
        conn.send(MqttPingReq(user_id=2), size=16)
        item = yield conn.recv()
        got.append(item.payload)

    proc.run(flow())
    world.env.run(until=world.env.now + 1)
    assert isinstance(got[0], MqttPingResp)
    assert broker.counters.get("publish_received") == 1
    assert broker.sessions[2].publishes_from_user == 1


def test_broker_publish_without_session_dropped(world, monkeypatch):
    broker, origin_host, proc, conn = _broker_and_conn(world, monkeypatch)

    def flow():
        conn.send(MqttPublish(user_id=404, topic="t", seq=1), size=60)
        yield world.env.timeout(0.1)

    proc.run(flow())
    world.env.run(until=world.env.now + 1)
    assert broker.counters.get("publish_no_session") == 1


def test_broker_downstream_publishing_and_path_loss(world, monkeypatch):
    broker_host = world.host("broker")
    monkeypatch.setattr(brokers, "DOWNSTREAM_PUBLISH_RATE", 5.0)
    monkeypatch.setattr(brokers, "PUBLISH_TICK", 0.5)
    broker = MqttBroker(broker_host)
    broker.start()
    origin_host = world.host("origin")
    proc = origin_host.spawn("relay")
    received = []

    def flow():
        conn = yield origin_host.kernel.tcp_connect(proc, broker.endpoint)
        conn.send(MqttConnect(user_id=9), size=120)
        yield conn.recv()
        while len(received) < 3:
            item = yield conn.recv()
            received.append(item.payload)
        conn.abort()  # relay path dies

    proc.run(flow())
    world.env.run(until=world.env.now + 5)
    assert all(isinstance(m, MqttPublish) for m in received)
    # After the path died the session context survives but publishes
    # toward the user are dropped (the Fig 9 dip).
    world.env.run(until=world.env.now + 3)
    assert 9 in broker.sessions
    assert broker.sessions[9].path is None or not broker.sessions[9].path.alive
    # Notifications during the outage are QoS-buffered (up to the cap).
    assert broker.counters.get("publish_queued_no_path") > 0
    assert len(broker.sessions[9].queued) > 0


# -- AppServerPool: stable-cursor fairness and health ------------------------

def test_pool_cursor_starts_at_first_server(world):
    pool, servers = _pool_of(world, 3)
    # The very first pick must be index 0, then strict rotation order.
    order = [pool.pick() for _ in range(6)]
    assert order == servers + servers


def test_pool_exclusion_does_not_shift_rotation(world):
    pool, servers = _pool_of(world, 3)
    assert pool.pick() is servers[0]
    # Excluding the server under the cursor skips it for this pick only;
    # the cursor still advances over the full membership list.
    assert pool.pick(exclude=(servers[1].host.ip,)) is servers[2]
    assert pool.pick() is servers[0]
    assert pool.pick() is servers[1]


def test_pool_draining_server_does_not_bias_rotation(world):
    pool, servers = _pool_of(world, 4)
    servers[1].state = AppServer.STATE_DRAINING
    picks = [pool.pick() for _ in range(9)]
    counts = {s.name: picks.count(s) for s in servers}
    assert counts[servers[1].name] == 0
    # The remaining three split the 9 picks evenly: no double-serving
    # of whichever server happens to follow the drained one.
    assert sorted(counts[s.name] for s in (servers[0], servers[2],
                                           servers[3])) == [3, 3, 3]


def _health_pool(world, count, monkeypatch):
    from repro.resilience import OutlierTracker, ResilienceConfig, health
    from repro.simkernel import RandomStreams

    monkeypatch.setattr(health, "MIN_SAMPLES", 3)
    monkeypatch.setattr(health, "EJECTION_JITTER", 0.0)
    monkeypatch.setattr(health, "MAX_EJECTED_FRACTION", 1.0)
    monkeypatch.setattr(health, "ERROR_RATE_THRESHOLD", 0.5)
    pool, servers = _pool_of(world, count)
    tracker = OutlierTracker(
        ResilienceConfig(enabled=True, ejection_duration=10.0),
        world.env, RandomStreams(1).stream("t"))
    pool.attach_health(tracker)
    return pool, servers, tracker


def test_pool_healthy_excludes_ejected(world, monkeypatch):
    pool, servers, tracker = _health_pool(world, 3, monkeypatch)
    bad_ip = servers[0].host.ip
    for _ in range(3):
        pool.record_failure(bad_ip)
    assert servers[0] not in pool.healthy()
    assert set(pool.healthy()) == {servers[1], servers[2]}
    picks = {pool.pick() for _ in range(6)}
    assert servers[0] not in picks


def test_pool_panic_pick_when_all_ejected(world, monkeypatch):
    pool, servers, tracker = _health_pool(world, 2, monkeypatch)
    for server in servers:
        for _ in range(3):
            pool.record_failure(server.host.ip)
    assert pool.healthy() == []
    # Serving a possibly-bad backend beats serving nobody.
    assert pool.pick() in servers
    assert pool.pick(exclude=(servers[0].host.ip,
                              servers[1].host.ip)) is None


def test_pool_ejected_server_returns_after_expiry(world, monkeypatch):
    pool, servers, tracker = _health_pool(world, 3, monkeypatch)
    bad_ip = servers[0].host.ip
    for _ in range(3):
        pool.record_failure(bad_ip)
    assert servers[0] not in pool.healthy()
    world.env.run(until=11.0)
    assert servers[0] in pool.healthy()  # probing: back in rotation
    pool.record_success(bad_ip, latency=0.05)
    assert servers[0] in pool.healthy()


# -- UpstreamConnectionPool: stale idle connections --------------------------

def test_conn_pool_stale_reuse_discard_and_redial(world):
    """A peer that dies *after* check-in still looks alive at checkout
    (its RST has not arrived); the caller's first write error must turn
    into a counted discard + fresh dial, not a failed request."""
    pool_srv, servers = _pool_of(world, 1)
    proxy_host = world.host("proxy")
    proc = proxy_host.spawn("p")
    pool = UpstreamConnectionPool(proxy_host, proc)
    target = servers[0]
    log = []

    def flow():
        conn = yield from pool.checkout(target.host.ip,
                                        target.endpoint.port)
        pool.checkin(conn)
        # Kill the *peer* side only: the pooled endpoint has not seen
        # the notification yet, so checkout happily reuses it.
        conn.peer.abort(reason="server restart")
        reused = yield from pool.checkout(target.host.ip,
                                          target.endpoint.port)
        log.append(reused is conn)
        log.append(pool.was_reused(reused))
        pool.note_stale_reuse(reused)
        fresh = yield from pool.checkout_fresh(target.host.ip,
                                               target.endpoint.port)
        log.append(fresh is not conn and fresh.alive)
        log.append(pool.was_reused(fresh))

    proc.run(flow())
    world.env.run(until=2)
    assert log == [True, True, True, False]
    assert pool.idle_discarded == 1
    assert pool.dials == 2
