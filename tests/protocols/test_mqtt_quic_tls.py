"""MQTT message model, QUIC state tables, TLS handshake cost model."""

import pytest

from repro.netsim import Endpoint
from repro.protocols import (
    ConnectAck,
    ConnectRefuse,
    MqttPublish,
    QuicConnectionState,
    QuicStateTable,
    ReConnect,
    ReconnectSolicitation,
    TlsClientHello,
    TlsServerDone,
    client_handshake,
    server_handle_hello,
)
from repro.run import RunRecord


# -- MQTT -------------------------------------------------------------------

def test_mqtt_publish_defaults():
    publish = MqttPublish(user_id=7, topic="notify", seq=3)
    assert publish.size > 0
    assert publish.topic == "notify"


def test_dcr_messages_carry_user_ids():
    assert ReConnect(user_id=42).user_id == 42
    assert ConnectAck(user_id=42).user_id == 42
    assert ConnectRefuse(user_id=42).reason == "no_session"
    assert ReconnectSolicitation("origin-1").origin_instance == "origin-1"


# -- QUIC -------------------------------------------------------------------

def test_connection_ids_unique():
    """Unique within one run; the next run counts from 0x1000 again."""
    run = RunRecord()
    ids = {next(run.connection_ids) for _ in range(100)}
    assert len(ids) == 100 and min(ids) == 0x1000
    assert next(RunRecord().connection_ids) == 0x1000


def test_state_table_ownership():
    table = QuicStateTable(owner="gen1")
    state = QuicConnectionState(connection_id=5, client="c")
    table.add(state)
    assert table.owns(5)
    assert not table.owns(6)
    assert table.get(5).owner == "gen1"
    assert len(table) == 1
    table.remove(5)
    assert not table.owns(5)
    table.remove(5)  # idempotent


def test_state_table_connection_ids():
    table = QuicStateTable(owner="x")
    for cid in (3, 1, 2):
        table.add(QuicConnectionState(connection_id=cid, client="c"))
    assert sorted(table.connection_ids()) == [1, 2, 3]


# -- TLS --------------------------------------------------------------------

def _tls_world(world):
    server = world.host("server")
    client = world.host("client")
    sproc, cproc = server.spawn("s"), client.spawn("c")
    endpoint = Endpoint(server.ip, 443)
    _, listener = server.kernel.tcp_listen(sproc, endpoint)
    return server, client, sproc, cproc, endpoint, listener


def test_tls_handshake_roundtrip(world):
    server, client, sproc, cproc, endpoint, listener = _tls_world(world)
    results = []

    def server_side():
        conn = yield listener.accept(sproc)
        item = yield conn.recv()
        assert isinstance(item.payload, TlsClientHello)
        yield from server_handle_hello(item.payload, conn, server.cpu)

    def client_side():
        conn = yield client.kernel.tcp_connect(cproc, endpoint)
        reply = yield from client_handshake(conn, client.cpu)
        results.append(reply.payload)

    sproc.run(server_side())
    cproc.run(client_side())
    world.env.run(until=2)
    assert isinstance(results[0], TlsServerDone)
    # Both sides burned CPU; the server side burned more.
    assert server.cpu.total_busy_seconds > client.cpu.total_busy_seconds > 0


def test_tls_resumption_is_cheaper(world):
    server, client, sproc, cproc, endpoint, listener = _tls_world(world)

    def serve_two():
        for _ in range(2):
            conn = yield listener.accept(sproc)
            sproc.run(handle(conn))

    def handle(conn):
        item = yield conn.recv()
        yield from server_handle_hello(item.payload, conn, server.cpu)

    def client_side():
        conn = yield client.kernel.tcp_connect(cproc, endpoint)
        yield from client_handshake(conn, client.cpu, resumption=False)
        full_cost = server.cpu.total_busy_seconds
        conn2 = yield client.kernel.tcp_connect(cproc, endpoint)
        yield from client_handshake(conn2, client.cpu, resumption=True)
        resumed_cost = server.cpu.total_busy_seconds - full_cost
        assert resumed_cost < 0.2 * full_cost

    sproc.run(serve_two())
    cproc.run(client_side())
    world.env.run(until=2)
