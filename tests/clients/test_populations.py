"""Client populations against the hand-wired mini-stack."""

import pytest

from repro.clients import (
    MqttClientPopulation,
    MqttWorkloadConfig,
    QuicClientPopulation,
    QuicWorkloadConfig,
    WebClientPopulation,
    WebWorkloadConfig,
)
from repro.clients.base import ClientBase
from repro.netsim import Endpoint
from tests.proxygen.conftest import MiniStack


@pytest.fixture
def stack(world):
    return MiniStack(world).start()


def _client_hosts(world, count=1):
    return [world.host(f"clients-{i}") for i in range(count)]


def test_web_population_generates_requests(world, stack):
    hosts = _client_hosts(world)
    population = WebClientPopulation(
        hosts, stack.edge_https, lambda flow: stack.edge_host.ip,
        world.metrics, WebWorkloadConfig(clients_per_host=5,
                                         think_time=0.5,
                                         post_fraction=0.0))
    population.start()
    world.env.run(until=15)
    counters = world.metrics.scoped_counters("web-clients")
    assert counters.get("get_ok") > 20
    assert counters.get("tls_established") == 5
    latencies = world.metrics.quantiles("client/get_latency")
    assert len(latencies) > 20
    assert latencies.median > 0


def test_web_population_posts(world, stack):
    hosts = _client_hosts(world)
    population = WebClientPopulation(
        hosts, stack.edge_https, lambda flow: stack.edge_host.ip,
        world.metrics, WebWorkloadConfig(clients_per_host=4,
                                         think_time=0.5,
                                         post_fraction=1.0,
                                         post_size_min=50_000,
                                         post_size_cap=200_000,
                                         upload_bandwidth=500_000))
    population.start()
    world.env.run(until=20)
    counters = world.metrics.scoped_counters("web-clients")
    assert counters.get("post_ok") >= 4
    assert counters.get("post_error") == 0


def test_web_population_survives_dead_router(world, stack):
    """Router returning None (no backends): clients retry, not crash."""
    hosts = _client_hosts(world)
    population = WebClientPopulation(
        hosts, stack.edge_https, lambda flow: None,
        world.metrics, WebWorkloadConfig(clients_per_host=3,
                                         think_time=0.5))
    population.start()
    world.env.run(until=5)
    counters = world.metrics.scoped_counters("web-clients")
    assert counters.get("connect_no_backend") > 0
    assert counters.get("get_ok") == 0


def test_mqtt_population_sessions_and_pings(world, stack):
    hosts = _client_hosts(world)
    population = MqttClientPopulation(
        hosts, stack.edge_mqtt, lambda flow: stack.edge_host.ip,
        world.metrics, MqttWorkloadConfig(users_per_host=6,
                                          publish_interval=2.0,
                                          ping_interval=4.0))
    population.start()
    world.env.run(until=15)
    counters = world.metrics.scoped_counters("mqtt-clients")
    assert counters.get("sessions_established") == 6
    assert counters.get("publishes_sent") > 6
    assert stack.broker.counters.get("publish_received") > 6
    assert len(stack.broker.sessions) == 6


def test_mqtt_population_reconnects_after_break(world, stack):
    hosts = _client_hosts(world)
    population = MqttClientPopulation(
        hosts, stack.edge_mqtt, lambda flow: stack.edge_host.ip,
        world.metrics, MqttWorkloadConfig(users_per_host=4,
                                          publish_interval=2.0))
    population.start()
    world.env.run(until=10)
    # Kill the edge instance hard: every session breaks.
    stack.edge.active_instance.shutdown("crash")
    # Reboot the edge so reconnects can land.
    replacement = stack.edge._new_instance()
    boot = world.env.process(replacement.start_fresh())
    world.env.run(until=boot)
    stack.edge.active_instance = replacement
    world.env.run(until=25)
    counters = world.metrics.scoped_counters("mqtt-clients")
    assert counters.get("session_broken") >= 4
    assert counters.get("reconnects") >= 4


def test_quic_population_acks_and_natural_churn(world, stack):
    hosts = _client_hosts(world)
    population = QuicClientPopulation(
        hosts, stack.edge_vips[1].endpoint,
        lambda flow: stack.edge_host.ip, world.metrics,
        QuicWorkloadConfig(flows_per_host=5, packet_interval=0.2,
                           mean_packets_per_connection=10))
    population.start()
    world.env.run(until=20)
    counters = world.metrics.scoped_counters("quic-clients")
    sent = counters.get("packets_sent")
    acked = counters.get("packets_acked")
    assert sent > 100
    assert acked / sent > 0.95
    # Connections end naturally and new ones begin.
    assert counters.get("connections_completed") > 5


def test_quic_population_infinite_connections(world, stack):
    hosts = _client_hosts(world)
    population = QuicClientPopulation(
        hosts, stack.edge_vips[1].endpoint,
        lambda flow: stack.edge_host.ip, world.metrics,
        QuicWorkloadConfig(flows_per_host=2, packet_interval=0.2,
                           mean_packets_per_connection=None))
    population.start()
    world.env.run(until=10)
    counters = world.metrics.scoped_counters("quic-clients")
    assert counters.get("connections_completed") == 0
    assert counters.get("packets_acked") > 50


def test_connect_completing_on_the_deadline_tick_is_closed(world):
    """Regression: ``ClientBase.connect_routed`` gave up on a dial whose
    handshake completed on the very tick its deadline fired — and left
    the established connection open, one per occurrence (the L4LB and
    resolver probes and the upstream dial closed theirs).  The race
    needs the deadline to equal one handshake RTT: 2 × the 1 ms test
    link latency."""
    server = world.host("server")
    server_process = server.spawn("server")
    vip = Endpoint(server.ip, 443)
    server.kernel.tcp_listen(server_process, vip)
    host = world.host("client")
    process = host.spawn("client")
    base = ClientBase(host, "clients", vip, lambda flow: server.ip,
                      world.metrics)
    outcomes = []

    def dial():
        outcomes.append((yield from base.connect_routed(process,
                                                        timeout=0.002)))

    process.run(dial())
    world.env.run(until=1)
    assert outcomes == [None]
    assert base.counters.get("connect_timeout") == 1  # the race was hit
    assert process.connection_count == 0
