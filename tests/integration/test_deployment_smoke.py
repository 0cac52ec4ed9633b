"""End-to-end smoke tests: the full Figure-1 stack carries traffic."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.clients import (
    MqttWorkloadConfig,
    QuicWorkloadConfig,
    WebWorkloadConfig,
)


def small_spec(**overrides) -> DeploymentSpec:
    defaults = dict(
        seed=7,
        edge_proxies=3,
        origin_proxies=2,
        app_servers=3,
        brokers=1,
        web_client_hosts=1,
        mqtt_client_hosts=1,
        quic_client_hosts=1,
        web_workload=WebWorkloadConfig(clients_per_host=8, think_time=1.0,
                                       post_fraction=0.1),
        mqtt_workload=MqttWorkloadConfig(users_per_host=10,
                                         publish_interval=3.0),
        quic_workload=QuicWorkloadConfig(flows_per_host=6,
                                         packet_interval=0.5),
    )
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


@pytest.fixture(scope="module")
def deployment():
    dep = Deployment(small_spec())
    dep.start()
    dep.run(until=40)
    return dep


def test_web_requests_succeed(deployment):
    ok = deployment.metrics.scoped_counters("web-clients").get("get_ok")
    assert ok > 50


def test_cacheable_and_forwarded_both_served(deployment):
    # Edge serves cacheable directly; the rest crossed Edge->Origin->App.
    served_by_apps = sum(
        s.counters.get("requests_served") for s in deployment.app_servers)
    assert served_by_apps > 10
    edge_rps = sum(s.counters.get("rps") for s in deployment.edge_servers)
    assert edge_rps > served_by_apps  # edge saw strictly more than apps


def test_posts_complete_end_to_end(deployment):
    clients = deployment.metrics.scoped_counters("web-clients")
    assert clients.get("post_ok") >= 1
    completed = sum(s.counters.get("post_completed")
                    for s in deployment.origin_servers)
    assert completed >= 1


def test_mqtt_sessions_established_and_publishing(deployment):
    clients = deployment.metrics.scoped_counters("mqtt-clients")
    assert clients.get("sessions_established") >= 10
    broker = deployment.brokers[0]
    assert broker.counters.get("publish_received") > 5   # upstream
    assert clients.get("publishes_received") > 5         # downstream


def test_quic_flows_acked(deployment):
    clients = deployment.metrics.scoped_counters("quic-clients")
    sent = clients.get("packets_sent")
    acked = clients.get("packets_acked")
    assert sent > 100
    assert acked / sent > 0.95


def test_no_errors_in_steady_state(deployment):
    clients = deployment.metrics.scoped_counters("web-clients")
    ok = clients.get("get_ok") + clients.get("post_ok")
    errors = (clients.get("get_error") + clients.get("post_error")
              + clients.get("get_timeout") + clients.get("post_timeout")
              + clients.get("get_conn_reset") + clients.get("post_conn_reset"))
    assert errors <= 0.02 * ok


def test_katran_sees_all_backends_healthy(deployment):
    assert len(deployment.edge_katran.healthy_backends()) == 3
    assert len(deployment.origin_katran.healthy_backends()) == 2


def test_tls_handshakes_happened(deployment):
    handshakes = sum(s.counters.get("tls_handshakes")
                     for s in deployment.edge_servers)
    assert handshakes >= 8


def test_cpu_accounting_nonzero(deployment):
    idle = [value for host in deployment.edge_hosts
            for _, value in host.cpu.idle(10, 40)]
    assert idle, "expected idle-CPU samples"
    # Hosts did some work but are not saturated.
    mean_idle = sum(idle) / len(idle)
    assert 0.05 < mean_idle < 1.0
