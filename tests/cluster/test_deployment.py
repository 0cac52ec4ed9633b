"""Deployment builder: topology, wiring, addressing, start-up."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.clients import WebWorkloadConfig
from repro.netsim import FourTuple, Endpoint, Protocol


def tiny_spec(**overrides):
    defaults = dict(seed=1, edge_proxies=2, origin_proxies=2,
                    app_servers=2, brokers=2,
                    web_workload=None, mqtt_workload=None,
                    quic_workload=None)
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def test_tier_sizes_match_spec():
    dep = Deployment(tiny_spec())
    assert len(dep.edge_hosts) == 2
    assert len(dep.origin_hosts) == 2
    assert len(dep.app_hosts) == 2
    assert len(dep.broker_hosts) == 2
    assert len(dep.edge_servers) == 2
    assert len(dep.app_servers) == 2


def test_host_ips_unique_and_sited():
    dep = Deployment(tiny_spec())
    all_hosts = dep.network.hosts()
    ips = [h.ip for h in all_hosts]
    assert len(ips) == len(set(ips))
    assert all(h.site == "edge" for h in dep.edge_hosts)
    assert all(h.site == "origin" for h in dep.origin_hosts + dep.app_hosts)


def test_client_hosts_only_for_enabled_workloads():
    dep = Deployment(tiny_spec(web_workload=WebWorkloadConfig(
        clients_per_host=1)))
    assert "web" in dep.client_hosts
    assert "mqtt" not in dep.client_hosts
    assert dep.web_clients is not None
    assert dep.mqtt_clients is None


def test_startup_brings_everything_up():
    dep = Deployment(tiny_spec())
    dep.start()
    dep.run(until=10)
    assert all(s.active_instance is not None for s in dep.edge_servers)
    assert all(s.active_instance is not None for s in dep.origin_servers)
    assert all(s.accepting for s in dep.app_servers)
    assert len(dep.edge_katran.healthy_backends()) == 2
    assert len(dep.origin_katran.healthy_backends()) == 2


def test_edge_vips_shared_across_edge_hosts():
    dep = Deployment(tiny_spec())
    endpoints = {v.endpoint for s in dep.edge_servers for v in s.vips
                 if v.name == "https"}
    assert len(endpoints) == 1  # one shared VIP


def test_broker_ring_covers_all_brokers():
    dep = Deployment(tiny_spec())
    owners = {dep.broker_ring.lookup("user", uid) for uid in range(200)}
    assert owners == {h.ip for h in dep.broker_hosts}


def test_origin_router_routes_flows():
    dep = Deployment(tiny_spec())
    dep.start()
    dep.run(until=5)
    context = dep.edge_servers[0].context
    flow = FourTuple(Protocol.TCP, Endpoint("1.2.3.4", 1000),
                     context.origin_vip)
    backend = context.origin_router(flow)
    assert backend in {h.ip for h in dep.origin_hosts}


def test_deterministic_same_seed():
    def build_and_measure(seed):
        dep = Deployment(tiny_spec(
            seed=seed,
            web_workload=WebWorkloadConfig(clients_per_host=5,
                                           think_time=0.5)))
        dep.start()
        dep.run(until=15)
        return dep.metrics.scoped_counters("web-clients").snapshot()

    assert build_and_measure(7) == build_and_measure(7)


def test_different_seed_differs():
    def build_and_measure(seed):
        dep = Deployment(tiny_spec(
            seed=seed,
            web_workload=WebWorkloadConfig(clients_per_host=5,
                                           think_time=0.5)))
        dep.start()
        dep.run(until=15)
        return dep.metrics.scoped_counters("web-clients").snapshot()

    assert build_and_measure(7) != build_and_measure(8)
