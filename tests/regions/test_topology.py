"""RegionalDeployment: topology shape, determinism, anycast failover."""

import pytest

from repro.clients.web import WebWorkloadConfig
from repro.faults import FaultPlan, FaultSpec
from repro.options import RunOptions
from repro.proxygen.config import ProxygenConfig
from repro.regions import RegionalDeployment, RegionalSpec


def _spec(**overrides):
    defaults = dict(
        seed=1, regions=2, pops_per_region=1, proxies_per_pop=2,
        origin_proxies=2, app_servers=2, brokers=1,
        web_clients_per_pop=4, mqtt_users_per_pop=3,
        edge_config=ProxygenConfig(mode="edge", drain_duration=2.0,
                                   spawn_delay=0.5),
        origin_config=ProxygenConfig(mode="origin", drain_duration=2.0,
                                     spawn_delay=0.5))
    defaults.update(overrides)
    return RegionalSpec(**defaults)


def _metrics_snapshot(deployment) -> dict:
    return {scope: deployment.metrics.scoped_counters(scope).snapshot()
            for scope in deployment.metrics.scopes()}


@pytest.fixture(scope="module")
def regional_dep():
    dep = RegionalDeployment(_spec())
    dep.start()
    dep.run(until=15.0)
    return dep


def test_every_region_has_its_own_origin(regional_dep):
    assert len(regional_dep.regions) == 2
    for region in regional_dep.regions:
        assert len(region.origin_servers) == 2
        assert len(region.app_servers) == 2
        assert len(region.brokers) == 1
        assert len(region.pops) == 1
        assert region.origin_katran is not None


def test_each_pop_serves_its_clients(regional_dep):
    for region in regional_dep.regions:
        for pop in region.pops:
            counters = regional_dep.metrics.scoped_counters(
                f"web-clients-{pop.name}")
            assert counters.get("get_ok") > 5, pop.name


def test_mqtt_users_land_on_the_global_broker_ring(regional_dep):
    held = sum(len(b.sessions) for b in regional_dep.brokers)
    assert held == 2 * 3  # every user, exactly once
    # Each user sits on the broker the global ring names for it.
    for broker in regional_dep.brokers:
        for user_id in broker.sessions:
            assert regional_dep.broker_ring.lookup(
                "user", user_id) == broker.host.ip


def test_same_seed_runs_are_byte_identical():
    def one_run():
        dep = RegionalDeployment(_spec(seed=7))
        dep.start()
        dep.run(until=12.0)
        return _metrics_snapshot(dep)

    assert one_run() == one_run()


def test_distinct_seeds_diverge():
    def one_run(seed):
        dep = RegionalDeployment(_spec(seed=seed))
        dep.start()
        dep.run(until=12.0)
        return _metrics_snapshot(dep)

    assert one_run(3) != one_run(4)


def _partition_plan(duration=None):
    return FaultPlan(
        "partition-r0",
        [FaultSpec("wan_partition", where="r0-*:*", at=5.0,
                   duration=duration)])


def test_anycast_fails_over_when_home_region_is_partitioned():
    dep = RegionalDeployment(
        _spec(web_workload=WebWorkloadConfig(clients_per_host=4,
                                             think_time=1.0,
                                             request_timeout=3.0)),
        options=RunOptions(fault_plan=_partition_plan()))
    dep.start()
    dep.run(until=20.0)
    resolver = dep.regions[0].pops[0].resolver
    assert resolver.counters.with_tag_prefix("failover_route")
    # The partitioned region's clients keep getting answers via r1.
    pop = dep.regions[0].pops[0]
    counters = dep.metrics.scoped_counters(f"web-clients-{pop.name}")
    assert counters.get("get_ok") > 10


def test_failover_disabled_strands_partitioned_clients():
    dep = RegionalDeployment(
        _spec(failover=False,
              web_workload=WebWorkloadConfig(clients_per_host=4,
                                             think_time=1.0,
                                             request_timeout=3.0)),
        options=RunOptions(fault_plan=_partition_plan()))
    dep.start()
    dep.run(until=20.0)
    pop = dep.regions[0].pops[0]
    counters = dep.metrics.scoped_counters(f"web-clients-{pop.name}")
    assert counters.get("connect_no_backend") > 0
    assert not counters.with_tag_prefix("failover_route")


def test_partition_drops_are_tagged_by_site_pair_and_cause():
    dep = RegionalDeployment(
        _spec(), options=RunOptions(fault_plan=_partition_plan()))
    dep.start()
    dep.run(until=20.0)
    net = dep.metrics.scoped_counters("net")
    by_pair = net.with_tag_prefix("dropped")
    by_cause = net.with_tag_prefix("dropped_cause")
    assert by_pair, "expected per-(src:dst) drop counters"
    assert all(":" in pair for pair in by_pair)
    assert by_cause.get("loss", 0) > 0
    # Every drop is tagged both ways: the totals must agree.
    assert sum(by_cause.values()) == sum(by_pair.values())
