"""Multi-PoP topology (one region, N PoPs) and global rolling releases.

"N Edge PoPs → one Origin DC" is ``RegionalSpec(regions=1,
pops_per_region=N)``; ``release_all_pops`` is the paper's world-wide
push (§6.1.1).  Ported from the deleted ``cluster.GlobalDeployment``.
"""

import pytest

from repro.clients import WebWorkloadConfig
from repro.proxygen import ProxygenConfig
from repro.regions import RegionalDeployment, RegionalSpec, release_all_pops
from repro.regions import topology


def _dep(seed, pops, proxies_per_pop, until, **kwargs):
    kwargs.setdefault("web_workload", WebWorkloadConfig(
        clients_per_host=6, think_time=1.0))
    if kwargs["web_workload"] is None:
        kwargs["web_clients_per_pop"] = 0
    dep = RegionalDeployment(RegionalSpec(
        seed=seed, regions=1, pops_per_region=pops,
        proxies_per_pop=proxies_per_pop, origin_proxies=3, app_servers=4,
        mqtt_users_per_pop=0, **kwargs))
    dep.start()
    dep.run(until=until)
    return dep


def _pops(dep):
    return dep.regions[0].pops


@pytest.fixture(scope="module")
def global_dep():
    return _dep(seed=3, pops=3, proxies_per_pop=3, until=25)


def test_pops_built_behind_one_anycast_vip(global_dep):
    assert len(_pops(global_dep)) == 3
    for pop in _pops(global_dep):
        assert len(pop.servers) == 3
        assert {l4.hc_vip for l4 in pop.l4lbs} == {global_dep.anycast_https}


def test_each_pop_serves_its_clients(global_dep):
    for pop in _pops(global_dep):
        counters = global_dep.metrics.scoped_counters(
            f"web-clients-{pop.name}")
        assert counters.get("get_ok") > 10, pop.name


def test_all_pops_share_one_origin(global_dep):
    served = sum(s.counters.get("requests_served")
                 for s in global_dep.app_servers)
    assert served > 10
    rps = sum(s.counters.get("rps") for s in global_dep.origin_servers)
    assert rps > 10


def test_pop_katrans_are_independent(global_dep):
    for pop in _pops(global_dep):
        assert set(pop.l4lbs[0].healthy_backends()) == \
            {h.ip for h in pop.hosts}


def test_global_release_completes_everywhere():
    dep = _dep(seed=5, pops=2, proxies_per_pop=2, until=15,
               edge_config=ProxygenConfig(mode="edge", drain_duration=3.0,
                                          spawn_delay=0.5),
               web_workload=WebWorkloadConfig(clients_per_host=4,
                                              think_time=1.0))
    releases, done = release_all_pops(dep, batch_fraction=0.5)
    dep.env.run(until=done)
    dep.run(until=dep.env.now + 6)
    for pop in _pops(dep):
        for server in pop.servers:
            assert server.releases_completed == 1
            assert server.active_instance.generation == 2
    # Releases across PoPs overlapped in time (global concurrency).
    starts = [r.started_at for r in releases]
    assert max(starts) - min(starts) < 1.0
    durations = [r.duration for r in releases]
    assert all(d > 0 for d in durations)


def test_global_release_with_drain_wait_takes_batches_times_drain():
    drain = 4.0
    dep = _dep(seed=7, pops=2, proxies_per_pop=4, until=10,
               edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                          spawn_delay=0.5),
               web_workload=None)
    releases, done = release_all_pops(dep, batch_fraction=0.25,
                                      post_batch_wait=drain)
    dep.env.run(until=done)
    assert len(releases) == 2
    for release in releases:
        # 4 batches × (takeover ~0.5s + wait 4s) ≈ 18s.
        assert 16 <= release.duration <= 22


# -- per-PoP ECMP across several L4LBs ---------------------------------------


@pytest.fixture
def two_l4lbs(monkeypatch):
    monkeypatch.setattr(topology, "L4LBS_PER_POP", 2)


def _ecmp_dep(seed=3):
    return _dep(seed=seed, pops=2, proxies_per_pop=3, until=20,
                web_workload=WebWorkloadConfig(clients_per_host=8,
                                               think_time=0.5))


def test_ecmp_spreads_flows_over_every_l4lb(two_l4lbs):
    dep = _ecmp_dep()
    for pop in _pops(dep):
        assert len(pop.l4lbs) == 2
        picks = [l4.counters.get("route_hash")
                 + l4.counters.get("route_table_hit")
                 + l4.counters.get("route_table_miss")
                 for l4 in pop.l4lbs]
        assert all(p > 0 for p in picks), (pop.name, picks)


def test_all_l4lbs_of_a_pop_agree_on_backends(two_l4lbs):
    dep = _ecmp_dep()
    for pop in _pops(dep):
        healthy = {tuple(sorted(l4.healthy_backends()))
                   for l4 in pop.l4lbs}
        assert healthy == {tuple(sorted(h.ip for h in pop.hosts))}


def test_all_katrans_lists_origin_and_every_pop_l4lb(two_l4lbs):
    dep = _ecmp_dep()
    assert {k.name for k in dep.all_katrans()} == {
        "r0-origin-katran", "r0p0-katran-0", "r0p0-katran-1",
        "r0p1-katran-0", "r0p1-katran-1"}


def test_same_seed_global_runs_are_byte_identical(two_l4lbs):
    def one_run():
        dep = _ecmp_dep(seed=9)
        return {scope: dep.metrics.scoped_counters(scope).snapshot()
                for scope in dep.metrics.scopes()}

    assert one_run() == one_run()
