"""The pluggable FlowRouter design space (repro.lb.routers)."""

import pytest

from repro.lb import (
    ConcuryRouter,
    ConsistentHashRing,
    Katran,
    KatranConfig,
    LruHybridRouter,
    ROUTER_SCHEMES,
    StatefulRouter,
    StatelessRouter,
    make_router,
)
from repro.options import RunOptions


def _key(i):
    return ("tcp", ("1.2.3.4", 1024 + i), ("100.64.0.1", 443))


def _router(scheme, **kwargs):
    clock = kwargs.pop("clock", None) or [0.0]
    ring = ConsistentHashRing(replicas=50, salt=3)
    router = make_router(scheme, ring, clock=lambda: clock[0], **kwargs)
    for i in range(6):
        router.backend_added(f"10.0.0.{i + 1}")
    return router, clock


# -- factory -----------------------------------------------------------------


def test_make_router_builds_each_scheme():
    classes = {"stateless": StatelessRouter, "stateful": StatefulRouter,
               "lru": LruHybridRouter, "concury": ConcuryRouter}
    for scheme in ROUTER_SCHEMES:
        router, _ = _router(scheme)
        assert isinstance(router, classes[scheme])
        assert router.scheme == scheme


def test_make_router_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        make_router("bogus", ConsistentHashRing())


def test_katran_config_resolves_scheme():
    assert KatranConfig().resolved_scheme() == "lru"
    assert KatranConfig(lb_scheme="concury").resolved_scheme() == "concury"
    with pytest.raises(ValueError):
        KatranConfig(lb_scheme="bogus").resolved_scheme()


def test_run_options_scheme_set_and_clear():
    from repro import Deployment, DeploymentSpec

    dep = Deployment(DeploymentSpec(seed=0),
                     options=RunOptions(lb_scheme="stateful"))
    assert {k.router.scheme for k in dep.all_katrans()} == {"stateful"}
    with pytest.raises(ValueError):
        Deployment(DeploymentSpec(seed=0),
                   options=RunOptions(lb_scheme="bogus"))
    dep = Deployment(DeploymentSpec(seed=0))
    assert {k.router.scheme for k in dep.all_katrans()} == {"lru"}


# -- common routing contract -------------------------------------------------


@pytest.mark.parametrize("scheme", ROUTER_SCHEMES)
def test_route_is_stable_and_spreads(scheme):
    router, _ = _router(scheme)
    picks = {i: router.route(_key(i)) for i in range(300)}
    assert all(p in router.members for p in picks.values())
    assert len(set(picks.values())) == len(router.members)
    assert {i: router.route(_key(i)) for i in range(300)} == picks


@pytest.mark.parametrize("scheme", ROUTER_SCHEMES)
def test_empty_pool_routes_none(scheme):
    ring = ConsistentHashRing(replicas=10)
    router = make_router(scheme, ring)
    assert router.route(_key(0)) is None


@pytest.mark.parametrize("scheme", ROUTER_SCHEMES)
def test_invariants_clean_after_churn(scheme):
    router, _ = _router(scheme)
    for i in range(100):
        router.route(_key(i))
    router.backend_down("10.0.0.1")
    for i in range(100):
        router.route(_key(i))
    router.backend_up("10.0.0.1")
    router.backend_removed("10.0.0.2")
    for i in range(100):
        router.route(_key(i))
    assert router.check_invariants() == []


@pytest.mark.parametrize("scheme", ("stateful", "lru", "concury"))
def test_flap_does_not_remap_pinned_flows(scheme):
    """The §5.1 property every stateful design buys: a momentary health
    flap never moves an established flow (its backend stays a member)."""
    router, _ = _router(scheme)
    before = {i: router.route(_key(i)) for i in range(200)}
    victim = before[0]
    router.backend_down(victim)
    during = {i: router.route(_key(i)) for i in range(200)}
    assert during == before
    router.backend_up(victim)
    assert {i: router.route(_key(i)) for i in range(200)} == before


def test_stateless_flap_remaps_victim_flows():
    router, _ = _router("stateless")
    before = {i: router.route(_key(i)) for i in range(200)}
    victim = before[0]
    router.backend_down(victim)
    during = {i: router.route(_key(i)) for i in range(200)}
    moved = [i for i in before if before[i] != during[i]]
    assert moved and all(before[i] == victim for i in moved)


@pytest.mark.parametrize("scheme", ROUTER_SCHEMES)
def test_removed_backend_gets_no_flows(scheme):
    router, _ = _router(scheme)
    for i in range(200):
        router.route(_key(i))
    router.backend_removed("10.0.0.3")
    assert all(router.route(_key(i)) != "10.0.0.3" for i in range(200))
    assert router.check_invariants() == []


# -- per-scheme state models -------------------------------------------------


def test_stateless_holds_no_state():
    router, _ = _router("stateless")
    for i in range(500):
        router.route(_key(i))
    assert router.table_entries() == 0
    assert router.memory_stats() == {"table_entries": 0.0}


def test_stateful_readmits_an_expired_flow_by_ring():
    router, clock = _router("stateful", flow_ttl=10.0)
    first = router.route(_key(0))
    router.route(_key(1))
    assert router.table_entries() == 2
    clock[0] = 11.0
    # The expired entry is dropped and the flow re-admitted via the ring
    # (same membership, so the same backend).
    assert router.route(_key(0)) == first
    assert router.expired >= 1


def test_stateful_ttl_sweep_purges_idle_flows():
    router, clock = _router("stateful", flow_ttl=10.0)
    for i in range(50):
        router.route(_key(i))
    clock[0] = 20.0
    router.route(_key(999))  # triggers the sweep
    assert router.table_entries() == 1


def test_lru_respects_capacity():
    router, _ = _router("lru", lru_capacity=16)
    for i in range(100):
        router.route(_key(i))
    assert router.table_entries() <= 16
    assert router.check_invariants() == []


def test_concury_old_flows_resolve_against_their_version():
    router, _ = _router("concury")
    before = {i: router.route(_key(i)) for i in range(200)}
    victim = before[0]
    # Membership changes publish new versions; old flows keep resolving
    # against the version they were admitted under.
    router.backend_down(victim)
    assert {i: router.route(_key(i)) for i in range(200)} == before
    # A brand-new flow is admitted at head — never onto the down backend.
    new_picks = {router.route(_key(10_000 + i)) for i in range(200)}
    assert victim not in new_picks
    router.backend_up(victim)
    assert router.check_invariants() == []


def test_concury_version_cap_and_gc():
    router, clock = _router("concury", concury_max_versions=4,
                            flow_ttl=10.0)
    router.route(_key(0))
    for cycle in range(10):
        router.backend_down("10.0.0.1")
        router.backend_up("10.0.0.1")
    assert len(router._versions) <= 4
    assert router.check_invariants() == []
    # The flow's stamped version was retired: it re-admits at head (full
    # membership again, so the rendezvous pick is unchanged).
    assert router.route(_key(0)) in router.members
    assert router.version_misses >= 1
    # Idle stamps age out, and with them their unreferenced versions.
    clock[0] = 25.0
    router.route(_key(777))
    assert len(router._flow_version) == 1


def test_concury_state_is_versions_not_flows():
    router, _ = _router("concury")
    for i in range(300):
        router.route(_key(i))
    assert router.table_entries() == 0
    stats = router.memory_stats()
    assert stats["client_stamps"] == 300.0
    assert stats["version_tables"] >= 1.0


# -- takeover ----------------------------------------------------------------


def test_takeover_clone_drops_instance_local_state():
    for scheme in ("stateful", "lru"):
        router, _ = _router(scheme)
        for i in range(100):
            router.route(_key(i))
        clone = router.clone_for_takeover()
        assert clone.members == router.members
        assert clone.table_entries() == 0


def test_takeover_clone_keeps_concury_versions():
    router, _ = _router("concury")
    before = {i: router.route(_key(i)) for i in range(100)}
    victim = before[0]
    router.backend_down(victim)
    clone = router.clone_for_takeover()
    # Version tables are replicated control-plane state and the stamps
    # ride the packets, so the new instance keeps every flow home.
    assert {i: clone.route(_key(i)) for i in range(100)} == before


def test_takeover_clone_is_deterministic_for_stateless():
    router, _ = _router("stateless")
    before = {i: router.route(_key(i)) for i in range(100)}
    clone = router.clone_for_takeover()
    assert {i: clone.route(_key(i)) for i in range(100)} == before


# -- Katran integration -------------------------------------------------------


@pytest.mark.parametrize("scheme", ROUTER_SCHEMES)
def test_katran_builds_requested_router(world, scheme):
    kh = world.host("katran-host")
    backends = [world.host(f"b{i}") for i in range(3)]
    katran = Katran(kh, backends,
                    config=KatranConfig(lb_scheme=scheme))
    assert katran.router.scheme == scheme
    assert sorted(katran.router.members) == sorted(b.ip for b in backends)


def test_katran_lru_property_reflects_scheme(world):
    kh = world.host("katran-host")
    katran = Katran(kh, [world.host("b0")],
                    config=KatranConfig(lb_scheme="lru"))
    assert katran.lru is not None
    stateless = Katran(world.host("katran-2"), [world.host("b1")],
                       config=KatranConfig(lb_scheme="stateless"))
    assert stateless.lru is None
