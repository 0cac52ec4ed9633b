"""Katran: routing, health checks, LRU behaviour."""

import pytest

from repro.lb import Katran, KatranConfig, LruConnectionTable
from repro.lb import katran as l4lb
from repro.netsim import Endpoint, FourTuple, Protocol


def _flow(src_port, dst_ip="10.0.0.99", dst_port=443, proto=Protocol.TCP):
    return FourTuple(proto, Endpoint("1.2.3.4", src_port),
                     Endpoint(dst_ip, dst_port))


def _pool(world, count=4, accepting=True):
    """Backends with listeners on :443 plus a Katran host."""
    backends, listeners = [], []
    for i in range(count):
        host = world.host(f"proxy-{i}")
        proc = host.spawn("proxygen")
        _, listener = host.kernel.tcp_listen(proc, Endpoint(host.ip, 443))
        if not accepting:
            listener.pause_accepting()
        backends.append(host)
        listeners.append(listener)
    katran_host = world.host("katran-host")
    return backends, listeners, katran_host


def test_route_spreads_over_backends(world):
    backends, _, kh = _pool(world)
    katran = Katran(kh, backends)
    chosen = {katran.route(_flow(p)) for p in range(1000, 1200)}
    assert chosen == {b.ip for b in backends}


def test_route_is_flow_stable(world):
    backends, _, kh = _pool(world)
    katran = Katran(kh, backends)
    flow = _flow(5555)
    assert len({katran.route(flow) for _ in range(10)}) == 1


def test_route_empty_pool_returns_none(world):
    kh = world.host("katran-host")
    katran = Katran(kh, [])
    assert katran.route(_flow(1)) is None


def test_health_check_keeps_accepting_backend_up(world, monkeypatch):
    backends, _, kh = _pool(world, count=2)
    monkeypatch.setattr(l4lb, "HC_INTERVAL", 0.5)
    katran = Katran(kh, backends)
    proc = kh.spawn("katran")
    katran.start(proc)
    world.env.run(until=5)
    assert katran.healthy_backends() == [b.ip for b in backends]


def test_health_check_removes_draining_backend(world, monkeypatch):
    backends, listeners, kh = _pool(world, count=3)
    monkeypatch.setattr(l4lb, "HC_INTERVAL", 0.5)
    katran = Katran(kh, backends)
    proc = kh.spawn("katran")
    katran.start(proc)
    world.env.run(until=3)
    listeners[0].pause_accepting()   # HardRestart draining behaviour
    world.env.run(until=8)
    assert backends[0].ip not in katran.healthy_backends()
    assert set(katran.healthy_backends()) == {backends[1].ip, backends[2].ip}
    # No flow routes to the drained backend any more.
    routed = {katran.route(_flow(p)) for p in range(2000, 2100)}
    assert backends[0].ip not in routed


def test_backend_recovers_after_resume(world, monkeypatch):
    backends, listeners, kh = _pool(world, count=2)
    monkeypatch.setattr(l4lb, "HC_INTERVAL", 0.5)
    katran = Katran(kh, backends)
    proc = kh.spawn("katran")
    katran.start(proc)
    world.env.run(until=2)
    listeners[0].pause_accepting()
    world.env.run(until=6)
    assert backends[0].ip not in katran.healthy_backends()
    listeners[0].accepting = True
    world.env.run(until=10)
    assert backends[0].ip in katran.healthy_backends()


def test_lru_pins_flow_across_ring_flap(world):
    """§5.1: the LRU absorbs momentary topology shuffles so existing
    flows keep landing on the same backend."""
    backends, listeners, kh = _pool(world, count=4)
    katran = Katran(kh, backends,
                    config=KatranConfig(lb_scheme="lru"))
    flows = [_flow(p) for p in range(3000, 3100)]
    before = {f: katran.route(f) for f in flows}
    # A backend flaps out and back (no LRU invalidation on flap).
    victim = before[flows[0]]
    state = katran.backends[victim]
    for _ in range(5):
        katran._mark(state, healthy=False)
    # Other flows must stay pinned (their backend is still healthy).
    for flow in flows:
        if before[flow] != victim:
            assert katran.route(flow) == before[flow]
    for _ in range(5):
        katran._mark(state, healthy=True)
    # After recovery, even the victim's flows return to their backend
    # only if rehashed identically; the LRU was re-pinned meanwhile.
    routed = {f: katran.route(f) for f in flows}
    for flow in flows:
        if before[flow] != victim:
            assert routed[flow] == before[flow]


def test_without_lru_flap_remaps_flows(world):
    backends, listeners, kh = _pool(world, count=4)
    katran = Katran(kh, backends,
                    config=KatranConfig(lb_scheme="stateless"))
    flows = [_flow(p) for p in range(4000, 4400)]
    before = {f: katran.route(f) for f in flows}
    victim_ip = backends[0].ip
    state = katran.backends[victim_ip]
    for _ in range(5):
        katran._mark(state, healthy=False)
    for _ in range(5):
        katran._mark(state, healthy=True)
    after = {f: katran.route(f) for f in flows}
    # Consistent hashing restores the original mapping after recovery...
    assert before == after
    # ...but DURING the flap the victim's flows were remapped:
    for _ in range(5):
        katran._mark(state, healthy=False)
    during = {f: katran.route(f) for f in flows}
    moved = sum(1 for f in flows
                if before[f] == victim_ip and during[f] != before[f])
    assert moved == sum(1 for f in flows if before[f] == victim_ip) > 0


def test_probe_completing_on_timeout_tick_is_closed(world, monkeypatch):
    """Regression: when the handshake completed on the very tick the
    probe timeout fired, ``with_timeout`` reported TIMED_OUT but the
    attempt event had already triggered — the close-on-late-completion
    callback was never attached and the established connection leaked,
    one per probe, forever.

    The race needs HC_TIMEOUT == exactly one handshake RTT (2 × the
    1ms test link latency) so both events land on the same tick.
    """
    backends, _, kh = _pool(world, count=1)
    fd_before = [p.fd_table.live_count()
                 for p in backends[0].live_processes()]
    monkeypatch.setattr(l4lb, "HC_INTERVAL", 0.5)
    monkeypatch.setattr(l4lb, "HC_TIMEOUT", 0.002)
    katran = Katran(kh, backends)
    proc = kh.spawn("katran")
    katran.start(proc)
    world.env.run(until=20)
    assert katran.counters.get("hc_probe", tag="fail") > 0  # race was hit
    # Every probe connection must be closed again: nothing may accrete
    # on the prober...
    assert proc.connection_count == 0
    # ...and the backend gains no lingering FDs either.
    assert [p.fd_table.live_count()
            for p in backends[0].live_processes()] == fd_before


def test_remove_backend_decommissions_for_good(world, monkeypatch):
    backends, _, kh = _pool(world, count=4)
    monkeypatch.setattr(l4lb, "HC_INTERVAL", 0.5)
    katran = Katran(kh, backends)
    proc = kh.spawn("katran")
    katran.start(proc)
    world.env.run(until=3)
    flows = [_flow(p) for p in range(5000, 5400)]
    before = {f: katran.route(f) for f in flows}
    victim = before[flows[0]]
    state = katran.backends[victim]
    probes_at_removal = katran.counters.get("hc_probe", tag="ok")
    successes_at_removal = state.consecutive_successes
    katran.remove_backend(victim)
    # All traces gone: membership, ring share, LRU pins.
    assert victim not in katran.backends
    assert victim not in katran.ring
    assert state.decommissioned
    assert katran.lru.invalidate_value(victim) == 0  # already purged
    assert victim not in {katran.route(f) for f in flows}
    # Its health-check loop stops: ten more seconds of probing covers
    # only the three remaining backends (20 probes each).
    world.env.run(until=13)
    grown = katran.counters.get("hc_probe", tag="ok") - probes_at_removal
    assert grown <= 3 * 20 + 3
    # No post-removal marking, even from a probe in flight at removal.
    assert state.consecutive_successes == successes_at_removal
    assert victim not in katran.healthy_backends()


def test_remove_absent_backend_is_noop(world):
    backends, _, kh = _pool(world, count=2)
    katran = Katran(kh, backends)
    katran.remove_backend("10.99.99.99")
    assert len(katran.backends) == 2


def test_lru_connection_table_basics():
    lru = LruConnectionTable(capacity=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1
    lru.put("c", 3)          # evicts "b" (least recently used)
    assert lru.get("b") is None
    assert lru.get("a") == 1
    assert lru.evictions == 1


def test_lru_invalidate_value():
    lru = LruConnectionTable(capacity=10)
    lru.put("f1", "backend-1")
    lru.put("f2", "backend-1")
    lru.put("f3", "backend-2")
    assert lru.invalidate_value("backend-1") == 2
    assert lru.get("f1") is None
    assert lru.get("f3") == "backend-2"


def test_lru_capacity_validation():
    with pytest.raises(ValueError):
        LruConnectionTable(capacity=0)
