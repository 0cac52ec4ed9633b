"""FaultInjector: every fault kind injects and clears deterministically.

Deployments here run without client workloads — these tests observe the
component-level fault state directly; end-to-end effects under load are
covered by the chaos integration test.
"""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.options import RunOptions, current, use
from repro.proxygen.config import ProxygenConfig


def _deployment(plan=None, seed=0, **spec_kwargs):
    kwargs = dict(
        edge_proxies=3, origin_proxies=2, app_servers=3, brokers=1,
        web_client_hosts=0, mqtt_client_hosts=0, quic_client_hosts=0,
        web_workload=None, mqtt_workload=None, quic_workload=None)
    kwargs.update(spec_kwargs)
    spec = DeploymentSpec(seed=seed, **kwargs)
    dep = Deployment(spec, fault_plan=plan)
    dep.start()
    return dep


def _plan(*specs, name="test-plan"):
    return FaultPlan(name, list(specs))


def test_hc_flap_takes_backends_down_and_recovers():
    plan = _plan(FaultSpec("hc_flap", where="edge-proxy-*", at=6.0,
                           duration=8.0,
                           params={"fail_probability": 1.0}))
    dep = _deployment(plan)
    dep.run(until=5.0)
    assert len(dep.edge_katran.healthy_backends()) == 3
    dep.run(until=12.0)  # all probes forced to fail since t=6
    assert dep.edge_katran.healthy_backends() == []
    assert dep.edge_katran.counters.get("hc_probe_forced_fail") > 0
    dep.run(until=25.0)  # cleared at t=14; up_threshold=1 re-adds
    assert len(dep.edge_katran.healthy_backends()) == 3
    assert dep.edge_katran.forced_probe_failure == {}
    faults = dep.metrics.scoped_counters("faults")
    assert faults.get("injected", tag="hc_flap") == 1
    assert faults.get("cleared", tag="hc_flap") == 1


def test_slow_host_scales_cpu_and_restores():
    plan = _plan(FaultSpec("slow_host", where="appserver-1", at=2.0,
                           duration=5.0, params={"speed_factor": 0.5}))
    dep = _deployment(plan)
    host = dep.app_hosts[1]
    original = host.cpu.speed
    dep.run(until=4.0)
    assert host.cpu.speed == original * 0.5
    # Untouched hosts stay at full speed.
    assert dep.app_hosts[0].cpu.speed == original
    dep.run(until=10.0)
    assert host.cpu.speed == original


def test_link_degradation_swaps_and_restores_profile():
    plan = _plan(FaultSpec("link_degradation", where="client:edge",
                           at=1.0, duration=4.0,
                           params={"latency_multiplier": 10.0,
                                   "extra_loss": 0.25}))
    dep = _deployment(plan)
    original = dep.network.get_profile("client", "edge")
    dep.run(until=2.0)
    degraded = dep.network.get_profile("client", "edge")
    assert degraded.latency == original.latency * 10.0
    assert degraded.loss == pytest.approx(original.loss + 0.25)
    # Both directions degrade...
    assert dep.network.get_profile("edge", "client").latency == \
        degraded.latency
    dep.run(until=6.0)
    # ...and the exact original objects come back.
    assert dep.network.get_profile("client", "edge") == original


def test_host_crash_app_server_down_then_rebooted():
    plan = _plan(FaultSpec("host_crash", where="appserver-0", at=3.0,
                           duration=5.0))
    dep = _deployment(plan)
    app = dep.app_servers[0]
    dep.run(until=4.0)
    assert app.state == app.STATE_DOWN
    assert not app.process.alive
    assert app.counters.get("crashes") == 1
    dep.run(until=10.0)
    assert app.state == app.STATE_ACTIVE
    assert app.counters.get("reboots") == 1


def test_host_crash_proxy_down_then_rebooted():
    plan = _plan(FaultSpec("host_crash", where="edge-proxy-1", at=6.0,
                           duration=6.0))
    dep = _deployment(plan)
    server = dep.edge_servers[1]
    dep.run(until=7.0)
    assert server.instance_count == 0
    dep.run(until=20.0)  # clear at 12 + spawn_delay 2
    assert server.instance_count == 1
    assert server.active_instance.serving


def test_takeover_stall_flag_set_and_cleared():
    plan = _plan(FaultSpec("takeover_stall", where="edge-proxy-*",
                           at=2.0, duration=3.0))
    dep = _deployment(plan)
    dep.run(until=3.0)
    assert all(s.takeover_fault == "stall" for s in dep.edge_servers)
    assert all(s.takeover_fault is None for s in dep.origin_servers)
    dep.run(until=6.0)
    assert all(s.takeover_fault is None for s in dep.edge_servers)


def test_per_server_fault_attributes_flip_and_clear():
    plan = _plan(
        FaultSpec("udp_fd_leak", where="edge-proxy-0", at=1.0,
                  duration=4.0),
        FaultSpec("rogue_status", where="appserver-*", at=1.0,
                  duration=4.0, params={"fraction": 0.4}),
        FaultSpec("upstream_truncate", where="appserver-1", at=1.0,
                  duration=4.0, params={"fraction": 0.9}))
    dep = _deployment(plan)
    dep.run(until=2.0)
    assert dep.edge_servers[0].fault_ignore_udp_fds
    assert not dep.edge_servers[1].fault_ignore_udp_fds
    assert all(a.fault_rogue_fraction == 0.4 for a in dep.app_servers)
    assert all(a.effective_rogue_fraction == 0.4 for a in dep.app_servers)
    assert dep.app_servers[1].fault_truncate_fraction == 0.9
    assert dep.app_servers[0].fault_truncate_fraction == 0.0
    dep.run(until=6.0)
    assert not dep.edge_servers[0].fault_ignore_udp_fds
    assert all(a.fault_rogue_fraction is None for a in dep.app_servers)
    assert dep.app_servers[1].fault_truncate_fraction == 0.0


def test_persistent_fault_never_clears():
    plan = _plan(FaultSpec("slow_host", where="edge-proxy-0", at=1.0,
                           duration=None))
    dep = _deployment(plan)
    original = dep.edge_hosts[0].cpu.speed
    dep.run(until=50.0)
    assert dep.edge_hosts[0].cpu.speed < original
    record = dep.fault_injector.records[0]
    assert record.state == "active"
    assert record.cleared_at is None


def test_no_target_recorded():
    plan = _plan(FaultSpec("host_crash", where="mainframe-*", at=1.0,
                           duration=2.0))
    dep = _deployment(plan)
    dep.run(until=5.0)
    record = dep.fault_injector.records[0]
    assert record.state == "no_target"
    assert dep.metrics.scoped_counters("faults").get(
        "no_target", tag="host_crash") == 1


def test_sampling_is_deterministic_per_seed():
    def targets(seed):
        plan = _plan(FaultSpec("udp_fd_leak", where="edge-proxy-*",
                               at=1.0, duration=2.0,
                               params={"sample": 0.5}))
        dep = _deployment(plan, seed=seed, edge_proxies=6)
        dep.run(until=2.0)
        return list(dep.fault_injector.records[0].targets)

    first = targets(seed=7)
    assert targets(seed=7) == first
    assert 1 <= len(first) <= 3


def test_summary_shape():
    plan = _plan(FaultSpec("hc_flap", where="edge-proxy-*", at=2.0,
                           duration=3.0), name="demo")
    dep = _deployment(plan)
    dep.run(until=10.0)
    summary = dep.fault_injector.summary()
    assert summary["plan"] == "demo"
    (event,) = summary["events"]
    assert event["kind"] == "hc_flap"
    assert event["state"] == "cleared"
    assert event["injected_at"] == pytest.approx(2.0)
    assert event["cleared_at"] == pytest.approx(5.0)
    assert event["targets"]


def test_run_options_plan_attaches_on_start():
    plan = _plan(FaultSpec("slow_host", where="appserver-*", at=1.0,
                           duration=2.0))
    with use(RunOptions(fault_plan=plan)):
        assert current().fault_plan is plan
        dep = _deployment()  # no explicit plan
        assert dep.fault_injector is not None
        assert dep.fault_injector.plan is plan
    assert current().fault_plan is None
    # Outside the block, new deployments run fault-free.
    assert _deployment().fault_injector is None


def test_attach_is_idempotent():
    plan = _plan(FaultSpec("slow_host", where="appserver-0", at=1.0,
                           duration=2.0))
    dep = _deployment(plan)
    dep.fault_injector.attach()  # second call must not double-schedule
    original = dep.app_hosts[0].cpu.speed
    dep.run(until=1.5)
    assert dep.app_hosts[0].cpu.speed == pytest.approx(original * 0.25)


def test_explicit_plan_beats_run_options():
    explicit = _plan(FaultSpec("slow_host", where="appserver-0", at=1.0),
                     name="explicit")
    optional = _plan(FaultSpec("slow_host", where="appserver-1", at=1.0),
                     name="options")
    with use(RunOptions(fault_plan=optional)):
        dep = _deployment(explicit)
        assert dep.fault_injector.plan.name == "explicit"


def test_takeover_stall_fails_release_then_retry_succeeds():
    """End-to-end §4.1 hardening: a stalled handshake times out, the
    half-born instance is reaped, the old one keeps serving, and the
    orchestrator's retry lands after the fault clears."""
    from repro.release.orchestrator import RollingRelease, \
        RollingReleaseConfig

    plan = _plan(FaultSpec("takeover_stall", where="edge-proxy-0",
                           at=0.0, duration=10.0))
    config = ProxygenConfig(mode="edge", drain_duration=3.0,
                            spawn_delay=0.5,
                            takeover_handshake_timeout=2.0)
    dep = _deployment(plan, edge_config=config)
    dep.run(until=5.0)
    server = dep.edge_servers[0]
    old_instance = server.active_instance

    release = RollingRelease(
        dep.env, [server],
        RollingReleaseConfig(batch_fraction=1.0, max_attempts=3,
                             retry_backoff=4.0))
    dep.env.process(release.execute())
    dep.run(until=9.0)
    # First attempt failed: old generation still active and serving.
    assert server.counters.get("takeover_failed") >= 1
    assert server.active_instance is old_instance
    assert old_instance.serving
    dep.run(until=25.0)
    # Retry after the fault window: release went through.
    assert not release.failed_targets
    assert server.releases_completed == 1
    assert server.active_instance is not old_instance
    assert server.active_instance.serving
    # The failed attempt left its trace for the operator.
    assert any("TakeoverFailed" in err
               for err in release.errors.values())

# -- overlapping windows compose and restore ---------------------------------


def test_overlapping_slow_host_windows_compose_and_restore():
    """Two overlapping slowdowns multiply; each clear peels off only its
    own factor, and the last one restores the exact base speed."""
    plan = _plan(
        FaultSpec("slow_host", where="appserver-0", at=1.0, duration=8.0,
                  params={"speed_factor": 0.5}),
        FaultSpec("slow_host", where="appserver-0", at=3.0, duration=2.0,
                  params={"speed_factor": 0.1}))
    dep = _deployment(plan)
    host = dep.app_hosts[0]
    original = host.cpu.speed
    dep.run(until=2.0)
    assert host.cpu.speed == pytest.approx(original * 0.5)
    dep.run(until=4.0)  # both active
    assert host.cpu.speed == pytest.approx(original * 0.5 * 0.1)
    dep.run(until=6.0)  # inner window cleared: outer factor survives
    assert host.cpu.speed == pytest.approx(original * 0.5)
    dep.run(until=12.0)  # outer cleared: exact base back
    assert host.cpu.speed == original


def test_overlapping_link_overrides_unwind_in_any_order():
    """A partition layered over a degradation: clearing the earlier
    (longer) degradation must not resurrect the pre-partition profile,
    and clearing both must restore the exact original object."""
    plan = _plan(
        FaultSpec("link_degradation", where="client:edge", at=1.0,
                  duration=10.0, params={"latency_multiplier": 3.0}),
        FaultSpec("wan_partition", where="client:edge", at=2.0,
                  duration=12.0))
    dep = _deployment(plan)
    original = dep.network.get_profile("client", "edge")
    dep.run(until=1.5)
    assert dep.network.get_profile("client", "edge").latency == \
        pytest.approx(original.latency * 3.0)
    dep.run(until=3.0)  # both: degraded latency AND total loss
    stacked = dep.network.get_profile("client", "edge")
    assert stacked.loss == 1.0
    assert stacked.latency == pytest.approx(original.latency * 3.0)
    dep.run(until=12.0)  # degradation cleared; partition still up
    assert dep.network.get_profile("client", "edge").loss == 1.0
    assert dep.network.get_profile("client", "edge").latency == \
        pytest.approx(original.latency)
    dep.run(until=16.0)  # all cleared: the exact base object returns
    assert dep.network.get_profile("client", "edge") == original


# -- region-scale kinds -------------------------------------------------------


def test_wan_partition_blackholes_and_restores_matched_pairs():
    plan = _plan(FaultSpec("wan_partition", where="client:edge", at=1.0,
                           duration=3.0))
    dep = _deployment(plan)
    original = dep.network.get_profile("client", "edge")
    dep.run(until=2.0)
    assert dep.network.get_profile("client", "edge").loss == 1.0
    assert dep.network.get_profile("edge", "client").loss == 1.0
    record = dep.fault_injector.records[0]
    assert sorted(record.targets) == ["client:edge", "edge:client"]
    dep.run(until=6.0)
    assert dep.network.get_profile("client", "edge") == original


def test_region_outage_is_correlated_host_crash_by_site_glob():
    plan = _plan(FaultSpec("region_outage", where="edge*", at=2.0,
                           duration=6.0))
    dep = _deployment(plan)
    dep.run(until=3.0)
    # Every edge proxy died together; the origin tier is untouched.
    assert all(s.instance_count == 0 for s in dep.edge_servers)
    assert all(s.active_instance is not None
               for s in dep.origin_servers)
    dep.run(until=20.0)
    assert all(s.instance_count == 1 for s in dep.edge_servers)


def test_site_glob_targets_every_host_on_matched_sites():
    plan = _plan(FaultSpec("slow_host", where="origin", at=1.0,
                           duration=2.0, params={"speed_factor": 0.5}))
    dep = _deployment(plan)
    dep.run(until=1.5)
    record = dep.fault_injector.records[0]
    slowed = set(record.targets)
    expected = {h.name for h in dep.network.hosts() if h.site == "origin"}
    assert slowed == expected
