"""The invariant suite: wiring, registry, and planted-fault detection."""

import pytest

from repro.fuzz.planted import planted_fault
from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import Scenario
from repro.invariants import (
    CHECKERS,
    InvariantChecker,
    InvariantSuite,
    make_checkers,
)
from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.experiments.common import build_deployment
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig


EXPECTED_CHECKERS = {
    "fd-conservation", "reuseport-stability", "request-conservation",
    "ppr-exactly-once", "mqtt-continuity", "capacity-floor",
    "drain-monotonicity", "retry-budget-sanity", "lb-routing-guarantee",
    "autoscaler-discipline", "evacuation-completeness",
    "cross-region-continuity", "cohort-conservation",
}


def _tiny_spec(**overrides):
    defaults = dict(seed=0, edge_proxies=1, origin_proxies=1,
                    app_servers=1, brokers=1, web_client_hosts=0,
                    mqtt_client_hosts=0, quic_client_hosts=0,
                    web_workload=None, mqtt_workload=None,
                    quic_workload=None)
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def _takeover_scenario(**overrides):
    """A minimal deterministic scenario with one edge ZDR release."""
    fields = dict(seed=0, duration=12.0, edge_proxies=1, origin_proxies=1,
                  app_servers=1, brokers=1, web_clients=4, mqtt_users=2,
                  quic_flows=0, post_fraction=0.1, drain_duration=3.0,
                  edge_takeover=True,
                  releases=[{"tier": "edge", "at": 2.0,
                             "batch_fraction": 0.5}])
    fields.update(overrides)
    return Scenario(**fields)


# -- registry ----------------------------------------------------------------


def test_registry_has_the_expected_checkers():
    assert set(CHECKERS) == EXPECTED_CHECKERS


def test_make_checkers_selection_and_unknown():
    selected = make_checkers(["fd-conservation", "mqtt-continuity"])
    assert [c.name for c in selected] == ["fd-conservation",
                                          "mqtt-continuity"]
    assert len(make_checkers(None)) == len(CHECKERS)
    with pytest.raises(ValueError):
        make_checkers(["no-such-checker"])


def test_checker_instances_are_fresh_per_call():
    assert make_checkers(["fd-conservation"])[0] is not \
        make_checkers(["fd-conservation"])[0]


# -- wiring ------------------------------------------------------------------


class _Recorder(InvariantChecker):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.events = []

    def on_event(self, event, **fields):
        self.events.append(event)


def test_taps_fire_through_a_release():
    deployment = Deployment(_tiny_spec())
    recorder = _Recorder()
    suite = InvariantSuite(deployment, checkers=[recorder])
    suite.attach()
    deployment.start()
    deployment.run(until=2.0)

    def do_release():
        release = RollingRelease(
            deployment.env, deployment.edge_servers,
            RollingReleaseConfig(batch_fraction=1.0))
        yield from release.execute()

    deployment.env.process(do_release())
    deployment.run(until=12.0)
    suite.finalize()
    assert "release_begin" in recorder.events
    assert "release_end" in recorder.events
    assert "takeover_begin" in recorder.events
    assert "takeover_end" in recorder.events


def test_suite_ignores_releases_of_other_deployments():
    ours = Deployment(_tiny_spec())
    other = Deployment(_tiny_spec(seed=1))
    recorder = _Recorder()
    InvariantSuite(ours, checkers=[recorder]).attach()
    ours.start()
    other.start()
    ours.run(until=2.0)

    def release_other():
        release = RollingRelease(
            other.env, other.edge_servers,
            RollingReleaseConfig(batch_fraction=1.0))
        yield from release.execute()

    other.env.process(release_other())
    other.run(until=12.0)
    assert "release_begin" not in recorder.events


def test_finalize_is_idempotent():
    deployment = Deployment(_tiny_spec())
    suite = InvariantSuite(deployment)
    suite.attach()
    deployment.start()
    deployment.run(until=3.0)
    first = suite.finalize()
    second = suite.finalize()
    assert first == second == []


# -- always-on runtime -------------------------------------------------------


def test_runtime_install_and_drain(built_runs):
    """A harness-built run carries its suite on its record, where the
    tier-1 guard finds it."""
    deployment = build_deployment(edge_proxies=1, origin_proxies=1,
                                  app_servers=1)
    (run,) = built_runs
    assert run is deployment.run_record
    assert run.suite._on_announce in run.listeners
    deployment.run(until=3.0)
    assert run.suite.finalize() == []


# -- planted faults are caught ----------------------------------------------


def test_clean_takeover_scenario_has_no_violations():
    result = run_scenario(_takeover_scenario())
    assert result.ok, [str(v) for v in result.violations]


def test_fd_checker_catches_planted_takeover_leak():
    result = run_scenario(_takeover_scenario(planted="leak_takeover_fd"))
    assert "fd-conservation" in result.violated_checkers()


def test_drain_checker_catches_planted_gate_skip():
    result = run_scenario(_takeover_scenario(planted="skip_drain_gate"))
    assert "drain-monotonicity" in result.violated_checkers()


def test_mqtt_checker_catches_planted_session_drop():
    """Every Origin is released twice.  The Edge's tunnels share its one
    upstream connection, so each release re-homes all of them in one
    wave, and every ReConnect of a wave reaches the broker before any
    old path dies; the plant's loss shows in the second wave, whose
    ReConnects find the sessions the first wave's teardown dropped."""
    scenario = _takeover_scenario(
        duration=16.0, origin_proxies=2, mqtt_users=6,
        releases=[{"tier": "origin", "at": at, "batch_fraction": 1.0}
                  for at in (2.0, 9.0)],
        planted="drop_broker_sessions")
    result = run_scenario(scenario)
    assert "mqtt-continuity" in result.violated_checkers()


def test_unknown_planted_fault_raises():
    with pytest.raises(ValueError):
        with planted_fault("definitely_not_a_plant"):
            pass


# -- autoscaler discipline ---------------------------------------------------


def _autoscaler_checker(deployment=None):
    from repro.invariants.checkers import AutoscalerDisciplineChecker

    class _Suite:
        pass

    suite = _Suite()
    suite.deployment = deployment or Deployment(_tiny_spec())
    checker = AutoscalerDisciplineChecker()
    checker.attach(suite)
    return checker


def test_autoscaler_checker_flags_scale_in_of_non_active_member():
    checker = _autoscaler_checker()
    checker.on_event("autoscale_in", pool="app", target=None,
                     target_state="draining", size_before=3, size_after=2,
                     min_size=1, max_size=4)
    assert len(checker.violations) == 1
    assert "draining" in checker.violations[0].message


def test_autoscaler_checker_flags_bound_breaches():
    checker = _autoscaler_checker()
    checker.on_event("autoscale_in", pool="app", target=None,
                     target_state="active", size_before=1, size_after=0,
                     min_size=1, max_size=4)
    checker.on_event("autoscale_out", pool="edge", size_before=4,
                     size_after=5, min_size=1, max_size=4)
    assert len(checker.violations) == 2
    assert "capacity floor" in checker.violations[0].message
    assert "above bound" in checker.violations[1].message


def test_autoscaler_checker_accepts_disciplined_decisions():
    checker = _autoscaler_checker()
    checker.on_event("autoscale_out", pool="app", size_before=2,
                     size_after=3, min_size=1, max_size=4)
    checker.on_event("autoscale_in", pool="app", target=None,
                     target_state="active", size_before=3, size_after=2,
                     min_size=1, max_size=4)
    checker.finalize()  # no autoscalers attached: bounds pass trivially
    assert not checker.violations


def test_autoscaler_checker_samples_pool_bounds():
    deployment = Deployment(_tiny_spec())

    class _Adapter:
        def size(self):
            return 0  # below MIN_SIZE

    class _Scaler:
        name = "autoscaler-app"
        adapter = _Adapter()

    deployment.autoscalers.append(_Scaler())
    checker = _autoscaler_checker(deployment)
    checker.sample()
    assert checker.violations
    assert "outside" in checker.violations[0].message
