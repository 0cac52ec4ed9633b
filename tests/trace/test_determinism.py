"""Determinism guarantees: same seed ⇒ byte-identical trace exports.

These are the load-bearing properties of the tracing subsystem: a traced
run must replay exactly (trace ids from the seeded stream, span times
from the sim clock, no message ids in the export), and a
fuzz repro file must round-trip the trace of the violating run.
"""

import json

from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.experiments.common import (build_deployment,
                                      build_regional_deployment)
from repro.faults import builtin_plan
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import Scenario, generate_scenario
from repro.proxygen.config import ProxygenConfig
from repro.regions import evacuate_region
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.trace import TraceConfig
from repro.options import RunOptions, use


def _traced_run(seed: int) -> str:
    """One full traced run — release + fault plan — returning the JSON
    export."""
    plan = FaultPlan(
        name="det-test",
        specs=[FaultSpec(kind="slow_host", where="appserver-0", at=4.0,
                         duration=3.0, params={"speed_factor": 0.5})],
        description="deterministic slowdown")
    options = RunOptions(trace=TraceConfig(sample_rate=1.0,
                                           max_traces=500))
    with use(options):
        deployment = build_deployment(
            seed=seed, edge_proxies=2, origin_proxies=1,
            app_servers=2,
            edge_config=ProxygenConfig(mode="edge", drain_duration=3.0,
                                       spawn_delay=0.5),
            web=WebWorkloadConfig(clients_per_host=6, think_time=0.6,
                                  post_fraction=0.2),
            mqtt=MqttWorkloadConfig(users_per_host=4,
                                    publish_interval=2.0),
            fault_plan=plan)
    deployment.run(until=6.0)
    release = RollingRelease(deployment.env, deployment.edge_servers,
                             RollingReleaseConfig(batch_fraction=0.5))
    deployment.env.process(release.execute())
    deployment.run(until=16.0)
    return deployment.run_record.tracer.to_json()


def test_same_seed_runs_export_byte_identical_json():
    # Two runs in the same process, nothing reset in between.
    first = _traced_run(5)
    second = _traced_run(5)
    assert first == second

    doc = json.loads(first)
    assert doc["traces"], "a traced run must retain traces"
    event_names = {event["name"] for event in doc["events"]}
    # Every window of the run feeds the event log: the release walk,
    # its takeovers and drains, and the explicit fault plan's window.
    assert {"release_begin", "release_end", "takeover_begin",
            "takeover_end", "drain_begin", "fault_begin",
            "fault_end"} <= event_names


def _window_run(build, drive) -> dict:
    """One traced harness-built run with a mechanism window in it,
    exported twice over (the export is what must be byte-equal)."""
    exports = []
    for _ in range(2):
        deployment = build()
        drive(deployment)
        exports.append(deployment.run_record.tracer.to_json())
    assert exports[0] == exports[1]
    # Scalars only: an object's repr would carry an ``id()``.
    assert " at 0x" not in exports[0]
    return json.loads(exports[0])


def test_fault_windows_land_in_the_event_log_deterministically():
    """The CLI's ``--faults`` shape: the plan rides in the options."""
    options = RunOptions(
        trace=TraceConfig(),
        fault_plan=builtin_plan("hc-flap-storm", at=3.0, duration=4.0))

    def build():
        with use(options):
            return build_deployment(
                seed=3, edge_proxies=2, origin_proxies=1, app_servers=2,
                web=WebWorkloadConfig(clients_per_host=4, think_time=0.6))

    doc = _window_run(build, lambda deployment: deployment.run(until=9.0))
    faults = [e for e in doc["events"] if e["name"].startswith("fault_")]
    assert [(e["at"], e["name"]) for e in faults] == [
        (3.0, "fault_begin"), (7.0, "fault_end")]
    assert faults[0]["kind"] == "hc_flap" and faults[0]["targets"] == 2
    assert "record" not in faults[0]  # the checkers' object field


def test_an_evacuation_lands_in_the_event_log_deterministically():
    """``regionevac``'s shape: a region walks out under live load."""
    def build():
        with use(RunOptions(trace=TraceConfig())):
            return build_regional_deployment(
                seed=3, regions=2, proxies_per_pop=2,
                edge_config=ProxygenConfig(mode="edge", drain_duration=1.0,
                                           spawn_delay=0.2),
                web_workload=WebWorkloadConfig(clients_per_host=4,
                                               think_time=0.6))

    def drive(deployment):
        deployment.run(until=4.0)
        deployment.env.run(until=deployment.env.process(
            evacuate_region(deployment, "r1")))

    doc = _window_run(build, drive)
    names = [e["name"] for e in doc["events"]]
    assert names[0] == "evacuation_begin"
    assert names[-1] == "evacuation_end"
    assert names.count("drain_begin") >= 2  # edge and origin tiers
    assert all(e["scope"] == "r1" for e in doc["events"]
               if e["name"].startswith("evacuation_"))
    assert "region" not in doc["events"][0]  # the Region object


def test_different_seeds_diverge():
    assert _traced_run(5) != _traced_run(6)


def test_fuzz_repro_round_trips_embedded_trace():
    scenario = generate_scenario(0, planted="skip_drain_gate")
    result = run_scenario(scenario)
    assert result.violations, "planted fault must trip the invariants"
    assert result.trace is not None
    assert result.trace["traces"], "violating requests must be tail-kept"

    # What the fuzz CLI writes: scenario fields plus the trace export.
    doc = scenario.to_dict()
    doc["trace"] = result.trace
    restored = Scenario.from_json(json.dumps(doc, sort_keys=True))
    assert restored == scenario  # the trace rides along, not an input

    replay = run_scenario(restored)
    assert replay.violations == result.violations
    assert replay.trace == result.trace
