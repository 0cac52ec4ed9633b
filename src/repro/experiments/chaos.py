"""Chaos: the Fig 12 release comparison rerun under a named fault plan.

Every §6 figure measures releases on a *healthy* fleet.  This harness
replays the same full-stack workload and edge release while a
:mod:`repro.faults` plan is active — by default ``hc-flap-storm``, the
§5.1 health-check-flap incident — and drives the release through the
hardened orchestrator (per-batch timeout, retry with backoff, error
budget).  The paper's claim must survive chaos: Zero Downtime Release
still beats HardRestart on user-visible errors when the environment
itself is misbehaving.
"""

from __future__ import annotations

from dataclasses import replace

from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..faults import builtin_plan
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, fault_summary, \
    sum_counter

__all__ = ["run", "run_arm"]

#: The fault plan both arms run under (see ``repro.faults``).
PLAN_NAME = "hc-flap-storm"


def run_arm(zdr: bool, seed: int = 0,
            warmup: float = 20.0, measure: float = 80.0,
            drain: float = 10.0, fault_at: float = 8.0,
            fault_duration: float = 45.0,
            options: RunOptions = RunOptions()) -> dict:
    """One release arm (ZDR or HardRestart) under :data:`PLAN_NAME`.

    The fault window opens ``fault_at`` seconds into the measurement
    phase, so the release (which starts at its beginning) runs right
    through it.
    """
    plan = builtin_plan(PLAN_NAME, at=warmup + fault_at,
                        duration=fault_duration)
    edge_config = ProxygenConfig(
        mode="edge", drain_duration=drain, enable_takeover=zdr,
        enable_dcr=zdr, spawn_delay=2.0,
        takeover_handshake_timeout=6.0)
    origin_config = ProxygenConfig(
        mode="origin", drain_duration=drain, enable_takeover=zdr,
        enable_dcr=zdr, spawn_delay=2.0,
        takeover_handshake_timeout=6.0)
    dep = build_deployment(
        seed=seed, edge_proxies=4, origin_proxies=3, app_servers=4,
        edge_config=edge_config, origin_config=origin_config,
        app_config=AppServerConfig(drain_duration=2.0,
                                   restart_downtime=3.0, enable_ppr=zdr),
        web=WebWorkloadConfig(clients_per_host=25, think_time=1.0,
                              post_fraction=0.25,
                              post_size_min=200_000,
                              post_size_cap=2_000_000,
                              upload_bandwidth=200_000.0),
        mqtt=MqttWorkloadConfig(users_per_host=25, publish_interval=4.0),
        options=replace(options, fault_plan=plan))
    dep.run(until=warmup)

    # The hardened orchestrator: bounded batches, retries with backoff,
    # and a generous error budget so the walk completes even when a
    # batch hits the fault window head-on.
    release_config = RollingReleaseConfig(
        batch_fraction=0.34,
        batch_timeout=35.0,
        max_attempts=3,
        retry_backoff=3.0,
        backoff_factor=2.0,
        error_budget=len(dep.edge_servers))
    release = RollingRelease(dep.env, dep.edge_servers, release_config,
                             name="chaos-edge-release")
    dep.env.process(release.execute())
    dep.run(until=warmup + measure)

    clients = dep.metrics.prefix_counters("web-clients")
    mqtt = dep.metrics.prefix_counters("mqtt-clients")
    errors = (clients.get("get_conn_reset") + clients.get("post_conn_reset")
              + clients.get("get_error") + clients.get("post_error")
              + clients.get("get_timeout") + clients.get("post_timeout")
              + clients.get("connect_timeout")
              + clients.get("connect_refused")
              + mqtt.get("session_broken"))
    ok = clients.get("get_ok") + clients.get("post_ok")
    return {
        "errors": errors,
        "requests_ok": ok,
        "error_ratio": errors / max(1.0, errors + ok),
        "released": len(release.completed_targets),
        "failed_targets": len(release.failed_targets),
        "aborted": release.aborted,
        "batch_attempts": sum(b.attempts for b in release.batches),
        "timed_out_batches": sum(1 for b in release.batches if b.timed_out),
        "forced_probe_fails": sum_counter(
            [dep.edge_katran, dep.origin_katran], "hc_probe_forced_fail"),
        "faults": fault_summary(dep),
        "run": dep.run_record,
    }


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    zdr = run_arm(True, seed=seed, options=options)
    hard = run_arm(False, seed=seed, options=options)

    result = ExperimentResult(
        name=f"chaos: edge release under fault plan '{PLAN_NAME}'",
        params={"seed": seed, "plan": PLAN_NAME},
        faults=zdr["faults"], runs=[zdr["run"], hard["run"]])
    for label, arm in (("zdr", zdr), ("hard", hard)):
        result.scalars[f"errors_{label}"] = arm["errors"]
        result.scalars[f"requests_ok_{label}"] = arm["requests_ok"]
        result.scalars[f"error_ratio_{label}"] = arm["error_ratio"]
        result.scalars[f"released_{label}"] = arm["released"]
        result.scalars[f"batch_attempts_{label}"] = arm["batch_attempts"]
    result.scalars["error_ratio_hard_over_zdr"] = (
        hard["error_ratio"] / max(1e-9, zdr["error_ratio"]))

    result.claims.update({
        # The headline: the ZDR advantage survives the incident.
        "zdr_beats_hard_on_error_ratio":
            zdr["error_ratio"] < hard["error_ratio"],
        # The faults really fired (this was not a clean baseline)...
        "faults_injected": any(
            e["injected_at"] is not None
            for e in zdr["faults"].get("events", [])),
        # ...and the hardened orchestrator still walked the whole fleet.
        "zdr_release_completed":
            zdr["released"] == 4 and not zdr["aborted"],
    })
    return result
