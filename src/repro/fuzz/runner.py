"""Execute one scenario under the full invariant suite.

The runner is the bridge between a declarative :class:`~repro.fuzz.
scenario.Scenario` and a live deployment: it builds the cluster, attaches
an :class:`~repro.invariants.InvariantSuite`, schedules the scenario's
rolling releases as simulation processes, runs to the scenario horizon
and reports the violations.  Everything it does is a pure function of
the scenario, which is what makes repro files replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.quic import QuicWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..cluster.deployment import Deployment
from ..cluster.spec import DeploymentSpec
from ..cohorts import CohortPolicy
from ..invariants import InvariantSuite, InvariantViolation, make_checkers
from ..lb.katran import KatranConfig
from ..ops.load import named_load_shape
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..regions import RegionalDeployment, RegionalSpec
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from ..trace import TraceConfig
from .planted import planted_fault
from .scenario import Scenario

__all__ = ["FuzzRunResult", "run_scenario"]

#: Tail-only tracing: no head sampling, keep errored/flagged requests —
#: exactly what a repro file wants to embed.  The only option a fuzz run
#: takes besides its scenario's fault plan; everything else is the
#: scenario's.
FUZZ_OPTIONS = RunOptions(
    trace=TraceConfig(sample_rate=0.0))


@dataclass
class FuzzRunResult:
    """Outcome of one fuzz run."""

    scenario: Scenario
    violations: list[InvariantViolation] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    #: Trace export (tail-kept errored/flagged requests) when the run
    #: produced violations; ``None`` on clean runs.
    trace: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_checkers(self) -> set[str]:
        return {v.checker for v in self.violations}


def _shared_spec_kwargs(scenario: Scenario) -> dict:
    """What the scenario gives either layout's spec alike — whatever a
    spec field means on one it means on the other."""
    spawn_delay = 0.5
    return dict(
        seed=scenario.seed,
        origin_proxies=scenario.origin_proxies,
        app_servers=scenario.app_servers,
        brokers=scenario.brokers,
        edge_config=ProxygenConfig(
            mode="edge",
            enable_takeover=scenario.edge_takeover,
            drain_duration=scenario.drain_duration,
            spawn_delay=spawn_delay),
        origin_config=ProxygenConfig(
            mode="origin",
            drain_duration=scenario.drain_duration,
            spawn_delay=spawn_delay),
        app_config=AppServerConfig(
            drain_duration=min(3.0, scenario.drain_duration),
            restart_downtime=2.0),
        katran_config=KatranConfig(lb_scheme=scenario.lb_scheme),
        load_shape=(named_load_shape(scenario.load_shape,
                                     scenario.duration)
                    if scenario.load_shape else None),
        cohorts=(CohortPolicy.from_dict(scenario.cohorts)
                 if scenario.cohorts else None),
        web_workload=(WebWorkloadConfig(
            clients_per_host=scenario.web_clients,
            post_fraction=scenario.post_fraction,
            think_time=1.0,
            request_timeout=8.0)
            if scenario.web_clients > 0 else None),
    )


def _build_spec(scenario: Scenario) -> DeploymentSpec:
    """The scenario's cluster, shrunk-friendly and fast to simulate."""
    return DeploymentSpec(
        **_shared_spec_kwargs(scenario),
        edge_proxies=scenario.edge_proxies,
        web_client_hosts=1 if scenario.web_clients > 0 else 0,
        mqtt_client_hosts=1 if scenario.mqtt_users > 0 else 0,
        quic_client_hosts=1 if scenario.quic_flows > 0 else 0,
        mqtt_workload=(MqttWorkloadConfig(
            users_per_host=scenario.mqtt_users)
            if scenario.mqtt_users > 0 else None),
        quic_workload=(QuicWorkloadConfig(
            flows_per_host=scenario.quic_flows)
            if scenario.quic_flows > 0 else None),
    )


def _build_regional_spec(scenario: Scenario) -> RegionalSpec:
    """Multi-region variant: per-pop counts reuse the scenario fields."""
    return RegionalSpec(
        **_shared_spec_kwargs(scenario),
        regions=scenario.regions,
        pops_per_region=1,
        proxies_per_pop=scenario.edge_proxies,
        web_clients_per_pop=scenario.web_clients,
        mqtt_users_per_pop=scenario.mqtt_users,
        mqtt_workload=(MqttWorkloadConfig(
            users_per_host=scenario.mqtt_users,
            keepalive_timeout=20.0)
            if scenario.mqtt_users > 0 else None),
    )


def _release_targets(deployment: Deployment, tier: str) -> list:
    return {
        "edge": deployment.edge_servers,
        "origin": deployment.origin_servers,
        "app": deployment.app_servers,
    }[tier]


def _drive_release(deployment: Deployment, entry: dict, releases: list):
    """Simulation process: wait for the entry's start time, then walk."""
    yield deployment.env.timeout(entry["at"])
    targets = _release_targets(deployment, entry["tier"])
    if not targets:
        return
    config = RollingReleaseConfig(
        batch_fraction=entry.get("batch_fraction", 0.34),
        batch_timeout=12.0,
        max_attempts=2,
        retry_backoff=1.0)
    release = RollingRelease(deployment.env, targets, config,
                             name=f"fuzz-{entry['tier']}")
    releases.append(release)
    yield from release.execute()


def run_scenario(scenario: Scenario,
                 checkers: Optional[list[str]] = None,
                 env=None) -> FuzzRunResult:
    """Build, run and check one scenario (``checkers``: names or all).

    ``env`` swaps the simulation kernel (e.g. a frozen
    :class:`repro.simkernel.reference.Environment` for differential
    testing); ``None`` uses the optimized live kernel.
    """
    options = replace(FUZZ_OPTIONS, fault_plan=scenario.fault_plan())
    with planted_fault(scenario.planted):
        if scenario.regions > 1:
            deployment = RegionalDeployment(
                _build_regional_spec(scenario), env=env, options=options)
        else:
            deployment = Deployment(_build_spec(scenario), env=env,
                                    options=options)
        suite = InvariantSuite(deployment,
                               checkers=make_checkers(checkers))
        suite.attach()
        deployment.start()
        releases: list[RollingRelease] = []
        for entry in scenario.releases:
            deployment.env.process(
                _drive_release(deployment, entry, releases))
        deployment.run(until=scenario.duration)
        violations = suite.finalize()

    # Aggregated over every web population, so single- and multi-region
    # deployments report through the same keys.
    stats = {
        "sim_time": deployment.env.now,
        "releases_started": len(releases),
        "releases_finished": sum(1 for r in releases
                                 if r.finished_at is not None),
        "takeovers": sum(s.counters.get("takeover_completed")
                         for s in (deployment.edge_servers
                                   + deployment.origin_servers)),
        "get_ok": deployment.metrics.aggregate(
            "get_ok", scope_prefix="web-clients"),
        "post_ok": deployment.metrics.aggregate(
            "post_ok", scope_prefix="web-clients"),
        # Mechanism coverage: lets a repro file assert the run actually
        # exercised DCR / PPR / cohort condensation, not just finished.
        "dcr_rehomed": deployment.metrics.aggregate("dcr_rehomed"),
        "ppr_replays": deployment.metrics.aggregate("ppr_379_received"),
        "cohort_condensations": deployment.metrics.aggregate(
            "condensations", scope_prefix="cohorts"),
        "checkers": suite.checker_names(),
    }
    if deployment.fault_injector is not None:
        stats["faults"] = [
            {"kind": r.spec.kind, "state": r.state,
             "targets": list(r.targets)}
            for r in deployment.fault_injector.records]
    trace = deployment.run_record.tracer.to_dict() if violations else None
    return FuzzRunResult(scenario=scenario, violations=violations,
                         stats=stats, trace=trace)
