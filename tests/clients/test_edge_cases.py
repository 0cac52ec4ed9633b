"""Table-driven client edge cases, run against BOTH client drivers.

Each case is a small deployment plus a stressor that pushes one client
protocol into its corner behaviour:

* **web**: a shed storm — edge admission control clamps in-flight
  requests, so clients eat 503s and honor the jittered Retry-After
  backoff;
* **mqtt**: a broker-ring change — a broker leaves the consistent-hash
  ring and its sessions are rehomed (the regionevac move), so clients
  must reconnect to the new ring owner;
* **quic**: a ZDR restart with socket takeover — UDP flows must keep
  flowing across the instance handover.

Every case runs twice: through the classic individual client
populations (``cohorts=None``) and through the cohort layer's condensed
rung.  The folded client counters — every mechanism the case exercises
— must be *identical*, which is the per-protocol complement of the
whole-deployment proof in ``tests/cohorts/test_differential.py``.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import pytest

from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.quic import QuicWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.cohorts import CohortPolicy
from repro.experiments.common import build_deployment
from repro.proxygen.config import ProxygenConfig
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.resilience import ResilienceConfig


def _edge(**overrides):
    defaults = dict(mode="edge", drain_duration=2.0,
                    enable_takeover=True, spawn_delay=0.5)
    defaults.update(overrides)
    return ProxygenConfig(**defaults)


def _release_edges(deployment):
    release = RollingRelease(deployment.env, deployment.edge_servers,
                             RollingReleaseConfig(batch_fraction=0.5))
    deployment.env.process(release.execute())


def _shrink_broker_ring(deployment):
    """A broker leaves the ring for good: its sessions rehome to the
    new ring owner (the ``repro.regions.evacuate`` move) and the
    tunnels still spliced into it are terminated, so every affected
    client must notice and reconnect — landing on the new owner via the
    shrunk ring."""
    victim = deployment.brokers[0]
    deployment.broker_ring.remove(victim.host.ip)
    by_ip = {broker.host.ip: broker for broker in deployment.brokers}
    for user_id in sorted(victim.sessions):
        target_ip = deployment.broker_ring.lookup("user", user_id)
        session = victim.release_session(user_id)
        target = by_ip.get(target_ip)
        if session is not None and target is not None:
            target.adopt_session(session)
    for server in deployment.origin_servers:
        for instance in (server.active_instance,
                         server.draining_instance):
            if instance is None or not instance.process.alive:
                continue
            for tunnel in list(instance.mqtt_tunnels.values()):
                if not tunnel.closed \
                        and tunnel.broker_ip == victim.host.ip:
                    tunnel.terminate()


@dataclass(frozen=True)
class EdgeCase:
    name: str
    #: build_deployment(...) keyword arguments.
    build: dict
    #: Client-population scope prefix whose counters the case compares.
    prefix: str
    #: Counters that must be nonzero, or the case went vacuous.
    exercised: tuple
    stress: Optional[Callable] = None
    stress_at: float = 6.0
    until: float = 16.0
    #: Server-side mechanism counters that must fire at least once.
    server_mechanisms: tuple = field(default=())


CASES = [
    EdgeCase(
        name="web-retry-after-under-shed-storm",
        build=dict(
            seed=7, edge_proxies=2, origin_proxies=1, app_servers=1,
            edge_config=_edge(resilience=ResilienceConfig(
                enabled=True, max_inflight=2, shed_retry_after=0.5)),
            web=WebWorkloadConfig(clients_per_host=16, think_time=0.2)),
        prefix="web-clients",
        exercised=("get_started", "get_ok", "get_shed")),
    EdgeCase(
        name="mqtt-reconnect-after-broker-ring-change",
        build=dict(
            seed=11, edge_proxies=2, origin_proxies=1, app_servers=1,
            brokers=2, edge_config=_edge(),
            mqtt=MqttWorkloadConfig(users_per_host=8,
                                    publish_interval=1.5,
                                    ping_interval=2.0,
                                    keepalive_timeout=4.0)),
        prefix="mqtt-clients",
        exercised=("sessions_established", "reconnects"),
        stress=_shrink_broker_ring,
        server_mechanisms=("sessions_adopted",)),
    EdgeCase(
        name="quic-flows-across-socket-takeover",
        build=dict(
            seed=13, edge_proxies=2, origin_proxies=1, app_servers=1,
            edge_config=_edge(),
            quic=QuicWorkloadConfig(flows_per_host=6,
                                    packet_interval=0.3)),
        prefix="quic-clients",
        exercised=("packets_sent", "packets_acked"),
        stress=_release_edges,
        server_mechanisms=("takeover_completed",)),
]


def _client_totals(deployment, prefix):
    """Fold the population's counters across cohort lanes (the host
    scopes ``<prefix>-N`` miss the ``prefix + "/"`` rule and carry only
    kernel counters anyway)."""
    metrics = deployment.metrics
    totals = {}
    for scope in metrics.scopes(prefix):
        if scope != prefix and not scope.startswith(prefix + "/"):
            continue
        for name, value in metrics.scoped_counters(scope).snapshot().items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def _run_case(case, cohorts):
    deployment = build_deployment(cohorts=cohorts, **case.build)
    if case.stress is not None:
        deployment.run(until=case.stress_at)
        case.stress(deployment)
    deployment.run(until=case.until)
    verdicts = sorted(
        str(v) for v in deployment.run_record.suite.finalize())
    mechanisms = {
        name: deployment.metrics.aggregate(name)
        for name in case.server_mechanisms}
    return {
        "counters": _client_totals(deployment, case.prefix),
        "mechanisms": mechanisms,
        "eid": deployment.env._eid,
        "verdicts": verdicts,
    }


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_edge_case_is_identical_across_drivers(case):
    individual = _run_case(case, cohorts=None)
    condensed = _run_case(case, cohorts=CohortPolicy(fidelity="condensed"))

    assert individual == condensed, (
        f"{case.name}: drivers diverged")
    assert individual["verdicts"] == [], (
        f"{case.name}: invariants tripped: {individual['verdicts']}")

    counters = individual["counters"]
    for name in case.exercised:
        assert counters.get(name, 0) > 0, (
            f"{case.name}: never exercised {name} — the case is vacuous")
    for name, count in individual["mechanisms"].items():
        assert count >= 1, f"{case.name}: {name} never fired"
