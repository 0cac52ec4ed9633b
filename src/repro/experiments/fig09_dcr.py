"""Figure 9: MQTT disruption with and without DCR (§6.1.3).

Paper shape: during an Origin restart *without* Downstream Connection
Reuse, the rate of Publish messages flowing through the tunnels drops
sharply and the brokers see a spike of CONNACKs (clients reconnecting).
With DCR, both curves stay flat — the tunnels are spliced to healthy
Origin proxies and end users never notice.
"""

from __future__ import annotations

from ..clients.mqtt import MqttWorkloadConfig
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, mean, sum_counter

__all__ = ["run", "run_arm"]

#: MQTT users per client host.
USERS = 60


def run_arm(enable_dcr: bool, seed: int = 0, users: int = USERS,
            warmup: float = 25.0, measure: float = 45.0,
            drain: float = 10.0,
            options: RunOptions = RunOptions()) -> dict:
    dep = build_deployment(
        seed=seed, edge_proxies=3, origin_proxies=3, brokers=2,
        origin_config=ProxygenConfig(mode="origin", drain_duration=drain,
                                     enable_takeover=True,
                                     enable_dcr=enable_dcr,
                                     spawn_delay=1.0),
        web=None, quic=None,
        mqtt=MqttWorkloadConfig(users_per_host=users,
                                publish_interval=2.0,
                                ping_interval=10.0),
        options=options)
    dep.run(until=warmup)

    connack_before = sum_counter(dep.brokers, "mqtt_connack_sent")
    release = RollingRelease(dep.env, dep.origin_servers,
                             RollingReleaseConfig(batch_fraction=0.34,
                                                  post_batch_wait=2.0))
    dep.env.process(release.execute())
    dep.run(until=warmup + measure)

    # Publish messages that actually crossed the tunnels (both ways).
    up = dep.metrics.series("mqtt/publish_up")
    down = dep.metrics.series("mqtt/client_publish_received")
    window = (warmup - 10, warmup + measure)
    publish_series = [
        (t, u + d) for (t, u), (_, d) in zip(
            up.series(*window), down.series(*window))]
    baseline_rate = mean(v for t, v in publish_series if t < warmup)

    connack_series = []
    if dep.metrics.has_series("mqtt/client_reconnects"):
        connack_series = dep.metrics.series(
            "mqtt/client_reconnects").series(*window)

    return {
        "publish_series": [(t, v / max(1e-9, baseline_rate))
                           for t, v in publish_series],
        "min_normalized_publish_rate": min(
            v / max(1e-9, baseline_rate)
            for t, v in publish_series if t >= warmup),
        "connacks_during_release":
            sum_counter(dep.brokers, "mqtt_connack_sent") - connack_before,
        "reconnects": dep.metrics.scoped_counters(
            "mqtt-clients").get("reconnects"),
        "sessions_broken": dep.metrics.scoped_counters(
            "mqtt-clients").get("session_broken"),
        "rehomed": sum_counter(dep.edge_servers, "dcr_rehomed"),
        "connack_series": connack_series,
        "run": dep.run_record,
    }


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    with_dcr = run_arm(True, seed=seed, options=options)
    without_dcr = run_arm(False, seed=seed, options=options)

    result = ExperimentResult(
        name="fig09: MQTT publishes and CONNACKs across Origin restart",
        params={"users": USERS, "seed": seed},
        runs=[with_dcr["run"], without_dcr["run"]])
    result.series["publish_with_dcr"] = with_dcr["publish_series"]
    result.series["publish_without_dcr"] = without_dcr["publish_series"]
    result.series["connacks_without_dcr"] = without_dcr["connack_series"]
    result.scalars.update({
        "min_publish_rate_with_dcr":
            with_dcr["min_normalized_publish_rate"],
        "min_publish_rate_without_dcr":
            without_dcr["min_normalized_publish_rate"],
        "connacks_with_dcr": with_dcr["connacks_during_release"],
        "connacks_without_dcr": without_dcr["connacks_during_release"],
        "sessions_broken_with_dcr": with_dcr["sessions_broken"],
        "sessions_broken_without_dcr": without_dcr["sessions_broken"],
        "tunnels_rehomed": with_dcr["rehomed"],
    })
    result.claims.update({
        # With DCR the publish flow shows no restart-correlated drop
        # (remaining variation is workload noise); without DCR it dips
        # visibly deeper.
        "dcr_publish_flow_stays_up":
            with_dcr["min_normalized_publish_rate"] > 0.55,
        "without_dcr_dips_deeper":
            without_dcr["min_normalized_publish_rate"]
            < with_dcr["min_normalized_publish_rate"],
        "dcr_rehomes_tunnels": with_dcr["rehomed"] >= USERS // 2,
        "dcr_no_reconnect_spike": (with_dcr["connacks_during_release"]
                                   <= 0.1 * USERS),
        "without_dcr_reconnect_spike": (
            without_dcr["connacks_during_release"] >= 0.5 * USERS),
        "without_dcr_sessions_break": (
            without_dcr["sessions_broken"] >= 0.5 * USERS),
        "dcr_sessions_survive": (with_dcr["sessions_broken"]
                                 <= 0.1 * USERS),
    })
    return result
