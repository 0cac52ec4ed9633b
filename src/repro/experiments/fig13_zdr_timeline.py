"""Figure 13: cluster metrics through a ZDR release at scale (§6.2.1).

A 20% batch of the edge cluster restarts with Zero Downtime Release
while the full workload runs.  The paper splits machines into the
restarted group (GR) and the rest (GNR) and shows that RPS, MQTT
connection counts and throughput stay flat across the restart, with a
small CPU bump on the restarted machines (two instances during the
drain, §6.3).
"""

from __future__ import annotations

from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, mean

__all__ = ["run"]

#: Edge fleet (the restarted batch is 20% of it) and its drain.
EDGE_PROXIES = 10
DRAIN = 15.0
#: Sim seconds before the release starts, and measured after it.
WARMUP = 25.0
MEASURE = 40.0


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    dep = build_deployment(
        seed=seed, edge_proxies=EDGE_PROXIES, origin_proxies=3,
        app_servers=4,
        edge_config=ProxygenConfig(mode="edge", drain_duration=DRAIN,
                                   enable_takeover=True, enable_dcr=True,
                                   spawn_delay=2.0),
        origin_config=ProxygenConfig(mode="origin", drain_duration=8.0,
                                     enable_takeover=True, enable_dcr=True,
                                     spawn_delay=2.0),
        # Short app drain + upload-heavy mix so the coda below reliably
        # exercises PPR (long POSTs still in flight when the drain ends).
        app_config=AppServerConfig(drain_duration=2.0,
                                   restart_downtime=3.0),
        web=WebWorkloadConfig(clients_per_host=40, think_time=0.8,
                              post_fraction=0.15,
                              post_size_min=150_000,
                              upload_bandwidth=150_000.0),
        mqtt=MqttWorkloadConfig(users_per_host=40, publish_interval=4.0),
        options=options)

    batch = max(1, int(EDGE_PROXIES * 0.2))
    gr_servers = dep.edge_servers[:batch]
    gnr_servers = dep.edge_servers[batch:]
    gr_hosts = dep.edge_hosts[:batch]
    gnr_hosts = dep.edge_hosts[batch:]

    # Sample group metrics once per second.
    samples: dict[str, list[tuple[float, float]]] = {
        "gr_mqtt_conns": [], "gnr_mqtt_conns": [],
        "gr_instances": [], "gnr_instances": [],
    }

    def monitor():
        while True:
            now = dep.env.now
            samples["gr_mqtt_conns"].append(
                (now, sum(s.mqtt_tunnel_count() for s in gr_servers)))
            samples["gnr_mqtt_conns"].append(
                (now, sum(s.mqtt_tunnel_count() for s in gnr_servers)))
            samples["gr_instances"].append(
                (now, sum(s.instance_count for s in gr_servers)))
            samples["gnr_instances"].append(
                (now, sum(s.instance_count for s in gnr_servers)))
            yield dep.env.timeout(1.0)

    dep.env.process(monitor())
    dep.run(until=WARMUP)
    release = RollingRelease(dep.env, gr_servers,
                             RollingReleaseConfig(batch_fraction=1.0))
    dep.env.process(release.execute())
    dep.run(until=WARMUP + DRAIN + 3)
    # Mechanism coda, outside the claims window ([WARMUP+3, WARMUP+DRAIN]
    # is what the shape checks below average over): roll one Origin proxy
    # (tunnels re-home via DCR) and restart one app server (incomplete
    # POSTs come back as 379 PartialPOST and get replayed), so a --trace
    # run captures every §4 mechanism in a single timeline.
    coda = RollingRelease(dep.env, [dep.origin_servers[0]],
                          RollingReleaseConfig(batch_fraction=1.0))
    dep.env.process(coda.execute())
    dep.env.process(dep.app_servers[0].restart())
    dep.run(until=WARMUP + MEASURE)

    def group_series(names: list[str], metric: str) -> list[tuple[float, float]]:
        """Sum a per-server time series over a group, normalized by the
        pre-restart value."""
        window = (WARMUP - 10, WARMUP + MEASURE)
        merged: dict[float, float] = {}
        for name in names:
            key = f"{metric}/{name}"
            if not dep.metrics.has_series(key):
                continue
            for t, v in dep.metrics.series(key).series(*window):
                merged[t] = merged.get(t, 0.0) + v
        series = sorted(merged.items())
        baseline = mean(v for t, v in series if t < WARMUP) or 1.0
        return [(t, v / baseline) for t, v in series]

    gr_names = [s.name for s in gr_servers]
    gnr_names = [s.name for s in gnr_servers]
    all_names = gr_names + gnr_names

    def cpu_series(hosts) -> list[tuple[float, float]]:
        per_host = [host.cpu.utilization(WARMUP - 10, WARMUP + MEASURE)
                    for host in hosts]
        merged = [(samples[0][0], mean(v for _, v in samples))
                  for samples in zip(*per_host)]
        baseline = mean(v for t, v in merged if t < WARMUP) or 1.0
        return [(t, v / baseline) for t, v in merged]

    result = ExperimentResult(
        name="fig13: cluster timeline through a 20% ZDR batch",
        params={"edge_proxies": EDGE_PROXIES, "batch": batch,
                "drain": DRAIN, "seed": seed},
        runs=[dep.run_record])
    result.series["cluster_rps"] = group_series(all_names, "rps")
    result.series["cluster_throughput"] = group_series(
        all_names, "throughput")
    result.series["gr_rps"] = group_series(gr_names, "rps")
    result.series["gnr_rps"] = group_series(gnr_names, "rps")
    result.series["gr_cpu"] = cpu_series(gr_hosts)
    result.series["gnr_cpu"] = cpu_series(gnr_hosts)
    for key in ("gr_mqtt_conns", "gnr_mqtt_conns", "gr_instances",
                "gnr_instances"):
        result.series[key] = samples[key]

    def post_restart_mean(series):
        return mean(v for t, v in series if WARMUP + 3 <= t <= WARMUP + DRAIN)

    # Cluster-wide MQTT connection count (the paper's §6.2.1 point: the
    # cluster-wide average shows virtually no change — tunnels that move
    # off the restarted group reappear elsewhere).
    cluster_mqtt = [
        (t, gr + gnr) for (t, gr), (_, gnr) in zip(
            samples["gr_mqtt_conns"], samples["gnr_mqtt_conns"])]
    mqtt_baseline = mean(v for t, v in cluster_mqtt
                         if WARMUP - 10 <= t < WARMUP) or 1.0
    cluster_mqtt_norm = [(t, v / mqtt_baseline) for t, v in cluster_mqtt]
    result.series["cluster_mqtt_conns"] = cluster_mqtt_norm

    cluster_rps_after = post_restart_mean(result.series["cluster_rps"])
    cluster_tput_after = post_restart_mean(
        result.series["cluster_throughput"])
    cluster_mqtt_after = post_restart_mean(cluster_mqtt_norm)
    # The GR CPU bump is sharpest right after the parallel instances
    # spawn (§6.3's initial spike).
    gr_cpu_peak = max((v for t, v in result.series["gr_cpu"]
                       if WARMUP <= t <= WARMUP + 8), default=0.0)

    result.scalars.update({
        "cluster_rps_normalized_after": cluster_rps_after,
        "cluster_throughput_normalized_after": cluster_tput_after,
        "cluster_mqtt_conns_normalized_after": cluster_mqtt_after,
        "gr_cpu_peak_normalized": gr_cpu_peak,
        "max_gr_instances": max(v for _, v in samples["gr_instances"]),
    })
    result.claims.update({
        # Cluster-wide service metrics stay flat through the restart...
        "cluster_rps_stays_flat": 0.85 <= cluster_rps_after <= 1.15,
        "cluster_mqtt_conns_stay_flat":
            0.85 <= cluster_mqtt_after <= 1.15,
        "cluster_throughput_stays_flat":
            0.80 <= cluster_tput_after <= 1.25,
        # ...while the restarted machines briefly run 2 instances and
        # show a CPU bump right after the spawn (§6.3).
        "two_instances_during_drain":
            result.scalars["max_gr_instances"] >= 2 * batch,
        "gr_cpu_bump_visible": gr_cpu_peak > 1.05,
    })
    return result
