"""Figure 8b: idle CPU during draining — ZDR vs HardRestart (§6.1.2).

Paper shape: with Socket Takeover the cluster's idle CPU dips only
slightly (≈1%, the cost of running two instances per restarting
machine), while a HardRestart degrades the cluster's usable CPU roughly
linearly with the batch fraction, because each restarting machine is
fully offline for the drain.

Idle CPU alone under-states the Hard arm (an offline machine is "idle"
but useless), so we report the paper's operational quantity: *usable*
cluster capacity — idle CPU summed over machines that are actually in
service — normalized by its pre-restart baseline.
"""

from __future__ import annotations

from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, mean

__all__ = ["run", "run_arm"]

#: Edge fleet every arm releases.
EDGE_PROXIES = 10
#: Seconds each Edge instance drains, and the seconds after warm-up the
#: arm measures.
DRAIN = 12.0
MEASURE = 30.0


def run_arm(takeover: bool, batch_fraction: float, seed: int = 0,
            options: RunOptions = RunOptions()) -> dict:
    config = ProxygenConfig(mode="edge", drain_duration=DRAIN,
                            enable_takeover=takeover,
                            enable_dcr=takeover, spawn_delay=2.0)
    dep = build_deployment(
        seed=seed, edge_proxies=EDGE_PROXIES, edge_config=config,
        web=WebWorkloadConfig(clients_per_host=40, think_time=0.8),
        mqtt=MqttWorkloadConfig(users_per_host=25, publish_interval=4.0),
        options=options)
    warmup = 20.0
    dep.run(until=warmup)

    # Track which hosts are serving (have any live proxygen instance).
    availability: dict[int, list[float]] = {i: [] for i in range(EDGE_PROXIES)}

    def monitor():
        while True:
            for i, server in enumerate(dep.edge_servers):
                availability[i].append(
                    1.0 if server.instance_count > 0 else 0.0)
            yield dep.env.timeout(1.0)

    dep.env.process(monitor())
    release = RollingRelease(
        dep.env, dep.edge_servers,
        RollingReleaseConfig(batch_fraction=batch_fraction))
    dep.env.process(release.execute())
    dep.run(until=warmup + MEASURE)

    # Usable idle capacity per 1s bucket, normalized by the baseline.
    baseline = [mean(v for _, v in host.cpu.idle(warmup - 10, warmup))
                for host in dep.edge_hosts]
    baseline_total = sum(baseline)
    buckets = int(MEASURE)
    series = []
    for b in range(buckets):
        t0 = warmup + b
        total = 0.0
        for i, host in enumerate(dep.edge_hosts):
            samples = host.cpu.idle(t0, t0 + 1)
            idle_value = samples[0][1] if samples else 1.0
            available = availability[i][b] if b < len(availability[i]) else 1.0
            total += idle_value * available
        series.append((t0, total / max(1e-9, baseline_total)))
    return {
        "series": series,
        "min_normalized_idle": min(v for _, v in series),
        "mean_normalized_idle": mean(v for _, v in series),
        "run": dep.run_record,
    }


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    arms = {
        "zdr_20pct": run_arm(True, 0.20, seed=seed, options=options),
        "hard_5pct": run_arm(False, 0.05, seed=seed, options=options),
        "hard_20pct": run_arm(False, 0.20, seed=seed, options=options),
    }
    result = ExperimentResult(
        name="fig08b: idle CPU during draining (ZDR vs HardRestart)",
        params={"edge_proxies": EDGE_PROXIES, "seed": seed},
        runs=[data["run"] for data in arms.values()])
    for arm, data in arms.items():
        result.series[arm] = data["series"]
        result.scalars[f"{arm}_min"] = data["min_normalized_idle"]
        result.scalars[f"{arm}_mean"] = data["mean_normalized_idle"]
    result.claims.update({
        # ZDR stays near baseline.
        "zdr_stays_near_baseline": result.scalars["zdr_20pct_min"] > 0.80,
        # Hard restarts lose roughly the batch fraction of capacity.
        "hard20_loses_about_a_batch":
            result.scalars["hard_20pct_min"] <= 0.88,
        # Bigger batches lose more.
        "hard_scales_with_batch": (result.scalars["hard_20pct_min"]
                                   < result.scalars["hard_5pct_min"]),
        "zdr_beats_hard": (result.scalars["zdr_20pct_min"]
                           > result.scalars["hard_20pct_min"]),
    })
    return result
