"""Figure 17: system overheads of Socket Takeover (§6.3).

One machine restarts with ZDR while serving its share of the workload.
Paper shape: CPU and memory rise while the two instances coexist — the
median increase is below ~5%, the tail (right after the spawn, for
~60–70 s in production) is higher — and throughput dips inversely with
the CPU spike.  Crucially the machine keeps serving throughout.
"""

from __future__ import annotations

from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..metrics.quantiles import summarize
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, mean

__all__ = ["run"]

#: Edge fleet, the restarted machine's drain, and the sim seconds
#: before it restarts.
EDGE_PROXIES = 3
DRAIN = 20.0
WARMUP = 30.0


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    dep = build_deployment(
        seed=seed, edge_proxies=EDGE_PROXIES,
        edge_config=ProxygenConfig(mode="edge", drain_duration=DRAIN,
                                   enable_takeover=True, enable_dcr=True,
                                   spawn_delay=2.0),
        web=WebWorkloadConfig(clients_per_host=35, think_time=0.7),
        mqtt=MqttWorkloadConfig(users_per_host=30, publish_interval=3.0),
        options=options)
    target = dep.edge_servers[0]
    host = dep.edge_hosts[0]

    memory_samples: list[tuple[float, float]] = []

    def monitor():
        while True:
            memory_samples.append((dep.env.now, target.memory_usage()))
            yield dep.env.timeout(0.5)

    dep.env.process(monitor())
    dep.run(until=WARMUP)
    done = dep.env.process(target.release())
    dep.env.run(until=done)
    dep.run(until=WARMUP + DRAIN + 15)

    restart_at = WARMUP
    drain_end = WARMUP + 2.0 + DRAIN  # spawn_delay + drain

    # CPU: utilization per bucket, normalized by the pre-restart mean.
    cpu = host.cpu.utilization(WARMUP - 15, WARMUP + DRAIN + 10)
    cpu_baseline = mean(v for t, v in cpu if t < restart_at) or 1e-9
    cpu_during = [v / cpu_baseline for t, v in cpu
                  if restart_at <= t <= drain_end]
    cpu_summary = summarize(cpu_during, quantiles=(0.5, 0.99))

    # Memory: instance memory, normalized the same way.
    memory_baseline = mean(v for t, v in memory_samples
                           if t < restart_at) or 1e-9
    memory_during = [v / memory_baseline for t, v in memory_samples
                     if restart_at <= t <= drain_end]
    memory_summary = summarize(memory_during, quantiles=(0.5, 0.99))

    # Throughput: the host's served bytes, normalized.
    series_name = f"throughput/{target.name}"
    throughput_during = []
    if dep.metrics.has_series(series_name):
        tput = dep.metrics.series(series_name).series(
            WARMUP - 15, WARMUP + DRAIN + 10)
        tput_baseline = mean(v for t, v in tput if t < restart_at) or 1e-9
        throughput_during = [v / tput_baseline for t, v in tput
                             if restart_at <= t <= drain_end]
    tput_summary = summarize(throughput_during or [1.0],
                             quantiles=(0.05, 0.5))

    result = ExperimentResult(
        name="fig17: Socket Takeover system overheads",
        params={"drain": DRAIN, "seed": seed}, runs=[dep.run_record])
    result.series["cpu_normalized"] = [
        (t, v / cpu_baseline) for t, v in cpu]
    result.series["memory_normalized"] = [
        (t, v / memory_baseline) for t, v in memory_samples]
    result.scalars.update({
        "cpu_median_delta": cpu_summary["p50"] - 1.0,
        "cpu_p99_delta": cpu_summary["p99"] - 1.0,
        "memory_median_delta": memory_summary["p50"] - 1.0,
        "memory_p99_delta": memory_summary["p99"] - 1.0,
        "throughput_median": tput_summary["p50"],
        "throughput_p5": tput_summary["p5"],
    })
    result.claims.update({
        # Overheads exist (two instances)...
        "cpu_overhead_exists": cpu_summary["p99"] > 1.02,
        "memory_overhead_exists": memory_summary["p99"] > 1.3,
        # ...but the median stays modest and the machine keeps serving.
        "median_cpu_overhead_modest": cpu_summary["p50"] < 1.35,
        "throughput_keeps_flowing": tput_summary["p50"] > 0.7,
    })
    return result
