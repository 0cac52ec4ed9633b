"""Figure 3: implications of traditional restarts (§2.5).

* **Fig 3a** — during a rolling HardRestart with 15–20% batches, the
  cluster persistently sits below ~85% of capacity, with brief
  recoveries in the inter-batch gaps.
* **Fig 3b** — when a fraction of Origin Proxygen restart hard, the
  downstream/app infrastructure burns a disproportionate share of CPU
  rebuilding connection state (TCP/TLS handshakes): the paper reports
  ~20% of app-cluster CPU for a 10% restart.
"""

from __future__ import annotations

from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..netsim.cpu import CpuCosts
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, mean, sum_counter

__all__ = ["run", "run_capacity", "run_handshake_cpu"]

#: Fig 3a: the share of the Edge fleet each HardRestart batch takes out.
BATCH_FRACTION = 0.2
#: Fig 3b: the Origin fleet, the share of it that restarts hard, and the
#: seconds each of the restart and control windows lasts.
ORIGIN_PROXIES = 10
RESTART_FRACTION = 0.1
WINDOW = 20.0


def run_capacity(seed: int = 0, edge_proxies: int = 10,
                 drain: float = 10.0, gap: float = 4.0,
                 options: RunOptions = RunOptions()) -> ExperimentResult:
    """Fig 3a: Katran-visible capacity during a rolling HardRestart."""
    dep = build_deployment(
        seed=seed, edge_proxies=edge_proxies,
        edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                   enable_takeover=False, enable_dcr=False,
                                   spawn_delay=2.0),
        web=WebWorkloadConfig(clients_per_host=10, think_time=1.0),
        mqtt=None, quic=None, options=options)
    dep.run(until=15)

    capacity: list[tuple[float, float]] = []

    def monitor():
        while True:
            capacity.append((dep.env.now,
                             len(dep.edge_katran.healthy_backends())
                             / edge_proxies))
            yield dep.env.timeout(1.0)

    dep.env.process(monitor())
    release = RollingRelease(
        dep.env, dep.edge_servers,
        RollingReleaseConfig(batch_fraction=BATCH_FRACTION,
                             inter_batch_gap=gap))
    done = dep.env.process(release.execute())
    dep.env.run(until=done)
    dep.run(until=dep.env.now + drain + 10)

    during = [v for t, v in capacity
              if release.started_at <= t <= release.finished_at]
    result = ExperimentResult(
        name="fig03a: cluster capacity during rolling HardRestart",
        params={"edge_proxies": edge_proxies,
                "batch_fraction": BATCH_FRACTION, "drain": drain},
        runs=[dep.run_record])
    result.series["capacity"] = capacity
    result.scalars.update({
        "min_capacity_during_release": min(during),
        "mean_capacity_during_release": mean(during),
        "release_duration": release.duration,
    })
    result.claims.update({
        # One full batch is out at a time: capacity dips to ~1-batch.
        "capacity_dips_to_batch_size": (
            min(during) <= 1.0 - BATCH_FRACTION + 0.05),
        "mean_capacity_below_one": mean(during) < 0.97,
    })
    return result


def run_handshake_cpu(seed: int = 0,
                      options: RunOptions = RunOptions()) -> ExperimentResult:
    """Fig 3b: reconnect-storm CPU after hard Origin restarts.

    We measure the work-units burned on TCP/TLS handshakes across the
    infrastructure tiers in the window after the restart, against an
    equal-length baseline window before it.
    """
    dep = build_deployment(
        seed=seed, origin_proxies=ORIGIN_PROXIES, edge_proxies=4,
        app_servers=6,
        origin_config=ProxygenConfig(mode="origin", drain_duration=4.0,
                                     enable_takeover=False,
                                     enable_dcr=False, spawn_delay=2.0),
        web=WebWorkloadConfig(clients_per_host=25, think_time=1.0,
                              cacheable_fraction=0.2),
        mqtt=MqttWorkloadConfig(users_per_host=30, publish_interval=4.0),
        options=options)
    warmup = 25.0
    dep.run(until=warmup)

    def handshake_work() -> float:
        """Work units spent (re)building connection state, excluding the
        constant background of L4 health probes."""
        total = 0.0
        # Edge TLS handshakes (clients re-establishing sessions).
        total += sum_counter(dep.edge_servers, "tls_handshakes") \
            * CpuCosts.tls_handshake
        for host in (dep.edge_hosts + dep.origin_hosts + dep.app_hosts
                     + dep.broker_hosts):
            by_source = host.counters.with_tag_prefix("tcp_accepted_from")
            total += CpuCosts.tcp_handshake * sum(
                count for source, count in by_source.items()
                if "katran" not in source)
        return total

    before_work = handshake_work()
    baseline_busy = sum(h.cpu.total_busy_seconds
                        for h in dep.app_hosts + dep.origin_hosts)

    restart_count = max(1, round(ORIGIN_PROXIES * RESTART_FRACTION))
    release = RollingRelease(dep.env, dep.origin_servers[:restart_count],
                             RollingReleaseConfig(batch_fraction=1.0))
    dep.env.process(release.execute())
    dep.run(until=warmup + WINDOW)

    after_work = handshake_work()
    after_busy = sum(h.cpu.total_busy_seconds
                     for h in dep.app_hosts + dep.origin_hosts)

    # A control window with no restart, same deployment, later in time.
    dep.run(until=warmup + 2 * WINDOW)
    control_work = handshake_work()

    storm_work = after_work - before_work
    control_window_work = control_work - after_work
    busy_delta = after_busy - baseline_busy

    result = ExperimentResult(
        name="fig03b: reconnect CPU after hard Origin restarts",
        params={"origin_proxies": ORIGIN_PROXIES,
                "restart_fraction": RESTART_FRACTION, "window": WINDOW},
        runs=[dep.run_record])
    result.scalars.update({
        "handshake_work_restart_window": storm_work,
        "handshake_work_control_window": control_window_work,
        "handshake_storm_ratio": storm_work / max(1e-9, control_window_work),
        # Approximate share of all CPU work spent on handshakes in the
        # restart window (busy core-seconds × ~22 units/s blended speed).
        "handshake_share_of_busy_cpu": storm_work
        / max(1e-9, busy_delta * 22.0),
    })
    result.claims.update({
        "restart_window_burns_more_handshake_cpu":
            storm_work > 1.5 * control_window_work,
    })
    return result


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    """Composite runner (capacity claims are primary)."""
    capacity = run_capacity(seed=seed, options=options)
    handshake = run_handshake_cpu(seed=seed, options=options)
    result = ExperimentResult(name="fig03: restart implications",
                              params={"seed": seed})
    result.absorb(capacity, "a_")
    result.absorb(handshake, "b_")
    return result
