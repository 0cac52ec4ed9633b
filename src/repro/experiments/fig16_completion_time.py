"""Figure 16: global release completion times (§6.1.1).

Paper numbers: the median Proxygen release finishes in ≈1.5 hours
(dominated by the 20-minute drain each 20% batch waits out), while the
App-Server tier — draining for only 10–15 s — finishes its global
roll-out in ≈25 minutes.

We reproduce the distribution three ways, all part of :func:`run`:

* a Monte-Carlo over the analytic per-cluster completion model
  (many clusters, jittered batches),
* a direct DES cross-check (``crosscheck.*``): a scaled-down cluster
  released with the orchestrator, whose duration must match the
  analytic model, and
* a global roll-out as a real simulation (``global.*``): every PoP of
  a regional deployment released concurrently.
"""

from __future__ import annotations

from ..appserver.config import AppServerConfig
from ..metrics.quantiles import summarize
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from ..release.schedule import completion_time_model
from ..simkernel.rng import RandomStreams
from .common import (ExperimentResult, build_deployment,
                     build_regional_deployment)

__all__ = ["run", "run_des_crosscheck", "run_global_des"]

#: The global roll-out: PoPs in the region, Edge proxies per PoP, and
#: the seconds each Edge instance drains (and each batch waits).
GLOBAL_POPS = 3
GLOBAL_PROXIES_PER_POP = 4
GLOBAL_DRAIN = 6.0

#: Production-scale parameters (from the paper's text).
PROXYGEN_DRAIN = 20 * 60.0       # 20-minute drains
PROXYGEN_BATCH_FRACTION = 0.20   # 5 batches
PROXYGEN_OVERHEAD = 90.0         # spawn/takeover/verification per batch
APP_DRAIN = 12.0                 # 10–15 s drains
APP_BATCH_FRACTION = 0.05        # small batches, many of them
APP_OVERHEAD = 55.0              # restart downtime + verification
MACHINES_PER_CLUSTER = 100       # Proxygen machines; 4x as many app servers


def run(seed: int = 0, samples: int = 400,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    rng = RandomStreams(seed).stream("completion")
    proxygen_minutes = []
    app_minutes = []
    for _ in range(samples):
        proxygen_minutes.append(completion_time_model(
            machines=MACHINES_PER_CLUSTER,
            batch_fraction=PROXYGEN_BATCH_FRACTION,
            drain_duration=PROXYGEN_DRAIN,
            restart_overhead=PROXYGEN_OVERHEAD, rng=rng) / 60.0)
        app_minutes.append(completion_time_model(
            machines=MACHINES_PER_CLUSTER * 4,
            batch_fraction=APP_BATCH_FRACTION,
            drain_duration=APP_DRAIN,
            restart_overhead=APP_OVERHEAD, rng=rng) / 60.0)

    proxygen_summary = summarize(proxygen_minutes)
    app_summary = summarize(app_minutes)

    result = ExperimentResult(
        name="fig16: global release completion times",
        params={"samples": samples,
                "machines_per_cluster": MACHINES_PER_CLUSTER, "seed": seed})
    result.scalars.update({
        "proxygen_median_minutes": proxygen_summary["p50"],
        "proxygen_p99_minutes": proxygen_summary["p99"],
        "appserver_median_minutes": app_summary["p50"],
        "appserver_p99_minutes": app_summary["p99"],
    })
    result.series["proxygen_minutes_sorted"] = [
        (i / max(1, samples - 1), v)
        for i, v in enumerate(sorted(proxygen_minutes))]
    result.series["appserver_minutes_sorted"] = [
        (i / max(1, samples - 1), v)
        for i, v in enumerate(sorted(app_minutes))]
    result.claims.update({
        # Median ≈ 1.5h (paper); accept 80–130 minutes.
        "proxygen_median_about_90min":
            80 <= proxygen_summary["p50"] <= 130,
        # Median ≈ 25 min (paper); accept 18–35 minutes.
        "appserver_median_about_25min": 18 <= app_summary["p50"] <= 35,
        "appserver_much_faster_than_proxygen":
            app_summary["p50"] < 0.5 * proxygen_summary["p50"],
    })
    result.absorb(run_des_crosscheck(seed, options=options), "crosscheck.")
    result.absorb(run_global_des(seed, options=options), "global.")
    return result


def run_global_des(seed: int = 0,
                   options: RunOptions = RunOptions()) -> ExperimentResult:
    """A *global* roll-out as a real simulation: every PoP's fleet
    releases concurrently (the paper's world-wide push), each batch
    waiting out its drain.  Completion = slowest PoP."""
    from ..clients.web import WebWorkloadConfig
    from ..regions import release_all_pops

    # "N PoPs → one Origin DC" is the regional shape with one region.
    dep = build_regional_deployment(
        seed=seed, regions=1, pops_per_region=GLOBAL_POPS,
        proxies_per_pop=GLOBAL_PROXIES_PER_POP, origin_proxies=3,
        app_servers=4, brokers=1, mqtt_users_per_pop=0,
        edge_config=ProxygenConfig(mode="edge", drain_duration=GLOBAL_DRAIN,
                                   spawn_delay=1.0),
        origin_config=ProxygenConfig(mode="origin", drain_duration=8.0,
                                     spawn_delay=1.0),
        web_workload=WebWorkloadConfig(clients_per_host=6,
                                       think_time=1.0),
        options=options)
    dep.run(until=15)
    releases, done = release_all_pops(dep, batch_fraction=0.25,
                                      post_batch_wait=GLOBAL_DRAIN)
    dep.env.run(until=done)
    durations = [r.duration for r in releases]
    global_duration = (max(r.finished_at for r in releases)
                       - min(r.started_at for r in releases))
    predicted = completion_time_model(
        machines=GLOBAL_PROXIES_PER_POP, batch_fraction=0.25,
        drain_duration=GLOBAL_DRAIN, restart_overhead=1.2)

    result = ExperimentResult(
        name="fig16-global: concurrent multi-PoP roll-out (DES)",
        params={"pops": GLOBAL_POPS,
                "proxies_per_pop": GLOBAL_PROXIES_PER_POP,
                "drain": GLOBAL_DRAIN, "seed": seed},
        runs=[dep.run_record])
    result.scalars.update({
        "global_duration": global_duration,
        "slowest_pop_duration": max(durations),
        "fastest_pop_duration": min(durations),
        "model_duration": predicted,
    })
    result.claims.update({
        # PoPs release in parallel: global ≈ per-PoP, not pops × per-PoP.
        "global_is_parallel_not_serial":
            global_duration < 1.5 * max(durations),
        "model_within_30pct": abs(max(durations) - predicted)
        / predicted < 0.30,
    })
    return result


def run_des_crosscheck(seed: int = 0, edge_proxies: int = 5,
                       drain: float = 10.0,
                       options: RunOptions = RunOptions()
                       ) -> ExperimentResult:
    """A real orchestrated release must match the analytic model."""
    dep = build_deployment(
        seed=seed, edge_proxies=edge_proxies,
        edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                   enable_takeover=True, spawn_delay=1.0),
        web=None, mqtt=None, quic=None, options=options)
    dep.run(until=10)
    # Wait out each batch's drain, as production does.
    release = RollingRelease(
        dep.env, dep.edge_servers,
        RollingReleaseConfig(batch_fraction=0.2, post_batch_wait=drain))
    done = dep.env.process(release.execute())
    dep.env.run(until=done)

    predicted = completion_time_model(
        machines=edge_proxies, batch_fraction=0.2,
        drain_duration=drain, restart_overhead=1.0)

    result = ExperimentResult(
        name="fig16-crosscheck: DES release duration vs analytic model",
        params={"edge_proxies": edge_proxies, "drain": drain},
        runs=[dep.run_record])
    result.scalars.update({
        "des_duration": release.duration,
        "model_duration": predicted,
        "relative_error": abs(release.duration - predicted)
        / max(1e-9, predicted),
    })
    result.claims["model_matches_des_within_20pct"] = \
        result.scalars["relative_error"] < 0.2
    return result
