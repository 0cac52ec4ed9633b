"""Figure 11: web-tier POST disruptions rescued by PPR (§6.1.3).

The paper watches App-Server restarts from the Origin Proxygen's vantage
point for 7 days (~70 web-tier restarts): every 379 received is a POST
that *would have been disrupted* without Partial Post Replay.  The
fraction of disrupted connections is tiny in relative terms (median
≈ 0.0008%) — but at billions of POSTs/minute it is millions of requests.

We compress the window: many app-tier rolling restarts under a steady
upload-heavy workload, comparing PPR on/off.
"""

from __future__ import annotations

from ..appserver.config import AppServerConfig
from ..clients.web import WebWorkloadConfig
from ..metrics.quantiles import summarize
from ..options import RunOptions
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, sum_counter

__all__ = ["run", "run_arm"]

#: Seconds of traffic before the first app-server restart, and between
#: one restart's end and the next one's start.
WARMUP = 20.0
SPACING = 18.0


def run_arm(enable_ppr: bool, seed: int = 0, restarts: int = 6,
            options: RunOptions = RunOptions()) -> dict:
    dep = build_deployment(
        seed=seed, edge_proxies=2, origin_proxies=2, app_servers=4,
        app_config=AppServerConfig(drain_duration=2.0,
                                   restart_downtime=3.0,
                                   enable_ppr=enable_ppr),
        web=WebWorkloadConfig(clients_per_host=14, think_time=1.0,
                              post_fraction=0.7,
                              post_size_min=300_000,
                              post_size_cap=4_000_000,
                              upload_bandwidth=150_000.0),
        mqtt=None, quic=None, options=options)
    dep.run(until=WARMUP)

    per_restart_rescued: list[float] = []
    for i in range(restarts):
        before_rescued = sum_counter(dep.origin_servers, "ppr_379_received")
        target = dep.app_servers[i % len(dep.app_servers)]
        done = dep.env.process(target.restart())
        dep.env.run(until=done)
        dep.run(until=dep.env.now + SPACING)
        per_restart_rescued.append(
            sum_counter(dep.origin_servers, "ppr_379_received")
            - before_rescued)

    posts_started = sum_counter(dep.origin_servers, "post_started")
    clients = dep.metrics.prefix_counters("web-clients")
    return {
        "per_restart_rescued": per_restart_rescued,
        "rescued_total": sum_counter(dep.origin_servers, "ppr_379_received"),
        "disrupted_at_proxy": sum_counter(dep.origin_servers,
                                          "post_disrupted"),
        "posts_started": posts_started,
        "client_post_errors": (clients.get("post_error")
                               + clients.get("post_conn_reset")
                               + clients.get("post_timeout")),
        "client_posts_ok": clients.get("post_ok"),
        "replayed_bytes": sum_counter(dep.origin_servers,
                                      "ppr_bytes_replayed"),
        "run": dep.run_record,
    }


def run(seed: int = 0, restarts: int = 6,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    ppr = run_arm(True, seed=seed, restarts=restarts, options=options)
    noppr = run_arm(False, seed=seed, restarts=restarts, options=options)

    rescued_fraction = [r / max(1.0, ppr["posts_started"])
                        for r in ppr["per_restart_rescued"]]
    rescue_summary = summarize(rescued_fraction)

    result = ExperimentResult(
        name="fig11: POST disruptions across app-tier restarts (PPR)",
        params={"restarts": restarts, "seed": seed},
        runs=[ppr["run"], noppr["run"]])
    result.scalars.update({
        "ppr_rescued_total": ppr["rescued_total"],
        "ppr_rescued_fraction_median": rescue_summary.get("p50", 0.0),
        "ppr_client_post_errors": ppr["client_post_errors"],
        "ppr_disrupted_at_proxy": ppr["disrupted_at_proxy"],
        "ppr_replayed_bytes": ppr["replayed_bytes"],
        "noppr_client_post_errors": noppr["client_post_errors"],
        "noppr_disrupted_at_proxy": noppr["disrupted_at_proxy"],
        "posts_started_per_arm": ppr["posts_started"],
    })
    result.claims.update({
        # 379s actually flowed: real rescues happened.
        "ppr_rescues_nonzero": ppr["rescued_total"] >= restarts / 2,
        # The rescued fraction per restart is small relative to traffic
        # (the paper's 0.0008% point, scaled to our compressed window).
        "rescued_fraction_is_small": rescue_summary.get("p50", 0) < 0.2,
        # With PPR, clients see (almost) no POST failures.
        "ppr_protects_clients": ppr["client_post_errors"]
        <= 0.1 * max(1.0, noppr["client_post_errors"]),
        # Without PPR, disruptions reach clients.
        "disruptions_happen_without_ppr":
            noppr["client_post_errors"] >= restarts / 2,
    })
    return result
