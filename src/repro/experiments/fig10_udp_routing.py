"""Figure 10: UDP misrouting — CID routing vs "traditional" (§6.1.5).

Both arms use Socket Takeover (the sockets migrate, the SO_REUSEPORT
ring never changes).  The difference is what the *new* instance does
with packets of QUIC connections owned by the draining instance:

* **ZDR** — user-space routes them to the old instance over the
  host-local forwarding address (connection-ID routing);
* **traditional** — no CID routing: those packets hit a process without
  their connection state and are misrouted.

Paper shape: the traditional arm misroutes orders of magnitude more
packets (≈100× at the tail, right after the restart), decaying as the
old flows finish.
"""

from __future__ import annotations

from ..clients.quic import QuicWorkloadConfig
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, sum_counter

__all__ = ["run", "run_arm"]


def run_arm(cid_routing: bool, seed: int = 0, flows: int = 60,
            warmup: float = 20.0, measure: float = 50.0,
            drain: float = 32.0,
            options: RunOptions = RunOptions()) -> dict:
    # Flows last a few seconds on average while the drain is 32 s: like
    # the paper's production setting (20-minute drains), almost every
    # flow ends naturally inside the drain window.
    dep = build_deployment(
        seed=seed, edge_proxies=3,
        edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                   enable_takeover=True,
                                   enable_cid_routing=cid_routing,
                                   spawn_delay=1.0),
        web=None, mqtt=None,
        quic=QuicWorkloadConfig(flows_per_host=flows,
                                packet_interval=0.25,
                                loss_threshold=6,
                                mean_packets_per_connection=12.0),
        options=options)
    dep.run(until=warmup)

    release = RollingRelease(dep.env, dep.edge_servers,
                             RollingReleaseConfig(batch_fraction=0.34,
                                                  post_batch_wait=1.0))
    dep.env.process(release.execute())
    dep.run(until=warmup + measure)

    window = (warmup - 5, warmup + measure)
    misrouted_series = [(0.0, 0.0)]
    if dep.metrics.has_series("udp/misrouted"):
        misrouted_series = dep.metrics.series("udp/misrouted").series(*window)
    return {
        "misrouted_series": misrouted_series,
        "misrouted_total": sum_counter(dep.edge_servers, "udp_misrouted"),
        "forwarded_total": sum_counter(dep.edge_servers,
                                       "udp_forwarded_to_sibling"),
        "client_losses": dep.metrics.scoped_counters(
            "quic-clients").get("packets_lost"),
        "packets_sent": dep.metrics.scoped_counters(
            "quic-clients").get("packets_sent"),
        "run": dep.run_record,
    }


def run(seed: int = 0, flows: int = 60,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    zdr = run_arm(True, seed=seed, flows=flows, options=options)
    traditional = run_arm(False, seed=seed, flows=flows, options=options)

    result = ExperimentResult(
        name="fig10: UDP misrouting (CID routing vs traditional)",
        params={"flows_per_host": flows, "seed": seed},
        runs=[zdr["run"], traditional["run"]])
    result.series["misrouted_zdr"] = zdr["misrouted_series"]
    result.series["misrouted_traditional"] = traditional["misrouted_series"]
    ratio = (traditional["misrouted_total"]
             / max(1.0, zdr["misrouted_total"]))
    result.scalars.update({
        "misrouted_zdr": zdr["misrouted_total"],
        "misrouted_traditional": traditional["misrouted_total"],
        "forwarded_in_userspace_zdr": zdr["forwarded_total"],
        "misrouting_ratio": ratio,
        "client_losses_zdr": zdr["client_losses"],
        "client_losses_traditional": traditional["client_losses"],
    })
    result.claims.update({
        "zdr_forwards_in_userspace": zdr["forwarded_total"] > 0,
        "traditional_misroutes_many":
            traditional["misrouted_total"] > 10 * max(
                1.0, zdr["misrouted_total"]),
        "clients_suffer_without_cid_routing":
            traditional["client_losses"] > 2 * max(1.0,
                                                   zdr["client_losses"]),
    })
    return result
