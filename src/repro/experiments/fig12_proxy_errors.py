"""Figure 12: proxy errors sent to end users — traditional vs ZDR (§6.1.4).

The paper compares four error classes during edge restarts:

* **conn. rst** — TCP RSTs terminating client connections;
* **stream abort** — HTTP-level failures (500s / aborted exchanges);
* **timeouts** — transport-level timeouts (no response at all);
* **write timeout** — the application timed out mid-write, the most
  user-hostile class (the paper measures up to 16× more of these under
  traditional restarts).

We run the same full-stack release under both strategies and report the
traditional/ZDR ratio per class.
"""

from __future__ import annotations

from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, build_deployment, sum_counter

__all__ = ["run", "run_arm"]


def run_arm(zdr: bool, seed: int = 0, warmup: float = 25.0,
            measure: float = 70.0, drain: float = 12.0,
            options: RunOptions = RunOptions()) -> dict:
    edge_config = ProxygenConfig(
        mode="edge", drain_duration=drain, enable_takeover=zdr,
        enable_dcr=zdr, spawn_delay=2.0)
    origin_config = ProxygenConfig(
        mode="origin", drain_duration=drain, enable_takeover=zdr,
        enable_dcr=zdr, spawn_delay=2.0)
    dep = build_deployment(
        seed=seed, edge_proxies=4, origin_proxies=3, app_servers=4,
        edge_config=edge_config, origin_config=origin_config,
        app_config=AppServerConfig(drain_duration=2.0,
                                   restart_downtime=3.0, enable_ppr=zdr),
        web=WebWorkloadConfig(clients_per_host=25, think_time=1.0,
                              post_fraction=0.25,
                              post_size_min=200_000,
                              post_size_cap=2_000_000,
                              upload_bandwidth=200_000.0),
        mqtt=MqttWorkloadConfig(users_per_host=25, publish_interval=4.0),
        options=options)
    dep.run(until=warmup)

    # Release everything: edge tier, then origin tier, then app tier —
    # a full infrastructure code push.
    def full_release():
        for tier in (dep.edge_servers, dep.origin_servers,
                     dep.app_servers):
            release = RollingRelease(
                dep.env, tier, RollingReleaseConfig(batch_fraction=0.34))
            yield dep.env.process(release.execute())

    dep.env.process(full_release())
    dep.run(until=warmup + measure)

    clients = dep.metrics.prefix_counters("web-clients")
    mqtt = dep.metrics.prefix_counters("mqtt-clients")
    latency = dep.metrics.quantiles("client/get_latency")
    # No GET may have completed at all (a condensed 100x population
    # overloads the edge): then the quantiles are absent, not an error.
    sampled = len(latency) > 0
    return {
        # RSTs that terminated client connections (measured client-side
        # plus broken MQTT transports — Fig 12's "conn. rst").
        "conn_rst": (clients.get("get_conn_reset")
                     + clients.get("post_conn_reset")
                     + mqtt.get("session_broken")),
        # HTTP-level failures.
        "stream_abort": (clients.get("get_error")
                         + clients.get("post_error")
                         + sum_counter(dep.edge_servers, "client_error",
                                       tag="stream_abort")),
        # Nothing came back at all.
        "timeout": (clients.get("get_timeout")
                    + clients.get("connect_timeout")
                    + clients.get("connect_refused")
                    + sum_counter(dep.edge_servers, "client_error",
                                  tag="timeout")),
        "write_timeout": (clients.get("post_timeout")
                          + sum_counter(dep.edge_servers, "client_error",
                                        tag="write_timeout")),
        "requests_ok": clients.get("get_ok") + clients.get("post_ok"),
        # §2.5's QoE angle: failed requests retry over the high-RTT WAN,
        # dragging the tail of successful-request latency.
        "latency_p99": latency.p99 if sampled else None,
        "latency_p50": latency.median if sampled else None,
        "run": dep.run_record,
    }


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    zdr = run_arm(True, seed=seed, options=options)
    traditional = run_arm(False, seed=seed, options=options)

    result = ExperimentResult(
        name="fig12: proxy errors, traditional vs Zero Downtime Release",
        params={"seed": seed}, runs=[zdr["run"], traditional["run"]])
    classes = ("conn_rst", "stream_abort", "timeout", "write_timeout")
    total_traditional = 0.0
    total_zdr = 0.0
    for cls in classes:
        result.scalars[f"{cls}_traditional"] = traditional[cls]
        result.scalars[f"{cls}_zdr"] = zdr[cls]
        result.scalars[f"{cls}_ratio"] = (
            traditional[cls] / max(1.0, zdr[cls]))
        total_traditional += traditional[cls]
        total_zdr += zdr[cls]
    result.scalars["total_errors_traditional"] = total_traditional
    result.scalars["total_errors_zdr"] = total_zdr
    result.scalars["total_ratio"] = total_traditional / max(1.0, total_zdr)
    for arm_name, arm in (("traditional", traditional), ("zdr", zdr)):
        for quantile in ("p50", "p99"):
            value = arm[f"latency_{quantile}"]
            if value is not None:
                result.scalars[f"latency_{quantile}_{arm_name}"] = value

    result.claims.update({
        "traditional_has_more_errors_overall":
            total_traditional > 2 * max(1.0, total_zdr),
        "conn_rst_worse_without_zdr":
            traditional["conn_rst"] > max(1.0, zdr["conn_rst"]),
        "zdr_errors_are_rare_vs_traffic":
            total_zdr <= 0.02 * max(1.0, zdr["requests_ok"]),
    })
    return result
