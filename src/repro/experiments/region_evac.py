"""Region evacuation + anycast failover: ZDR at disaster scale.

Two question sets against the same seeded two-region deployment
(:mod:`repro.regions`), mirroring the paper's motivation that releases
and disasters exercise the *same* disruption-free machinery:

* **Evacuation under live load**, once per L4LB scheme: at t=8s region
  ``r1`` is withdrawn from anycast while web + MQTT clients hammer both
  regions.  The exit ramp must complete (edge and Origin proxies
  drained, apps decommissioned), every broker session must re-home to
  ``r0`` via the DCR splice with zero stranded tunnels, and the
  surviving region must keep serving — all under the full invariant
  suite (evacuation-completeness, cross-region-continuity, ...).
* **WAN partition failover, on vs off** (same seed, same fault): all of
  ``r0``'s links black-hole for 12s.  With anycast failover the ``r0``
  clients re-resolve to ``r1`` and keep serving; with failover disabled
  (``failover=False``, the ablation arm) the identical partition
  strands them.  The off arm must do strictly worse, and the
  ``failover_route`` counters must fire only on the on arm.

Under ``--faults`` (a chaos plan in the run options) the comparative
claims are relaxed to structural ones — chaos deliberately perturbs
both arms.
"""

from __future__ import annotations

from dataclasses import replace

from ..clients.web import WebWorkloadConfig
from ..faults.plan import FaultPlan, FaultSpec
from ..lb.katran import KatranConfig
from ..lb.routers import ROUTER_SCHEMES
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..regions import evacuate_region
from .common import ExperimentResult, build_regional_deployment, \
    fault_summary

__all__ = ["run"]

#: When the evacuation / partition starts and how long the run lasts.
EVENT_AT = 8.0
HORIZON = 30.0
PARTITION_DURATION = 12.0


def _edge_config() -> ProxygenConfig:
    return ProxygenConfig(mode="edge", drain_duration=2.0,
                          spawn_delay=0.5)


def _origin_config() -> ProxygenConfig:
    return ProxygenConfig(mode="origin", drain_duration=2.0,
                          spawn_delay=0.5)


def _build(seed: int, options: RunOptions, **overrides):
    kwargs = dict(
        seed=seed,
        options=options,
        regions=2,
        pops_per_region=1,
        proxies_per_pop=3,
        origin_proxies=2,
        app_servers=2,
        brokers=1,
        web_clients_per_pop=6,
        mqtt_users_per_pop=5,
        edge_config=_edge_config(),
        origin_config=_origin_config(),
    )
    kwargs.update(overrides)
    return build_regional_deployment(**kwargs)


def _sum_with_tags(metrics, scope_prefix: str, name: str) -> float:
    """Sum one counter family — untagged plus every tag — over all
    scopes starting with ``scope_prefix`` (tagged counters are invisible
    to the registry's untagged ``aggregate``)."""
    total = 0.0
    for scope in metrics.scopes(scope_prefix):
        counters = metrics.scoped_counters(scope)
        total += counters.get(name)
        total += sum(counters.with_tag_prefix(name).values())
    return total


def _web_ok(deployment, region: str = "") -> float:
    prefix = f"web-clients-{region}" if region else "web-clients"
    return (deployment.metrics.aggregate("get_ok", scope_prefix=prefix)
            + deployment.metrics.aggregate("post_ok", scope_prefix=prefix))


def _web_errors(deployment, region: str = "") -> float:
    prefix = f"web-clients-{region}" if region else "web-clients"
    total = 0.0
    # connect_no_backend is how a stranded client surfaces: with
    # failover off its resolver has no healthy region to hand out.
    for name in ("get_timeout", "post_timeout", "get_error", "post_error",
                 "connect_no_backend", "tls_failed",
                 "request_conn_reset", "post_conn_reset"):
        total += _sum_with_tags(deployment.metrics, prefix, name)
    return total


def _stranded_tunnels(deployment, evacuated_ips: set) -> int:
    """Origin tunnels still spliced into an evacuated broker."""
    stranded = 0
    for server in deployment.origin_servers:
        for instance in (server.active_instance,
                         server.draining_instance):
            if instance is None:
                continue
            for tunnel in instance.mqtt_tunnels.values():
                if not tunnel.closed and tunnel.broker_ip in evacuated_ips:
                    stranded += 1
    return stranded


def _evacuation_arm(seed: int, scheme: str, options: RunOptions) -> dict:
    """Evacuate r1 under live load with one L4LB scheme."""
    deployment = _build(seed, options,
                        katran_config=KatranConfig(lb_scheme=scheme))
    deployment.run(until=EVENT_AT)
    survivor_ok_before = _web_ok(deployment, region="r0")
    victim = deployment.region("r1")
    evacuated_ips = {host.ip for host in victim.broker_hosts}
    process = deployment.env.process(
        evacuate_region(deployment, "r1", grace=1.0))
    deployment.run(until=HORIZON)
    report = process.value if process.triggered else None
    return {
        "scheme": scheme,
        "report": report,
        "evacuated": victim.evacuated,
        "finished_at": report.finished_at if report else float("inf"),
        "stranded": _stranded_tunnels(deployment, evacuated_ips),
        "victim_sessions": sum(len(b.sessions) for b in victim.brokers),
        "survivor_served_after": (_web_ok(deployment, region="r0")
                                  - survivor_ok_before),
        "failovers": _sum_with_tags(deployment.metrics, "anycast-r1",
                                    "failover_route"),
        "faults": fault_summary(deployment),
        "run": deployment.run_record,
    }


def _partition_arm(seed: int, failover: bool, options: RunOptions) -> dict:
    """Black-hole every r0 link for 12s, with/without anycast failover."""
    plan = FaultPlan(
        name="regionevac-partition",
        specs=[FaultSpec("wan_partition", where="r0-*:*", at=EVENT_AT,
                         duration=PARTITION_DURATION)],
        description="black-hole region r0's WAN links")
    deployment = _build(
        seed, replace(options, fault_plan=plan), failover=failover,
        # A short request timeout sharpens the arms' contrast: stranded
        # r0 clients burn timeouts instead of idling out the partition.
        web_workload=WebWorkloadConfig(clients_per_host=6,
                                       think_time=1.0,
                                       request_timeout=3.0))
    deployment.run(until=HORIZON)
    metrics = deployment.metrics
    return {
        "failover": failover,
        "ok": _web_ok(deployment),
        "errors": _web_errors(deployment),
        "r0_ok": _web_ok(deployment, region="r0"),
        "failover_routes": _sum_with_tags(metrics, "anycast",
                                          "failover_route"),
        "tagged_drops": _sum_with_tags(metrics, "net", "dropped"),
        "drop_causes": _sum_with_tags(metrics, "net", "dropped_cause"),
        "faults": fault_summary(deployment),
        "run": deployment.run_record,
    }


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    chaos = options.fault_plan is not None
    result = ExperimentResult(
        name="region_evac: evacuation under load + anycast failover",
        params={"seed": seed, "regions": 2, "event_at": EVENT_AT,
                "horizon": HORIZON, "chaos": chaos})

    # -- part 1: live evacuation, once per L4LB scheme -------------------
    evac_arms = [_evacuation_arm(seed, scheme, options)
                 for scheme in sorted(ROUTER_SCHEMES)]
    for arm in evac_arms:
        tag = arm["scheme"]
        report = arm["report"]
        result.scalars[f"evac[{tag}].finished_at"] = arm["finished_at"]
        result.scalars[f"evac[{tag}].sessions_transferred"] = (
            report.sessions_transferred if report else 0)
        result.scalars[f"evac[{tag}].tunnels_solicited"] = (
            report.tunnels_solicited if report else 0)
        result.scalars[f"evac[{tag}].stranded_tunnels"] = arm["stranded"]
        result.scalars[f"evac[{tag}].survivor_served_after"] = (
            arm["survivor_served_after"])
    result.claims["evacuation_completes_every_scheme"] = all(
        a["evacuated"] and a["finished_at"] <= HORIZON for a in evac_arms)
    result.claims["all_sessions_rehomed_no_stranded_tunnels"] = all(
        a["stranded"] == 0 and a["victim_sessions"] == 0
        and (a["report"] is not None
             and a["report"].sessions_transferred > 0)
        for a in evac_arms)
    if not chaos:
        # A chaos plan may black-hole the survivor itself.
        result.claims["survivor_region_keeps_serving"] = all(
            a["survivor_served_after"] > 0 for a in evac_arms)

    # -- part 2: WAN partition, failover on vs off -----------------------
    on = _partition_arm(seed, failover=True, options=options)
    off = _partition_arm(seed, failover=False, options=options)
    result.scalars["partition.on.ok"] = on["ok"]
    result.scalars["partition.off.ok"] = off["ok"]
    result.scalars["partition.on.errors"] = on["errors"]
    result.scalars["partition.off.errors"] = off["errors"]
    result.scalars["partition.on.failover_routes"] = on["failover_routes"]
    result.scalars["partition.off.failover_routes"] = off["failover_routes"]
    result.scalars["partition.on.tagged_drops"] = on["tagged_drops"]
    result.claims["partition_drops_are_tagged"] = (
        on["tagged_drops"] > 0 and on["drop_causes"] > 0)
    # The partition arms run their own plan in place of any chaos plan,
    # so their comparative claims always hold.
    result.claims["failover_rerouting_only_when_enabled"] = (
        on["failover_routes"] > 0 and off["failover_routes"] == 0)
    result.claims["failover_serves_more_than_ablation"] = (
        on["ok"] > off["ok"])
    result.claims["failover_bounds_partition_errors"] = (
        on["errors"] < off["errors"])
    result.claims["partitioned_clients_keep_serving"] = (
        on["r0_ok"] > off["r0_ok"])
    if chaos:
        result.params["evacuation_claims"] = "relaxed (chaos)"

    faults = next((a["faults"] for a in evac_arms if a["faults"]),
                  on["faults"])
    if faults:
        result.faults = faults
    result.runs = [arm["run"] for arm in evac_arms + [on, off]]
    return result
