"""Resilience ablation: the data plane vs slow + rogue backends.

Two identically seeded runs of the full stack under one fault plan —
two app servers simultaneously CPU-throttled (``slow_host``) and
returning §5.2-style rogue statuses (``rogue_status``) — once with the
resilient data plane (outlier ejection, circuit breakers, budgeted
retries + hedging, load shedding) enabled and once with the
paper-faithful baseline (blind round-robin, bare retry loops).  The
claim: resilience-on yields a *strictly lower* user-visible error
ratio, deterministically, with every ejection / breaker trip / retry /
hedge / shed decision visible as a counter.
"""

from __future__ import annotations

from dataclasses import replace

from ..appserver.config import AppServerConfig
from ..clients.web import WebWorkloadConfig
from ..faults.plan import FaultPlan, FaultSpec
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..resilience import ResilienceConfig
from .common import ExperimentResult, build_deployment, fault_summary, \
    sum_counter

__all__ = ["run", "run_arm"]

#: Seconds of fault-free traffic, then the seconds measured under faults.
WARMUP = 10.0
MEASURE = 70.0


def _fault_plan(at: float) -> FaultPlan:
    """Every resilience mechanism gets a fault to earn its keep.

    * appserver-0/1 turn slow *and* rogue — outlier ejection's case;
    * appserver-2 turns *very* slow but stays honest — requests queue
      behind its CPU, which is what hedging and app-side load shedding
      answer;
    * appserver-5 crashes and reboots — every pooled Origin→App
      connection to it goes stale, the idle-discard redial's case;
    * origin-proxy-1 crashes mid-run — refused Edge→Origin dials, the
      circuit breaker's case — and reboots when the window clears.
    """
    return FaultPlan(
        name="slow-rogue-crash",
        specs=[
            FaultSpec("slow_host", where="appserver-[01]", at=at,
                      params={"speed_factor": 0.15}),
            FaultSpec("rogue_status", where="appserver-[01]", at=at,
                      params={"fraction": 0.5}),
            FaultSpec("slow_host", where="appserver-2", at=at,
                      params={"speed_factor": 0.08}),
            FaultSpec("host_crash", where="appserver-5", at=at + 5.0,
                      duration=10.0),
            FaultSpec("host_crash", where="origin-proxy-1", at=at + 25.0,
                      duration=20.0),
        ],
        description="slow+rogue app servers, one throttled, one "
                    "crash-rebooted, plus an origin proxy crash "
                    "(§5-style compound)")


def _proxy_resilience() -> ResilienceConfig:
    """The proxy tiers' knobs, sized for the scaled-down deployment."""
    return ResilienceConfig(
        enabled=True,
        # Re-probe an ejected backend often enough that a recovered
        # one returns within the run.
        ejection_duration=6.0,
        ejection_max_duration=30.0,
        # Trip Edge→Origin breakers fast while a crashed Origin refuses.
        breaker_consecutive_failures=3,
        breaker_open_duration=3.0,
        # Hedge a short request stuck ~10x past the healthy mean.
        hedge_delay=0.6,
        max_inflight=64,
        shed_retry_after=0.5,
    )


def _app_resilience() -> ResilienceConfig:
    """App-server tier: only the admission-control knobs matter."""
    config = _proxy_resilience()
    # Small enough that a CPU-throttled server sheds its queue instead
    # of cooking every admitted request into a client-visible timeout.
    config.max_inflight = 4
    return config


def _shed_total(components) -> float:
    """Sum ``admission_shed`` over every tag (active + draining)."""
    return sum(
        comp.counters.get("admission_shed")
        + sum(comp.counters.with_tag_prefix("admission_shed").values())
        for comp in components)


def run_arm(resilience_on: bool, seed: int = 0,
            options: RunOptions = RunOptions()) -> dict:
    """One arm of the ablation; faults start when measurement does."""
    off = ResilienceConfig(enabled=False)
    proxy_res = _proxy_resilience() if resilience_on else off
    app_res = _app_resilience() if resilience_on else off
    dep = build_deployment(
        seed=seed, edge_proxies=3, origin_proxies=2, app_servers=6,
        edge_config=ProxygenConfig(mode="edge", resilience=proxy_res),
        origin_config=ProxygenConfig(mode="origin", resilience=proxy_res),
        app_config=AppServerConfig(resilience=app_res),
        web=WebWorkloadConfig(clients_per_host=40, think_time=1.0,
                              cacheable_fraction=0.3, post_fraction=0.05,
                              post_size_min=100_000,
                              post_size_cap=1_000_000,
                              request_timeout=8.0),
        options=replace(options, fault_plan=_fault_plan(at=WARMUP)))
    dep.run(until=WARMUP + MEASURE)

    clients = dep.metrics.prefix_counters("web-clients")
    errors = (clients.get("get_conn_reset") + clients.get("post_conn_reset")
              + clients.get("get_error") + clients.get("post_error")
              + clients.get("get_timeout") + clients.get("post_timeout")
              + clients.get("connect_timeout")
              + clients.get("connect_refused"))
    ok = clients.get("get_ok") + clients.get("post_ok")
    sheds_seen = clients.get("get_shed") + clients.get("post_shed")

    proxies = dep.origin_servers + dep.edge_servers
    outlier = dep.metrics.scoped_counters("resilience-app")
    apps = dep.app_servers
    decisions = {
        "outlier_ejected": outlier.get("outlier_ejected"),
        "outlier_readmission_probe":
            outlier.get("outlier_readmission_probe"),
        "outlier_readmitted": outlier.get("outlier_readmitted"),
        "breaker_open": sum_counter(proxies, "breaker_open"),
        "breaker_rejected": sum_counter(proxies, "breaker_rejected"),
        "retries": sum_counter(proxies, "retries"),
        "retry_budget_exhausted":
            sum_counter(proxies, "retry_budget_exhausted"),
        "hedge_sent": sum_counter(proxies, "hedge_sent"),
        "hedge_won": sum_counter(proxies, "hedge_won"),
        "admission_shed": _shed_total(proxies) + _shed_total(apps),
        "sheds_absorbed_by_retry": sum_counter(proxies, "upstream_shed"),
        "idle_discarded": sum(
            inst.conn_pool.idle_discarded
            for server in dep.origin_servers
            for inst in (server.active_instance, server.draining_instance)
            if inst is not None),
    }
    return {
        "errors": errors,
        "requests_ok": ok,
        "error_ratio": errors / max(1.0, errors + ok),
        "sheds_seen_by_clients": sheds_seen,
        "decisions": decisions,
        "faults": fault_summary(dep),
        "run": dep.run_record,
    }


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    on = run_arm(True, seed=seed, options=options)
    off = run_arm(False, seed=seed, options=options)
    # Determinism: the resilient arm replayed under the same seed must
    # reproduce every scalar and every decision counter exactly.
    rerun = run_arm(True, seed=seed, options=options)

    result = ExperimentResult(
        name="resilience ablation: data plane vs slow+rogue backends",
        params={"seed": seed},
        faults=on["faults"],
        resilience=on["decisions"],
        # Popped: what is left of the arms must compare equal.
        runs=[arm.pop("run") for arm in (on, off, rerun)])
    for label, arm in (("on", on), ("off", off)):
        result.scalars[f"errors_{label}"] = arm["errors"]
        result.scalars[f"requests_ok_{label}"] = arm["requests_ok"]
        result.scalars[f"error_ratio_{label}"] = arm["error_ratio"]
    result.scalars["sheds_seen_by_clients"] = on["sheds_seen_by_clients"]
    result.scalars["error_ratio_off_over_on"] = (
        off["error_ratio"] / max(1e-9, on["error_ratio"]))

    decisions = on["decisions"]
    result.claims.update({
        # The headline: turning the data plane on strictly lowers the
        # user-visible error ratio under the same faults and seed.
        "resilience_lowers_error_ratio":
            on["error_ratio"] < off["error_ratio"],
        # The faults really fired on both arms.
        "faults_injected": any(
            e["injected_at"] is not None
            for e in on["faults"].get("events", [])),
        # Same seed, same decisions, same outcome — byte-for-byte.
        "deterministic": on == rerun,
        # The mechanisms demonstrably acted (not a vacuous win): slow +
        # rogue backends must provoke ejections and budgeted retries.
        "ejections_happened": decisions["outlier_ejected"] > 0,
        "retries_happened": decisions["retries"] > 0,
        "breaker_opened": decisions["breaker_open"] > 0,
        "hedges_happened": decisions["hedge_sent"] > 0,
        "sheds_happened": decisions["admission_shed"] > 0,
        # The baseline arm must not take any resilience decisions.
        # ``idle_discarded`` is the connection pool's stale-reuse
        # redial, which runs with the data plane off too.
        "baseline_untouched": all(
            count == 0 for name, count in off["decisions"].items()
            if name != "idle_discarded"),
    })
    return result
