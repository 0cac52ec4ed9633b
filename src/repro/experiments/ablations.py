"""Ablations for the design choices DESIGN.md §5 calls out.

Beyond the figure arms (FD passing, CID routing, DCR, PPR on/off), three
quantitative trade-offs the paper discusses in prose:

* the Katran **LRU connection table** absorbing health-check flaps
  (§5.1 remediation);
* the **draining period length** vs. long-lived-connection disruption
  (§2.5: at the tail, requests outlive any practical drain);
* the **PPR retry budget** (§4.4: production uses 10 retries and never
  exhausts them).
"""

from __future__ import annotations

from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..lb.katran import DOWN_THRESHOLD, UP_THRESHOLD, Katran, KatranConfig
from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint, FourTuple, Protocol
from ..netsim.host import Host
from ..netsim.network import LinkProfile, Network
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from ..simkernel.core import Environment
from ..simkernel.rng import RandomStreams
from .common import ExperimentResult, build_deployment, sum_counter

__all__ = ["run", "run_lru_ablation", "run_drain_duration_sweep",
           "run_ppr_retry_budget"]

#: The LRU ablation's pool size and health flaps per arm.
LRU_BACKENDS = 8
LRU_FLAPS = 4
#: Seconds the drain sweep observes after its release starts.
DRAIN_SWEEP_MEASURE = 30.0


def run_lru_ablation(seed: int = 0, flows: int = 3000) -> ExperimentResult:
    """§5.1: how many existing flows get remapped when a backend's
    health flaps, with and without the LRU connection table."""

    def one_arm(lb_scheme: str) -> float:
        env = Environment()
        streams = RandomStreams(seed)
        metrics = MetricsRegistry()
        network = Network(env, streams,
                          default_profile=LinkProfile(latency=0.001))
        hosts = [Host(env, network, f"b{i}", f"10.0.1.{i + 1}", "edge",
                      metrics) for i in range(LRU_BACKENDS)]
        katran_host = Host(env, network, "katran", "10.0.0.200", "edge",
                           metrics)
        katran = Katran(katran_host, hosts,
                        config=KatranConfig(lb_scheme=lb_scheme))
        flows_list = [FourTuple(Protocol.TCP,
                                Endpoint("1.1.1.1", 1024 + i),
                                Endpoint("100.64.0.1", 443))
                      for i in range(flows)]
        before = {f: katran.route(f) for f in flows_list}
        remapped = 0
        rng = streams.stream("flaps")
        for _ in range(LRU_FLAPS):
            victim_ip = rng.choice(list(katran.backends))
            state = katran.backends[victim_ip]
            # Momentary flap: down for a beat, then back.
            for _ in range(DOWN_THRESHOLD):
                katran._mark(state, healthy=False)
            during = {f: katran.route(f) for f in flows_list}
            for _ in range(UP_THRESHOLD):
                katran._mark(state, healthy=True)
            remapped += sum(1 for f in flows_list
                            if during[f] != before[f])
        return remapped

    with_lru = one_arm("lru")
    without_lru = one_arm("stateless")
    result = ExperimentResult(
        name="ablation: Katran LRU connection table vs HC flaps",
        params={"backends": LRU_BACKENDS, "flows": flows,
                "flaps": LRU_FLAPS})
    result.scalars.update({
        "flows_remapped_with_lru": float(with_lru),
        "flows_remapped_without_lru": float(without_lru),
    })
    result.claims.update({
        # The LRU pins every existing flow through the flap.
        "lru_absorbs_flaps": with_lru == 0,
        # Without it, (victim share × flaps) of the flows get remapped
        # mid-flap — broken connections at the L4 layer.
        "without_lru_remaps_flows":
            without_lru > flows * LRU_FLAPS * 0.02,
    })
    return result


def run_drain_duration_sweep(seed: int = 0,
                             drains: tuple = (3.0, 10.0, 40.0),
                             options: RunOptions = RunOptions()
                             ) -> ExperimentResult:
    """Longer drains postpone (and, for work that ends naturally, avoid)
    the drain-end kill.

    Sweeps the edge drain duration during a ZDR release under MQTT
    traffic *without* client solicitation support (the §4.2 caveat
    population) and counts sessions cut within a fixed observation
    window.  A drain longer than the window masks the disruption
    entirely — the paper's production setting (20-minute drains) in
    miniature.
    """
    result = ExperimentResult(
        name="ablation: drain duration vs long-lived disruption",
        params={"drains": list(drains), "seed": seed})
    broken_by_drain = {}
    for drain in drains:
        dep = build_deployment(
            seed=seed, edge_proxies=3,
            edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                       enable_takeover=True,
                                       enable_dcr=True, spawn_delay=1.0),
            web=None, quic=None,
            mqtt=MqttWorkloadConfig(
                users_per_host=30, publish_interval=3.0,
                supports_reconnect_solicitation=False),
            options=options)
        result.runs.append(dep.run_record)
        dep.run(until=15)
        release = RollingRelease(dep.env, dep.edge_servers,
                                 RollingReleaseConfig(batch_fraction=0.34))
        dep.env.process(release.execute())
        dep.run(until=15 + DRAIN_SWEEP_MEASURE)
        broken = dep.metrics.scoped_counters(
            "mqtt-clients").get("session_broken")
        broken_by_drain[drain] = broken
        result.scalars[f"sessions_broken_drain_{drain:g}s"] = broken
    values = [broken_by_drain[d] for d in drains]
    result.claims.update({
        "short_drains_break_sessions": values[0] > 0,
        "monotone_non_increasing": all(
            a >= b for a, b in zip(values, values[1:])),
        # A drain longer than the observation window fully masks the
        # disruption during it.
        "window_outliving_drain_masks_disruption": values[-1] == 0,
    })
    return result


def run_ppr_retry_budget(seed: int = 0,
                         budgets: tuple = (0, 1, 10),
                         options: RunOptions = RunOptions()
                         ) -> ExperimentResult:
    """§4.4: with enough retries, a replay always finds a healthy
    server; with budget 0, every 379 becomes a user-visible failure."""
    result = ExperimentResult(
        name="ablation: PPR retry budget",
        params={"budgets": list(budgets), "seed": seed})
    disrupted_by_budget = {}
    for budget in budgets:
        dep = build_deployment(
            seed=seed, edge_proxies=2, origin_proxies=2, app_servers=3,
            origin_config=ProxygenConfig(mode="origin",
                                         drain_duration=5.0,
                                         spawn_delay=1.0,
                                         ppr_max_retries=budget),
            app_config=AppServerConfig(drain_duration=2.0,
                                       restart_downtime=3.0),
            web=WebWorkloadConfig(clients_per_host=10, think_time=1.0,
                                  post_fraction=0.8,
                                  post_size_min=300_000,
                                  post_size_cap=3_000_000,
                                  upload_bandwidth=150_000.0),
            mqtt=None, quic=None, options=options)
        result.runs.append(dep.run_record)
        dep.run(until=20)
        release = RollingRelease(dep.env, dep.app_servers,
                                 RollingReleaseConfig(batch_fraction=0.34,
                                                      post_batch_wait=4.0))
        dep.env.process(release.execute())
        dep.run(until=80)
        disrupted = sum_counter(dep.origin_servers, "post_disrupted")
        rescued = sum_counter(dep.origin_servers, "ppr_379_received")
        disrupted_by_budget[budget] = (disrupted, rescued)
        result.scalars[f"disrupted_budget_{budget}"] = disrupted
        result.scalars[f"rescued_379_budget_{budget}"] = rescued
    result.claims.update({
        "zero_budget_disrupts": disrupted_by_budget[budgets[0]][0] > 0,
        "production_budget_never_fails":
            disrupted_by_budget[budgets[-1]][0] == 0,
    })
    return result


def run(seed: int = 0, flows: int = 3000,
        drains: tuple = (3.0, 10.0, 40.0),
        options: RunOptions = RunOptions()) -> ExperimentResult:
    """Composite runner: the three ablations, prefixed a_/b_/c_."""
    result = ExperimentResult(name="ablations: LRU table, drain length, "
                                   "PPR retry budget",
                              params={"seed": seed})
    result.absorb(run_lru_ablation(seed=seed, flows=flows), "a_")
    result.absorb(run_drain_duration_sweep(seed=seed, drains=drains,
                                           options=options), "b_")
    result.absorb(run_ppr_retry_budget(seed=seed, options=options), "c_")
    return result
