"""Closed-loop ops: a diurnal day, a bad release, and a canary gate.

The control-plane proof (`repro.ops` end to end): the same deployment
lives through one diurnal load day twice, and both times a *bad* app
binary (rogue HTTP statuses, §5.2) ships fleet-wide via rolling release.

* **closed loop** — the traffic-aware scheduler picks the quietest
  release window and batch size, a :class:`CanaryController` judges the
  first batch against the untouched fleet, votes abort, and the
  orchestrator rolls the canary batch back.  Blast radius: one batch.
* **open loop** — the same release walks the whole fleet unguarded, so
  every app server ends up serving the bad binary for the rest of the
  day.

Both arms run a reactive autoscaler over the app pool (growing into the
diurnal peak, shrinking after it) under the autoscaler-discipline
invariant checker.  Every decision — load-shape updates, scale-out/in,
canary verdicts — is counter-visible, and the whole run is
deterministic: CI executes it twice and diffs the reports byte for byte.
"""

from __future__ import annotations

from ..appserver.config import AppServerConfig
from ..clients.web import WebWorkloadConfig
from ..ops import (
    AutoscalerConfig,
    CanaryConfig,
    CanaryController,
    LoadShape,
    LoadShapeConfig,
    WavePlanConfig,
    attach_app_autoscaler,
    plan_release_waves,
)
from ..options import RunOptions
from ..release.orchestrator import RollingRelease, RollingReleaseConfig
from .common import ExperimentResult, aggregate_series, build_deployment

__all__ = ["run", "run_arm", "VersionedTarget"]

#: Client-visible errors the whole day may cost a release rollout —
#: sized to cover the *legitimate* disruption of restarting the fleet
#: (measured ≈ 12 errors per machine-restart at unit load), with room
#: to spare.  The closed loop must stay under it; the open loop's bad
#: binary burns straight past.
ERROR_BUDGET = 150.0

#: Sim seconds of the diurnal day, and the app pool it starts with.
DAY_LENGTH = 120.0
APP_SERVERS = 6


class VersionedTarget:
    """Release target deploying a candidate binary onto an AppServer.

    The simulation does not model binary versions, so the wrapper does:
    the first restart ships the candidate (a rogue-status fault — the
    §5.2 bad release), and the next restart (the orchestrator's
    rollback) reverts to the incumbent.
    """

    def __init__(self, server, rogue_fraction: float):
        self.server = server
        self.rogue_fraction = rogue_fraction
        self.candidate_live = False

    @property
    def name(self) -> str:
        return self.server.name

    @property
    def counters(self):
        return self.server.counters

    def restart(self):
        yield from self.server.restart()
        if self.candidate_live:
            self.server.fault_rogue_fraction = None       # roll back
            self.candidate_live = False
        else:
            self.server.fault_rogue_fraction = self.rogue_fraction
            self.candidate_live = True


def run_arm(gated: bool, seed: int = 0, rogue_fraction: float = 0.7,
            warmup: float = 10.0,
            options: RunOptions = RunOptions()) -> dict:
    """One diurnal day with a bad release; ``gated`` adds the canary."""
    shape_config = LoadShapeConfig(kind="diurnal", day_length=DAY_LENGTH,
                                   trough_scale=0.4, peak_scale=1.8,
                                   peak_at=0.5, resolution=2.0)
    deployment = build_deployment(
        seed=seed, edge_proxies=3, origin_proxies=2,
        app_servers=APP_SERVERS,
        app_config=AppServerConfig(drain_duration=1.0,
                                   restart_downtime=2.0),
        web=WebWorkloadConfig(clients_per_host=30, think_time=0.5,
                              post_fraction=0.2),
        load_shape=shape_config,
        # Right-sized app hosts: the diurnal swing moves CPU through a
        # realistic 0.13–0.32 band the autoscaler can react to, with
        # enough headroom that a healthy release costs no requests.
        app_cores=2, app_core_speed=8.0, options=options)
    autoscaler = attach_app_autoscaler(deployment, AutoscalerConfig(
        min_size=APP_SERVERS, max_size=APP_SERVERS + 4,
        evaluate_interval=5.0, signal_window=5.0,
        scale_out_utilization=0.29, scale_in_utilization=0.16,
        cooldown_out=10.0, cooldown_in=35.0))

    # Traffic-aware plan: wave starts at the quietest slots of the day,
    # batch fractions shrunk at load, all under the error budget.
    shape = LoadShape(shape_config)
    plan_config = WavePlanConfig(
        waves=3, base_batch_fraction=0.34, min_batch_fraction=0.17,
        max_batch_fraction=0.34,
        disruption_per_target=ERROR_BUDGET / (2.0 * APP_SERVERS),
        error_budget=ERROR_BUDGET)
    waves = plan_release_waves(shape, start=warmup,
                               horizon=DAY_LENGTH - warmup,
                               targets=APP_SERVERS, config=plan_config)
    first_wave = waves[0]

    targets = [VersionedTarget(server, rogue_fraction)
               for server in deployment.app_servers]
    gate = None
    if gated:
        gate = CanaryController(deployment.env, CanaryConfig(
            judgment_window=6.0, hold_window=3.0, max_holds=2,
            min_requests=10.0, error_ratio_threshold=0.05,
            regression_factor=3.0, gate_batches=1),
            metrics=deployment.metrics)
    release = RollingRelease(
        deployment.env, targets,
        RollingReleaseConfig(batch_fraction=first_wave.batch_fraction,
                             batch_timeout=20.0,
                             post_batch_wait=1.0,
                             error_budget=len(targets),
                             rollback_on_abort=gated),
        name="ops-app-release", gate=gate)

    def _start_at_wave():
        yield deployment.env.timeout(first_wave.start)
        yield from release.execute()

    deployment.env.process(_start_at_wave())
    deployment.run(until=DAY_LENGTH)

    clients = deployment.metrics.prefix_counters("web-clients")
    errors = (clients.get("get_error") + clients.get("post_error")
              + clients.get("get_timeout") + clients.get("post_timeout")
              + clients.get("get_conn_reset")
              + clients.get("post_conn_reset"))
    ok = clients.get("get_ok") + clients.get("post_ok")
    bad_served = sum(
        t.server.counters.get("http_status", tag="rogue") for t in targets)
    load = deployment.load_controller
    return {
        "deployment": deployment,
        "release": release,
        "gate": gate,
        "autoscaler": autoscaler,
        "waves": waves,
        "errors": errors,
        "requests_ok": ok,
        "error_ratio": errors / max(1.0, errors + ok),
        "bad_responses_served": bad_served,
        "machines_on_candidate": sum(
            1 for t in targets if t.candidate_live),
        "rate_updates": load.updates if load is not None else 0,
        "scale_outs": sum(
            1 for d in autoscaler.decisions if d.action == "out"),
        "scale_ins": sum(
            1 for d in autoscaler.decisions if d.action == "in"),
        "peak_pool": max(size for _, size in autoscaler.size_series),
        "error_series": aggregate_series(
            deployment.metrics, "client/requests_error", 0.0, DAY_LENGTH),
    }


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    closed = run_arm(True, seed=seed, options=options)
    open_ = run_arm(False, seed=seed, options=options)

    result = ExperimentResult(
        name="opsloop: canary-gated release vs open loop over a "
             "diurnal day",
        params={"seed": seed, "day_length": DAY_LENGTH,
                "app_servers": APP_SERVERS,
                "error_budget": ERROR_BUDGET},
        runs=[closed["deployment"].run_record,
              open_["deployment"].run_record])
    for label, arm in (("closed", closed), ("open", open_)):
        release = arm["release"]
        result.scalars[f"errors_{label}"] = arm["errors"]
        result.scalars[f"requests_ok_{label}"] = arm["requests_ok"]
        result.scalars[f"error_ratio_{label}"] = arm["error_ratio"]
        result.scalars[f"bad_responses_{label}"] = arm[
            "bad_responses_served"]
        result.scalars[f"machines_on_candidate_{label}"] = arm[
            "machines_on_candidate"]
        result.scalars[f"batches_{label}"] = len(release.batches)
        result.scalars[f"rolled_back_{label}"] = len(release.rolled_back)
        result.scalars[f"rate_updates_{label}"] = arm["rate_updates"]
        result.scalars[f"scale_outs_{label}"] = arm["scale_outs"]
        result.scalars[f"scale_ins_{label}"] = arm["scale_ins"]
        result.scalars[f"peak_pool_{label}"] = arm["peak_pool"]
        result.series[f"client_errors_{label}"] = arm["error_series"]

    waves = closed["waves"]
    peak_wave = max(waves, key=lambda w: w.load_scale)
    trough_wave = min(waves, key=lambda w: w.load_scale)
    result.scalars["wave_fraction_at_peak"] = peak_wave.batch_fraction
    result.scalars["wave_fraction_at_trough"] = trough_wave.batch_fraction
    result.scalars["release_start"] = waves[0].start

    gate = closed["gate"]
    release_closed = closed["release"]
    release_open = open_["release"]
    gate_batches = gate.config.gate_batches
    result.claims.update({
        # The canary verdict fired and stopped the rollout within one
        # batch of the canary itself.
        "canary_aborted_release":
            release_closed.aborted
            and release_closed.abort_reason == "canary",
        "abort_within_one_batch_of_canary":
            len(release_closed.batches) <= gate_batches + 1,
        "canary_batch_rolled_back":
            len(release_closed.rolled_back) > 0
            and not release_closed.rollback_failed,
        "closed_fleet_back_on_incumbent":
            closed["machines_on_candidate"] == 0,
        # The open loop shipped the candidate everywhere and burned the
        # day's error budget; the closed loop stayed inside it.
        "open_loop_released_everything":
            not release_open.aborted
            and len(release_open.completed_targets) == APP_SERVERS,
        "open_loop_burns_error_budget": open_["errors"] > ERROR_BUDGET,
        "closed_loop_stays_in_budget": closed["errors"] < ERROR_BUDGET,
        "closed_beats_open_on_bad_responses":
            closed["bad_responses_served"]
            < open_["bad_responses_served"] / 4.0,
        # The supporting loops did real work, visibly.
        "autoscaler_grew_into_the_peak": closed["scale_outs"] > 0,
        "load_shape_updates_bounded_by_table":
            0 < closed["rate_updates"] <= DAY_LENGTH / 2.0 + 1,
        "scheduler_shrinks_batches_at_peak":
            peak_wave.batch_fraction <= trough_wave.batch_fraction
            and waves[0].load_scale < shape_peak(closed),
    })
    return result


def shape_peak(arm: dict) -> float:
    spec = arm["deployment"].spec.load_shape
    return LoadShape(spec).peak()
