"""Shared plumbing for the per-figure experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.quic import QuicWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..cluster.deployment import Deployment
from ..cluster.spec import DeploymentSpec
from ..invariants import InvariantSuite
from ..options import RunOptions
from ..proxygen.config import ProxygenConfig

__all__ = ["ExperimentResult", "build_deployment",
           "build_regional_deployment", "fault_summary",
           "sum_counter", "aggregate_series", "mean"]


@dataclass
class ExperimentResult:
    """What an experiment harness returns.

    ``series`` holds named (time, value) curves (the figure's lines);
    ``scalars`` holds the headline numbers; ``claims`` records the
    paper-shape checks the benchmark asserts; ``faults`` carries the
    injector summary when the run executed under a fault plan (see
    :mod:`repro.faults`), so a figure rerun under chaos is labelled as
    such; ``runs`` hands back the record (:class:`repro.run.RunRecord`)
    of every topology the harness built, in build order — the CLI
    finalizes their invariant suites and prints their tracers.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    claims: dict[str, bool] = field(default_factory=dict)
    faults: dict[str, Any] = field(default_factory=dict)
    #: Resilience decision counters (mechanism → count) when the run
    #: exercised the resilient data plane (repro.resilience).
    resilience: dict[str, float] = field(default_factory=dict)
    runs: list = field(default_factory=list)

    def rows(self) -> list[str]:
        """Human-readable result rows (what the bench prints)."""
        out = [f"== {self.name} =="]
        for key, value in sorted(self.params.items()):
            out.append(f"   param {key} = {value}")
        for key, value in sorted(self.scalars.items()):
            out.append(f"   {key} = {value:.6g}")
        for key, ok in sorted(self.claims.items()):
            out.append(f"   claim[{key}] = {'PASS' if ok else 'FAIL'}")
        if self.faults:
            from ..metrics.report import render_faults
            out.extend("   " + row for row in render_faults(self.faults))
        if self.resilience:
            from ..metrics.report import render_resilience
            out.extend("   " + row
                       for row in render_resilience(self.resilience))
        return out

    def print(self) -> None:
        for row in self.rows():
            print(row)

    @property
    def all_claims_hold(self) -> bool:
        return all(self.claims.values())

    def absorb(self, part: "ExperimentResult", prefix: str) -> None:
        """Fold one arm of a composite run in, keys prefixed."""
        for name in ("scalars", "claims", "series"):
            getattr(self, name).update(
                (prefix + key, value)
                for key, value in getattr(part, name).items())
        self.runs += part.runs


def build_deployment(seed: int = 0,
                     edge_proxies: int = 4,
                     origin_proxies: int = 2,
                     app_servers: int = 3,
                     brokers: int = 1,
                     edge_config: Optional[ProxygenConfig] = None,
                     origin_config: Optional[ProxygenConfig] = None,
                     app_config: Optional[AppServerConfig] = None,
                     web: Optional[WebWorkloadConfig] = None,
                     mqtt: Optional[MqttWorkloadConfig] = None,
                     quic: Optional[QuicWorkloadConfig] = None,
                     options: RunOptions = RunOptions(),
                     **spec_kwargs) -> Deployment:
    """A deployment sized for experiment runtime (seconds, not minutes).

    ``options`` are the run's (:mod:`repro.options`: the CLI's flags,
    ``options.fault_plan`` included).
    """
    spec = DeploymentSpec(
        seed=seed,
        edge_proxies=edge_proxies,
        origin_proxies=origin_proxies,
        app_servers=app_servers,
        brokers=brokers,
        web_client_hosts=1 if web is not None else 0,
        mqtt_client_hosts=1 if mqtt is not None else 0,
        quic_client_hosts=1 if quic is not None else 0,
        edge_config=edge_config,
        origin_config=origin_config,
        app_config=app_config,
        web_workload=web,
        mqtt_workload=mqtt,
        quic_workload=quic,
        **spec_kwargs)
    return _started(Deployment(spec, options=options))


def build_regional_deployment(options: RunOptions = RunOptions(),
                              **spec_kwargs) -> "RegionalDeployment":
    """A multi-region deployment with the same always-on harness wiring
    as :func:`build_deployment` (invariant suite attached, started).
    ``spec_kwargs`` go straight into :class:`repro.regions.RegionalSpec`.
    """
    from ..regions import RegionalDeployment, RegionalSpec

    return _started(RegionalDeployment(RegionalSpec(**spec_kwargs),
                                       options=options))


def _started(deployment):
    # Always-on invariant checking: the full checker suite rides on the
    # run's record, which the harness hands back on its result for the
    # CLI to finalize.
    deployment.run_record.suite = InvariantSuite(deployment).attach()
    deployment.start()
    return deployment


def fault_summary(deployment: Deployment) -> dict:
    """The injector summary of this run ({} when no plan attached)."""
    injector = deployment.fault_injector
    return injector.summary() if injector is not None else {}


def sum_counter(servers, name: str, tag: Optional[str] = None) -> float:
    """Sum one counter over a list of components exposing ``counters``."""
    return sum(s.counters.get(name, tag=tag) for s in servers)


def aggregate_series(metrics, name: str, start: float,
                     end: float) -> list[tuple[float, float]]:
    if not metrics.has_series(name):
        width = metrics.bucket_width
        buckets = int((end - start) / width) + 1
        return [(start + i * width, 0.0) for i in range(buckets)]
    return metrics.series(name).series(start, end)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
