"""Opt-in tracing for harness-built deployments.

Mirrors :mod:`repro.invariants.runtime`: the CLI's ``--trace`` flag arms
tracing through the run options (``RunOptions.trace``), ``build_deployment``
calls :func:`install` right after constructing a deployment, and the
run's end calls :func:`drain` to collect every installed collector.

``install`` must run **before** ``deployment.start()``: Proxygen
instances cache ``metrics.tracing`` when they boot (bound-handle
discipline), so a collector attached after startup only covers
instances spawned later.
"""

from __future__ import annotations

from typing import Optional

from ..release import orchestrator as release_orchestrator
from .collector import TraceCollector, TraceConfig

__all__ = ["install", "uninstall", "drain"]

_installed: list[TraceCollector] = []


def install(deployment,
            config: Optional[TraceConfig] = None) -> Optional[TraceCollector]:
    """Attach a collector to ``deployment`` (no-op unless ``config`` is
    given or the deployment's run options carry one); registers it for
    :func:`drain`.

    The collector draws its ids from the deployment's seeded ``"trace"``
    stream and observes the release orchestrator so takeover/release
    phases land in the event log next to the spans they disrupt.
    """
    config = config if config is not None else deployment.options.trace
    if config is None:
        return None
    if deployment.metrics.tracing is not None:
        return deployment.metrics.tracing
    collector = TraceCollector(deployment.env,
                               deployment.streams.stream("trace"), config)
    deployment.metrics.tracing = collector
    release_orchestrator.add_release_observer(deployment.env,
                                              collector.on_release)
    _installed.append(collector)
    return collector


def uninstall(collector: TraceCollector) -> None:
    """Forget one collector (the fuzz runner forgets per scenario)."""
    if collector in _installed:
        _installed.remove(collector)


def drain() -> list[TraceCollector]:
    """Forget and return every installed collector, in install order."""
    collectors = list(_installed)
    _installed.clear()
    return collectors
