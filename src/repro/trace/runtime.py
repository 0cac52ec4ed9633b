"""Drain registry for the collectors of harness-built deployments.

A topology builds its run's collector itself, from ``RunOptions.trace``
(the CLI's ``--trace``), before any component exists.  What is left for
the harness is the hand-over to the CLI: the builders :func:`register`
each deployment they construct and the end of the run :func:`drain`\\ s
every collector a figure built.  Mirrors
:mod:`repro.invariants.runtime`.
"""

from __future__ import annotations

from .collector import TraceCollector

__all__ = ["register", "drain"]

_installed: list[TraceCollector] = []


def register(deployment) -> None:
    """Queue ``deployment``'s collector, if it traces, for :func:`drain`."""
    tracer = deployment.run_record.tracer
    if tracer is not None:
        _installed.append(tracer)


def drain() -> list[TraceCollector]:
    """Forget and return every registered collector, in build order."""
    collectors = list(_installed)
    _installed.clear()
    return collectors
