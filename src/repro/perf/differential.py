"""Shared plumbing for differential (bit-identical) comparisons.

Two suites need to prove that independently-built runs are *identical*,
not statistically close: ``tests/perf`` (optimized kernel vs the frozen
reference) and ``tests/cohorts`` (individual clients vs the condensed
cohort rung).  Both comparisons need the same two ingredients, kept
here so they cannot drift apart:

* :func:`reset_id_allocators` — module-global ID counters (request ids,
  connection ids, packet ids...) are cosmetic but leak monotonically
  across runs within one process; resetting them before each run makes
  trace and snapshot comparisons exact instead of requiring
  ID-normalization;
* :func:`full_snapshot` — every metric a run produced, plus the
  kernel's clock and event count, as one comparable dict.
"""

from __future__ import annotations

import importlib
import itertools

__all__ = ["ID_ALLOCATORS", "full_snapshot", "reset_id_allocators"]

#: (module, attribute, start) for every module-global ID allocator.
ID_ALLOCATORS = [
    ("repro.protocols.http", "_request_ids", 1),
    ("repro.protocols.quic", "_cid_counter", 0x1000),
    ("repro.protocols.quic", "_packet_numbers", 1),
    ("repro.netsim.process", "_pids", 100),
]


def reset_id_allocators() -> None:
    """Rewind every module-global ID allocator to its import-time value."""
    for module_name, attr, start in ID_ALLOCATORS:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{module_name}.{attr} moved"
        setattr(module, attr, itertools.count(start))


def full_snapshot(deployment) -> dict:
    """Every metric the run produced — counters in every scope, raw
    time-series buckets, quantile samples (in insertion order, so the
    *sequence* of observations matters, not just the distribution),
    utilization buckets — plus the kernel's clock and event count."""
    metrics = deployment.metrics
    return {
        "global": metrics.global_counters.snapshot(),
        "scoped": {scope: metrics.scoped_counters(scope).snapshot()
                   for scope in metrics.scopes()},
        "series": {name: (series._sums, series._counts)
                   for name, series in sorted(metrics._series.items())},
        "quantiles": {name: list(q._values)
                      for name, q in sorted(metrics._quantiles.items())},
        "utilization": {scope: tracker.busy._buckets
                        for scope, tracker
                        in sorted(metrics._utilization.items())},
        "now": deployment.env.now,
        "eid": deployment.env._eid,
    }
