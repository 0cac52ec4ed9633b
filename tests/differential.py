"""Shared plumbing for differential (bit-identical) comparisons.

Several suites prove that independently-built runs are *identical*, not
statistically close: ``tests/perf`` (optimized kernel vs the frozen
reference), ``tests/cohorts`` (individual clients vs the condensed
cohort rung), ``tests/splice`` and the CLI double-run.  They need the
same two ingredients, kept here so they cannot drift apart:

* :func:`reset_id_allocators` — module-global ID counters (request ids,
  connection ids, packet ids...) are cosmetic but leak monotonically
  across runs within one process; resetting them before each run makes
  trace and snapshot comparisons exact instead of requiring
  ID-normalization;
* :func:`full_snapshot` — every metric a run produced
  (:meth:`repro.metrics.MetricsRegistry.snapshot`) plus the kernel's
  clock and event count, as one comparable dict.
"""

import importlib
import itertools

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
    env = deployment.env
    return {**deployment.metrics.snapshot(), "now": env.now, "eid": env._eid}
