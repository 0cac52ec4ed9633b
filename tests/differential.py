"""Shared plumbing for differential (bit-identical) comparisons.

Several suites prove that independently-built runs are *identical*, not
statistically close: ``tests/perf`` (optimized kernel vs the frozen
reference), ``tests/cohorts`` (individual clients vs the condensed
cohort rung), ``tests/splice`` and the CLI double-run.  Nothing is
rewound between their arms — each run draws its request and connection
ids from its own record (``repro.run.RunRecord``) — so what they share
is one comparable view of a run:

* :func:`full_snapshot` — every metric a run produced
  (:meth:`repro.metrics.MetricsRegistry.snapshot`) plus the kernel's
  clock and event count, as one comparable dict.
"""


def full_snapshot(deployment) -> dict:
    env = deployment.env
    return {**deployment.metrics.snapshot(), "now": env.now, "eid": env._eid}
