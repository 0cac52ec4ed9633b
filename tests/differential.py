"""Shared plumbing for bit-identical comparisons of whole runs.

``tests/golden`` (every registered run against its record),
``tests/cohorts``, ``tests/splice`` and the CLI double-run prove runs
*identical*, not close.  Nothing is rewound between runs (each draws its
ids from its own ``repro.run.RunRecord``), so they share one view of a
run, :func:`full_snapshot`, and one way to find the topologies a block
built, :func:`topology_hook`.
"""

import contextlib

from repro.cluster.base import Topology


def full_snapshot(deployment) -> dict:
    """Every metric the run recorded, its clock, scheduled events and
    in-place hand-offs."""
    stats = deployment.env.stats()
    return {**deployment.metrics.snapshot(), "now": stats["now"],
            "events": stats["events"], "handoffs": stats["handoffs"]}


@contextlib.contextmanager
def topology_hook(seen):
    """Call ``seen(topology)`` for every topology built in the block,
    in build order."""
    build = Topology.__init__

    def hooked(self, *args, **kwargs):
        build(self, *args, **kwargs)
        seen(self)

    Topology.__init__ = hooked
    try:
        yield
    finally:
        Topology.__init__ = build
