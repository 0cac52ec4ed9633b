"""Run options: the one piece of run-wide configuration.

The experiments CLI (``--faults``, ``--resilience``, ``--lb-scheme``,
``--load-shape``, ``--cohorts``, ``--splice``, ``--canary``,
``--shards``, ``--trace``) builds one :class:`RunOptions` and runs each
figure inside ``with use(options) as runs:``.  Topology builders resolve
``current()`` once, in ``__init__`` (see ``cluster.base.Topology``), and
afterwards read only their resolved spec; they also hand their run's
record to the open blocks, so ``runs`` is what the figure built (the
CLI reads each run's invariant suite and tracer from it).  Every spec
field an option targets is declared on ``cluster.spec.TierConfigs``,
the base of both specs, so :meth:`RunOptions.apply` treats every spec
alike.

This module imports nothing from ``repro`` so every layer may import it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

__all__ = ["RunOptions", "current", "note_run", "use"]


@dataclass(frozen=True)
class RunOptions:
    """Everything a run can switch on from outside the figure modules.

    Precedence against a spec (:meth:`apply`): ``resilience`` and
    ``lb_scheme`` override the spec's; ``load_shape``, ``cohorts`` and
    ``splice`` apply only where the spec leaves the field ``None``.  An
    explicit ``fault_plan=`` or ``options=`` constructor argument and
    ``RollingRelease(gate=)`` beat the options in force.
    """

    fault_plan: Any = None                    # faults.FaultPlan
    resilience: Any = None                    # resilience.ResilienceConfig
    lb_scheme: Optional[str] = None           # lb.routers.ROUTER_SCHEMES
    load_shape: Any = None                    # ops.load.LoadShapeConfig
    cohorts: Any = None                       # cohorts.CohortPolicy
    splice: Any = None                        # splice.SpliceConfig
    #: ``factory(release) -> gate``, called at ``execute()`` time for a
    #: release built without a gate.  A module-level function, so the
    #: options pickle.
    release_gate: Optional[Callable] = None
    shards: Optional[int] = None              # shard-aware harnesses
    trace: Any = None                         # trace.TraceConfig

    def apply(self, spec):
        """``spec`` with these options folded in.  Returns a copy — spec
        and config objects may be shared across experiment arms."""
        changes = {}
        if self.lb_scheme is not None:
            changes["lb_scheme"] = self.lb_scheme
        if self.load_shape is not None and spec.load_shape is None:
            changes["load_shape"] = self.load_shape
        if self.cohorts is not None and spec.cohorts is None:
            changes["cohorts"] = self.cohorts
        if self.splice is not None and spec.splice is None:
            changes["splice"] = self.splice
        if self.resilience is not None:
            for name in ("edge_config", "origin_config", "app_config"):
                config = getattr(spec, "resolved_" + name)()
                changes[name] = replace(config, resilience=self.resilience)
        return replace(spec, **changes) if changes else spec


#: The options in force and the run lists of the open :func:`use`
#: blocks, innermost last.
_current: tuple = (RunOptions(), ())


def current() -> RunOptions:
    """The options in force (all-``None`` outside any :func:`use`)."""
    return _current[0]


def note_run(record) -> None:
    """Hand a just-built run's record to every open :func:`use` block
    (outside all of them nobody collects, and nothing is kept)."""
    for runs in _current[1]:
        runs.append(record)


@contextmanager
def use(options: RunOptions):
    """Run the block under ``options``; yields the list of the run
    records (``repro.run.RunRecord``) of the topologies built inside it,
    nested blocks included, in build order.  Restores the previous
    options on exit, exception or not."""
    global _current
    previous = _current
    runs: list = []
    _current = (options, previous[1] + (runs,))
    try:
        yield runs
    finally:
        _current = previous
