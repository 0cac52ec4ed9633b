"""Run options: the one piece of run-wide configuration.

The experiments CLI (``--faults``, ``--resilience``, ``--lb-scheme``,
``--load-shape``, ``--cohorts``, ``--splice``, ``--canary``,
``--shards``, ``--trace``) builds one :class:`RunOptions` and runs the
figure loop inside ``with use(options):``.  Topology builders resolve
``current()`` once, in ``__init__`` (see ``cluster.base.Topology``), and
afterwards read only their resolved spec.  Every spec field an option
targets is declared on ``cluster.spec.TierConfigs``, the base of both
specs, so :meth:`RunOptions.apply` treats every spec alike.

This module imports nothing from ``repro`` so every layer may import it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

__all__ = ["RunOptions", "current", "use"]


@dataclass(frozen=True)
class RunOptions:
    """Everything a run can switch on from outside the figure modules.

    Precedence against a spec (:meth:`apply`): ``resilience`` and
    ``lb_scheme`` override the spec's; ``load_shape``, ``cohorts`` and
    ``splice`` apply only where the spec leaves the field ``None``.  An
    explicit ``fault_plan=`` constructor argument, ``RollingRelease(gate=)``
    and ``trace.runtime.install(dep, config)`` beat the options.
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


_current = RunOptions()


def current() -> RunOptions:
    """The options in force (all-``None`` outside any :func:`use`)."""
    return _current


@contextmanager
def use(options: RunOptions):
    """Run the block under ``options``; restores the previous value on
    exit, exception or not."""
    global _current
    previous, _current = _current, options
    try:
        yield options
    finally:
        _current = previous
