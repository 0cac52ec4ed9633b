"""The closed-loop operations control plane (ROADMAP item 5).

Production never runs at a constant request rate, never keeps a fixed
fleet size, and never walks a release open-loop.  This package adds the
three feedback loops the paper's operators rely on:

* :mod:`repro.ops.load` — deterministic load shapes (diurnal curves,
  flash crowds, post-outage thundering herds) that modulate every client
  population's arrival rate over the sim horizon;
* :mod:`repro.ops.autoscale` — a reactive autoscaler growing/shrinking
  the app-server pool from utilization/queue signals,
  with cooldowns, min/max bounds and drain-respecting scale-in;
* :mod:`repro.ops.canary` — canary analysis over the first release
  batch, driving :class:`repro.release.orchestrator.RollingRelease`
  through its gate hook to proceed, hold, or auto-abort-and-rollback;
* :mod:`repro.ops.scheduler` — traffic-aware release-wave planning
  (small batches at peak, larger off-peak) under an error budget.

Everything here follows the repo's determinism discipline: no wall
clock, no ``random`` — every quantity derives from the sim clock and
the deployment's seeded streams.
"""

from .autoscale import AppPoolAdapter, Autoscaler, attach_app_autoscaler
from .canary import (CanaryConfig, CanaryController, default_canary_gate,
                     judge_window)
from .load import (
    LOAD_SHAPE_KINDS,
    LoadController,
    LoadShape,
    LoadShapeConfig,
    named_load_shape,
)
from .scheduler import ReleaseWave, plan_release_waves

__all__ = [
    "AppPoolAdapter", "Autoscaler", "attach_app_autoscaler",
    "CanaryConfig", "CanaryController", "default_canary_gate",
    "judge_window",
    "LOAD_SHAPE_KINDS", "LoadController", "LoadShape", "LoadShapeConfig",
    "named_load_shape",
    "ReleaseWave", "plan_release_waves",
]
