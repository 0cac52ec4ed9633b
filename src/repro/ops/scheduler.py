"""Traffic-aware release wave planning.

Given a :class:`~repro.ops.load.LoadShape` and an error budget,
:func:`plan_release_waves` picks *when* each release wave should start
(the quietest moment of its slot of the horizon) and *how big* its
batches may be (larger off-peak, smaller at peak, via
:func:`repro.release.schedule.batch_fraction_for_load`), then shrinks
fractions deterministically until the projected disruption fits the
budget.  The output is a plain list of :class:`ReleaseWave` rows an
experiment feeds into ``RollingRelease`` — the planner itself never
touches the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..release.schedule import batch_fraction_for_load

__all__ = ["ReleaseWave", "plan_release_waves"]

#: Release waves spread over the horizon.
WAVES = 3
#: Batch fraction used at the load trough...
BASE_BATCH_FRACTION = 0.34
#: ...clamped into this range everywhere else.
MIN_BATCH_FRACTION, MAX_BATCH_FRACTION = 0.17, 0.34


@dataclass
class ReleaseWave:
    """One planned wave: when to start and how big to batch."""

    start: float
    batch_fraction: float
    load_scale: float


def plan_release_waves(shape, start: float, horizon: float, targets: int,
                       disruption_per_target: float = 1.0,
                       error_budget: Optional[float] = None
                       ) -> list[ReleaseWave]:
    """Plan wave start times and batch fractions over ``horizon``.

    The horizon is split into :data:`WAVES` equal slots; each wave
    starts at the quietest sampled instant of its slot (first such
    instant on ties, so plans are deterministic).  With an
    ``error_budget`` (``None`` = unlimited), fractions then shrink until
    the projected disruption fits it, each restarted machine costing
    ``disruption_per_target`` (the budget's units) at unit load scale.
    """
    if targets < 1:
        raise ValueError("targets must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if disruption_per_target < 0:
        raise ValueError("disruption_per_target must be >= 0")

    step = max(shape.config.resolution, horizon / (WAVES * 64))
    trough = shape.trough()
    slot = horizon / WAVES
    waves: list[ReleaseWave] = []
    for index in range(WAVES):
        slot_start = start + index * slot
        slot_end = start + (index + 1) * slot
        best_t, best_scale = slot_start, shape.scale_at(slot_start)
        t = slot_start + step
        while t < slot_end:
            scale = shape.scale_at(t)
            if scale < best_scale:
                best_t, best_scale = t, scale
            t += step
        fraction = batch_fraction_for_load(
            best_scale, BASE_BATCH_FRACTION, trough,
            MIN_BATCH_FRACTION, MAX_BATCH_FRACTION)
        waves.append(ReleaseWave(start=best_t, batch_fraction=fraction,
                                 load_scale=best_scale))

    if error_budget is not None:
        _fit_budget(waves, targets, disruption_per_target, error_budget)
    return waves


def _projected_disruption(waves, targets: int,
                          disruption_per_target: float) -> float:
    """Σ over waves of batch_size × per-target cost × load scale."""
    per_wave_targets = targets / len(waves)
    return sum(
        math.ceil(wave.batch_fraction * per_wave_targets)
        * disruption_per_target * wave.load_scale
        for wave in waves)


def _fit_budget(waves, targets: int, disruption_per_target: float,
                budget: float) -> None:
    """Deterministically shrink the costliest fractions into budget."""
    while _projected_disruption(waves, targets,
                                disruption_per_target) > budget:
        # Shrink the wave currently contributing the most disruption;
        # stop once everything is already at the floor.
        candidates = [w for w in waves
                      if w.batch_fraction > MIN_BATCH_FRACTION]
        if not candidates:
            break
        worst = max(candidates,
                    key=lambda w: w.batch_fraction * w.load_scale)
        worst.batch_fraction = max(MIN_BATCH_FRACTION,
                                   worst.batch_fraction * 0.8)
