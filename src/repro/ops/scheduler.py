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

__all__ = ["WavePlanConfig", "ReleaseWave", "plan_release_waves"]


@dataclass
class WavePlanConfig:
    """Planner policy."""

    #: Number of release waves to spread over the horizon.
    waves: int = 4
    #: Batch fraction used at the load trough...
    base_batch_fraction: float = 0.25
    #: ...clamped into this range everywhere else.
    min_batch_fraction: float = 0.05
    max_batch_fraction: float = 0.5
    #: Expected client-visible disruption per restarted machine at unit
    #: load scale (abstract "error units"; same units as error_budget).
    disruption_per_target: float = 1.0
    #: Total disruption the whole plan may incur; ``None`` = unlimited.
    error_budget: Optional[float] = None

    def validate(self) -> None:
        if self.waves < 1:
            raise ValueError("waves must be >= 1")
        if not (0 < self.min_batch_fraction
                <= self.max_batch_fraction <= 1):
            raise ValueError(
                "need 0 < min_batch_fraction <= max_batch_fraction <= 1")
        if self.base_batch_fraction <= 0:
            raise ValueError("base_batch_fraction must be positive")
        if self.disruption_per_target < 0:
            raise ValueError("disruption_per_target must be >= 0")


@dataclass
class ReleaseWave:
    """One planned wave: when to start and how big to batch."""

    start: float
    batch_fraction: float
    load_scale: float


def plan_release_waves(shape, start: float, horizon: float, targets: int,
                       config: Optional[WavePlanConfig] = None
                       ) -> list[ReleaseWave]:
    """Plan wave start times and batch fractions over ``horizon``.

    The horizon is split into ``config.waves`` equal slots; each wave
    starts at the quietest sampled instant of its slot (first such
    instant on ties, so plans are deterministic).
    """
    config = config or WavePlanConfig()
    config.validate()
    if targets < 1:
        raise ValueError("targets must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")

    step = max(shape.config.resolution, horizon / (config.waves * 64))
    trough = shape.trough()
    slot = horizon / config.waves
    waves: list[ReleaseWave] = []
    for index in range(config.waves):
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
            best_scale, config.base_batch_fraction, trough,
            config.min_batch_fraction, config.max_batch_fraction)
        waves.append(ReleaseWave(start=best_t, batch_fraction=fraction,
                                 load_scale=best_scale))

    if config.error_budget is not None:
        _fit_budget(waves, targets, config)
    return waves


def _projected_disruption(waves, targets: int,
                          config: WavePlanConfig) -> float:
    """Σ over waves of batch_size × per-target cost × load scale."""
    per_wave_targets = targets / len(waves)
    return sum(
        math.ceil(wave.batch_fraction * per_wave_targets)
        * config.disruption_per_target * wave.load_scale
        for wave in waves)


def _fit_budget(waves, targets: int, config: WavePlanConfig) -> None:
    """Deterministically shrink the costliest fractions into budget."""
    budget = config.error_budget
    while _projected_disruption(waves, targets, config) > budget:
        # Shrink the wave currently contributing the most disruption;
        # stop once everything is already at the floor.
        candidates = [w for w in waves
                      if w.batch_fraction > config.min_batch_fraction]
        if not candidates:
            break
        worst = max(candidates,
                    key=lambda w: w.batch_fraction * w.load_scale)
        worst.batch_fraction = max(config.min_batch_fraction,
                                   worst.batch_fraction * 0.8)
