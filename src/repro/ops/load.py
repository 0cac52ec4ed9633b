"""Deterministic load shapes: diurnal curves, flash crowds, herds.

A :class:`LoadShape` maps sim time to a rate multiplier applied to every
client population's arrival pacing (think time, publish interval, packet
interval are all *divided* by the multiplier).  The shape is compiled
once into a piecewise-constant table, so sampling is an O(1) index
lookup — and the :class:`LoadController` pushes updates into the
populations only when the table value actually changes, so the per-event
hot path pays exactly one attribute read (``population.rate_scale``).

Shapes:

* ``diurnal`` — a cosine day: trough at night, peak mid-day, periodic;
* ``flash_crowd`` — baseline, linear ramp to a spike, hold, ramp down;
* ``post_outage_herd`` — baseline, a quiet window while "the outage"
  keeps clients away, then a reconnect spike decaying exponentially
  back to baseline (the thundering herd §6.1's drains exist to avoid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["LOAD_SHAPE_KINDS", "LoadShape", "LoadShapeConfig",
           "LoadController", "named_load_shape"]

LOAD_SHAPE_KINDS = ("diurnal", "flash_crowd", "post_outage_herd")

#: Populations never pause entirely — a zero rate would park every
#: client loop forever, which is a different scenario (an outage fault).
MIN_SCALE = 0.01

#: Multiplier everything else in a shape scales relative to.
BASE_SCALE = 1.0

#: Which client populations a shape drives, by protocol kind (``web`` |
#: ``mqtt`` | ``quic``); ``None`` drives every population.  A diurnal
#: shape on web traffic must not scale MQTT herds — rate scales are
#: per-population, and this is the selector.
APPLIES_TO: Optional[str] = None


@dataclass(frozen=True)
class LoadShapeConfig:
    """Parameters of one load shape (all times in sim seconds)."""

    kind: str = "diurnal"
    #: Table bucket width: the controller re-samples at this cadence.
    resolution: float = 1.0

    # -- diurnal -----------------------------------------------------------
    day_length: float = 120.0
    trough_scale: float = 0.4
    peak_scale: float = 1.6
    #: Where in the day the peak sits (fraction of ``day_length``).
    peak_at: float = 0.5

    # -- flash crowd -------------------------------------------------------
    flash_at: float = 30.0
    flash_ramp: float = 5.0
    flash_hold: float = 20.0
    flash_scale: float = 3.0

    # -- post-outage herd --------------------------------------------------
    outage_at: float = 20.0
    outage_duration: float = 10.0
    #: Arrival-rate multiplier the instant service comes back.
    herd_scale: float = 2.5
    #: Exponential decay constant back to baseline.
    herd_decay: float = 15.0

    def validate(self) -> None:
        if self.kind not in LOAD_SHAPE_KINDS:
            raise ValueError(f"unknown load shape {self.kind!r}; "
                             f"available: {LOAD_SHAPE_KINDS}")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.kind == "diurnal":
            if self.day_length <= 0:
                raise ValueError("day_length must be positive")
            if not 0 < self.trough_scale <= self.peak_scale:
                raise ValueError("need 0 < trough_scale <= peak_scale")
        elif self.kind == "flash_crowd":
            if self.flash_ramp < 0 or self.flash_hold < 0:
                raise ValueError("flash ramp/hold must be >= 0")
            if self.flash_scale <= 0:
                raise ValueError("flash_scale must be positive")
        else:  # post_outage_herd
            if self.outage_duration < 0 or self.herd_decay <= 0:
                raise ValueError("outage/herd timings must be positive")


class LoadShape:
    """A compiled shape: O(1) ``scale_at`` lookups over a fixed table."""

    def __init__(self, config: LoadShapeConfig):
        config.validate()
        self.config = config
        self.periodic = config.kind == "diurnal"
        self._res = config.resolution
        self._table = self._compile()
        self._span = len(self._table) * self._res

    # -- compilation -------------------------------------------------------

    def _compile(self) -> list[float]:
        config = self.config
        if config.kind == "diurnal":
            horizon = config.day_length
        elif config.kind == "flash_crowd":
            horizon = (config.flash_at + 2 * config.flash_ramp
                       + config.flash_hold + self._res)
        else:  # decay to within 1% of baseline, then clamp
            horizon = (config.outage_at + config.outage_duration
                       + config.herd_decay * math.log(100.0) + self._res)
        buckets = max(1, int(math.ceil(horizon / self._res)))
        return [max(MIN_SCALE, self._analytic((i + 0.5) * self._res))
                for i in range(buckets)]

    def _analytic(self, t: float) -> float:
        """The continuous curve the table discretizes."""
        config = self.config
        base = BASE_SCALE
        if config.kind == "diurnal":
            phase = t / config.day_length - config.peak_at
            blend = 0.5 * (1.0 + math.cos(2 * math.pi * phase))
            return base * (config.trough_scale
                           + (config.peak_scale - config.trough_scale)
                           * blend)
        if config.kind == "flash_crowd":
            rise = config.flash_at
            top = rise + config.flash_ramp
            fall = top + config.flash_hold
            done = fall + config.flash_ramp
            if t < rise or t >= done:
                return base
            if t < top:
                frac = (t - rise) / max(config.flash_ramp, 1e-9)
            elif t < fall:
                frac = 1.0
            else:
                frac = 1.0 - (t - fall) / max(config.flash_ramp, 1e-9)
            return base * (1.0 + (config.flash_scale - 1.0) * frac)
        # post_outage_herd
        start = config.outage_at
        back = start + config.outage_duration
        if t < start:
            return base
        if t < back:
            return base * MIN_SCALE  # clients held off by "the outage"
        decay = math.exp(-(t - back) / config.herd_decay)
        return base * (1.0 + (config.herd_scale - 1.0) * decay)

    # -- sampling ----------------------------------------------------------

    def scale_at(self, t: float) -> float:
        """The rate multiplier at sim time ``t`` — one index lookup."""
        if self.periodic:
            index = int((t % self._span) / self._res)
            if index >= len(self._table):  # float-edge wrap
                index = 0
        else:
            index = int(t / self._res)
            if index >= len(self._table):
                index = len(self._table) - 1
            elif index < 0:
                index = 0
        return self._table[index]

    def next_change(self, now: float) -> Optional[float]:
        """Delay until ``scale_at`` next returns a different value.

        ``None`` means the shape is constant from ``now`` on (only for
        non-periodic shapes past their horizon).  Always positive: when
        ``now`` sits exactly on a bucket edge (so float division makes
        the edge's delay collapse to zero), the caller is told to wait
        one bucket instead — never zero, which would spin a controller
        in an endless same-instant loop.
        """
        current = self.scale_at(now)
        table, res = self._table, self._res
        stale_edge = False
        if self.periodic:
            start = int((now % self._span) / res) % len(table)
            for step in range(1, len(table) + 1):
                index = (start + step) % len(table)
                if table[index] != current:
                    delay = (start + step) * res - (now % self._span)
                    if delay > 1e-9:
                        return delay
                    stale_edge = True
            return res if stale_edge else None  # flat (degenerate) day
        start = min(int(now / res), len(table) - 1)
        for index in range(start + 1, len(table)):
            if table[index] != current:
                delay = index * res - now
                if delay > 1e-9:
                    return delay
                stale_edge = True
        return res if stale_edge else None

    def peak(self) -> float:
        return max(self._table)

    def trough(self) -> float:
        return min(self._table)


class LoadController:
    """Sim process pushing shape changes into the client populations.

    The controller wakes only at table-value changes — never per event,
    never per arrival — and writes each population's ``rate_scale``
    attribute.  ``updates`` (and the ``ops-load`` counters) make the
    cadence auditable: it is bounded by the table size per period, not
    by the request count.
    """

    def __init__(self, env, shape: LoadShape, populations,
                 metrics=None, name: str = "ops-load"):
        self.env = env
        self.shape = shape
        applies_to = APPLIES_TO
        #: Rate scales are per-population: only populations whose
        #: protocol ``kind`` matches the :data:`APPLIES_TO` selector
        #: are driven; the rest keep their own scale untouched (a web
        #: diurnal must not scale MQTT herds).  Cohort drivers
        #: (repro.cohorts) carry ``kind`` too and fan the scale into
        #: their lanes, so per-cohort scales come for free.
        self.populations = [
            p for p in populations
            if p is not None and (applies_to is None
                                  or getattr(p, "kind", None) == applies_to)]
        self.name = name
        self.counters = (metrics.scoped_counters(name)
                         if metrics is not None else None)
        self.updates = 0
        self.current_scale = 1.0
        self.process = None

    def start(self):
        self.process = self.env.process(self._run())
        return self.process

    def _run(self):
        self._apply(self.shape.scale_at(self.env.now))
        while True:
            delay = self.shape.next_change(self.env.now)
            if delay is None:
                return  # constant from here on: nothing left to do
            yield self.env.timeout(delay)
            self._apply(self.shape.scale_at(self.env.now))

    def _apply(self, scale: float) -> None:
        if scale == self.current_scale and self.updates > 0:
            return
        self.current_scale = scale
        self.updates += 1
        for population in self.populations:
            population.set_rate_scale(scale)
        if self.counters is not None:
            self.counters.inc("rate_updates")


def named_load_shape(name: str, horizon: float = 60.0) -> LoadShapeConfig:
    """A preset shape scaled to ``horizon`` sim seconds (CLI / fuzz)."""
    if name == "diurnal":
        return LoadShapeConfig(kind="diurnal", day_length=horizon,
                               resolution=max(0.5, horizon / 60.0))
    if name == "flash_crowd":
        return LoadShapeConfig(
            kind="flash_crowd", flash_at=horizon * 0.3,
            flash_ramp=max(1.0, horizon * 0.05),
            flash_hold=horizon * 0.2, flash_scale=2.5,
            resolution=max(0.5, horizon / 60.0))
    if name == "post_outage_herd":
        return LoadShapeConfig(
            kind="post_outage_herd", outage_at=horizon * 0.25,
            outage_duration=max(2.0, horizon * 0.1),
            herd_scale=2.5, herd_decay=max(3.0, horizon * 0.15),
            resolution=max(0.5, horizon / 60.0))
    raise ValueError(f"unknown load shape {name!r}; "
                     f"available: {LOAD_SHAPE_KINDS}")
