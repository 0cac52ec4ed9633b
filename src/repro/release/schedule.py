"""Operational release-schedule model (Figures 2a–2c, 15, 16).

The paper measures three months of production roll-outs across 10
clusters.  We substitute a calibrated generator (DESIGN.md §2): the
parameters below come straight from the paper's text —

* L7LB: "on average three or more releases per week"; ~47% are binary
  (code) updates, the rest dominated by configuration changes, which at
  Facebook also require a restart (§2.4);
* App Server: "updates are released as frequently as 100 times a week"
  at the median, each containing 10–100 distinct commits (Fig 2c);
* Proxygen updates are released mostly during peak hours (12pm–5pm,
  Fig 15) because operators want to be hands-on; the App tier restarts
  continuously around the clock;
* Completion times (Fig 16): Proxygen's global roll-out is dominated by
  the 20-minute drain per batch (median ≈ 1.5 h); the App tier drains
  for seconds, finishing in ≈ 25 minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..simkernel.rng import DistributionSampler, RandomStreams

__all__ = ["ReleaseTraceConfig", "ReleaseEvent", "ReleaseTrace",
           "ReleaseScheduleModel", "completion_time_model",
           "batch_fraction_for_load"]

HOURS_PER_WEEK = 7 * 24

#: Root causes of L7LB releases and their weights (Fig 2b).
L7LB_ROOT_CAUSES = (
    ("binary_update", 0.47),
    ("config_change", 0.32),
    ("security_patch", 0.09),
    ("performance_fix", 0.07),
    ("experiment_rollout", 0.05),
)


#: The paper's measured release cadence (Fig 2a) and commits per
#: release (Fig 2c).
L7LB_RELEASES_PER_WEEK = 3.2
APP_RELEASES_PER_WEEK = 100.0
COMMITS_MIN, COMMITS_MAX = 10, 100
#: Peak-hours window for Proxygen releases (local time, Fig 15) and the
#: probability a release lands inside it.
PROXYGEN_PEAK_START, PROXYGEN_PEAK_END = 12, 17
PROXYGEN_PEAK_MASS = 0.62
#: Most a straggling batch stretches its time by, as a fraction (Fig 16's
#: completion model).
STRAGGLER_JITTER = 0.15


@dataclass
class ReleaseTraceConfig:
    weeks: int = 13               # ~3 months
    clusters: int = 10


@dataclass
class ReleaseEvent:
    cluster: int
    tier: str                # "l7lb" | "appserver"
    week: int
    hour_of_day: float
    cause: str
    commits: int


@dataclass
class ReleaseTrace:
    config: ReleaseTraceConfig
    events: list[ReleaseEvent] = field(default_factory=list)

    # -- summaries the figures plot ------------------------------------

    def releases_per_week(self, tier: str) -> list[int]:
        """Per (cluster, week) release counts — Fig 2a's distribution."""
        counts: dict[tuple[int, int], int] = {}
        for event in self.events:
            if event.tier == tier:
                key = (event.cluster, event.week)
                counts[key] = counts.get(key, 0) + 1
        total_cells = self.config.clusters * self.config.weeks
        values = list(counts.values())
        values.extend([0] * (total_cells - len(values)))
        return sorted(values)

    def cause_histogram(self) -> dict[str, float]:
        """Fraction of L7LB releases by root cause — Fig 2b."""
        l7lb = [e for e in self.events if e.tier == "l7lb"]
        if not l7lb:
            return {}
        out: dict[str, float] = {}
        for event in l7lb:
            out[event.cause] = out.get(event.cause, 0) + 1
        return {cause: count / len(l7lb) for cause, count in out.items()}

    def commits_distribution(self, tier: str = "appserver") -> list[int]:
        """Commits per release — Fig 2c."""
        return sorted(e.commits for e in self.events if e.tier == tier)

    def hour_of_day_pdf(self, tier: str) -> list[float]:
        """Release-time density over the day's hours — Fig 15."""
        events = [e for e in self.events if e.tier == tier]
        histogram = [0] * 24
        for event in events:
            histogram[int(event.hour_of_day) % 24] += 1
        total = max(1, len(events))
        return [count / total for count in histogram]


class ReleaseScheduleModel:
    """Generates a synthetic multi-cluster release trace."""

    def __init__(self, config: Optional[ReleaseTraceConfig] = None,
                 seed: int = 0):
        self.config = config or ReleaseTraceConfig()
        self.streams = RandomStreams(seed)

    def generate(self) -> ReleaseTrace:
        config = self.config
        rng = self.streams.stream("schedule")
        poisson = DistributionSampler(rng).poisson
        trace = ReleaseTrace(config)
        causes, weights = zip(*L7LB_ROOT_CAUSES)
        for cluster in range(config.clusters):
            for week in range(config.weeks):
                # L7LB releases: Poisson around the weekly mean.
                for _ in range(poisson(L7LB_RELEASES_PER_WEEK)):
                    trace.events.append(ReleaseEvent(
                        cluster=cluster, tier="l7lb", week=week,
                        hour_of_day=self._proxygen_hour(rng),
                        cause=rng.choices(causes, weights=weights)[0],
                        commits=self._commits(rng)))
                # App tier: high-frequency, continuous cycle.
                for _ in range(poisson(APP_RELEASES_PER_WEEK)):
                    trace.events.append(ReleaseEvent(
                        cluster=cluster, tier="appserver", week=week,
                        hour_of_day=rng.uniform(0, 24),
                        cause="binary_update",
                        commits=self._commits(rng)))
        return trace

    @staticmethod
    def _proxygen_hour(rng) -> float:
        """Peak-hour-biased release time (Fig 15)."""
        if rng.random() < PROXYGEN_PEAK_MASS:
            return rng.uniform(PROXYGEN_PEAK_START, PROXYGEN_PEAK_END)
        # Off-peak mass skews to the working day around the peak.
        return rng.uniform(8, 23)

    @staticmethod
    def _commits(rng) -> int:
        """Log-uniform between the paper's 10 and 100 per release."""
        log_value = rng.uniform(math.log(COMMITS_MIN), math.log(COMMITS_MAX))
        return int(round(math.exp(log_value)))


def batch_fraction_for_load(scale: float, base_fraction: float,
                            min_scale: float, min_fraction: float,
                            max_fraction: float) -> float:
    """Batch fraction appropriate for the current load level.

    At the day's trough (``scale == min_scale``) the full
    ``base_fraction`` is safe; as load rises the fraction shrinks
    proportionally, clamped to ``[min_fraction, max_fraction]`` —
    mirroring how operators take bigger batches off-peak (Fig 15).
    """
    if base_fraction <= 0:
        raise ValueError("base_fraction must be positive")
    if not min_fraction <= max_fraction:
        raise ValueError("need min_fraction <= max_fraction")
    scale = max(scale, 1e-9)
    fraction = base_fraction * max(min_scale, 1e-9) / scale
    return min(max_fraction, max(min_fraction, fraction))


def completion_time_model(machines: int, batch_fraction: float,
                          drain_duration: float, restart_overhead: float,
                          rng=None) -> float:
    """Global-release completion time (Fig 16).

    Production waits out each batch's drain before the next batch (to
    preserve capacity), so completion ≈ batches × (drain + overhead).
    With ``rng``, each batch straggles by up to :data:`STRAGGLER_JITTER`.
    """
    batches = max(1, math.ceil(1.0 / batch_fraction))
    if machines < batches:
        batches = machines
    total = 0.0
    for _ in range(batches):
        batch_time = drain_duration + restart_overhead
        if rng is not None:
            batch_time *= 1.0 + rng.uniform(0, STRAGGLER_JITTER)
        total += batch_time
    return total
