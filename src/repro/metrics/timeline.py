"""Time-bucketed series and utilization tracking."""

from __future__ import annotations

import math
from typing import Callable, Optional

__all__ = ["TimeSeries", "IntervalAccumulator", "UtilizationTracker"]


def _last_bucket(end: float, bucket_width: float) -> int:
    """Index of the last bucket in the half-open range [.., end).

    Integer comparison, not ``bucket_of(end - epsilon)``: a fixed
    epsilon is lost to float64 rounding at large magnitudes
    (``1e6 - 1e-12 == 1e6``), which handed boundary-aligned ``end``
    values one spurious extra bucket.
    """
    last = math.floor(end / bucket_width)
    if last * bucket_width >= end:
        last -= 1
    return last


class TimeSeries:
    """Events accumulated into fixed-width time buckets.

    ``record(t, value)`` adds ``value`` to the bucket containing ``t``.
    Useful for rates (requests per bucket, publishes per bucket, errors
    per bucket) and, with ``mode="mean"``, for sampled gauges.
    """

    def __init__(self, bucket_width: float, mode: str = "sum"):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if mode not in ("sum", "mean", "max"):
            raise ValueError(f"Unknown mode {mode!r}")
        self.bucket_width = bucket_width
        self.mode = mode
        self._is_max = mode == "max"
        self._sums: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def bucket_of(self, time: float) -> int:
        return math.floor(time / self.bucket_width)

    def record(self, time: float, value: float = 1.0) -> None:
        bucket = math.floor(time / self.bucket_width)
        sums = self._sums
        if self._is_max:
            sums[bucket] = max(sums.get(bucket, float("-inf")), value)
        else:
            sums[bucket] = sums.get(bucket, 0.0) + value
        counts = self._counts
        counts[bucket] = counts.get(bucket, 0) + 1

    def value_at_bucket(self, bucket: int, default: float = 0.0) -> float:
        if bucket not in self._sums:
            return default
        if self.mode == "mean":
            return self._sums[bucket] / self._counts[bucket]
        return self._sums[bucket]

    def series(self, start: float, end: float,
               default: float = 0.0) -> list[tuple[float, float]]:
        """(bucket_start_time, value) pairs covering [start, end)."""
        first = self.bucket_of(start)
        last = _last_bucket(end, self.bucket_width)
        return [
            (bucket * self.bucket_width, self.value_at_bucket(bucket, default))
            for bucket in range(first, last + 1)
        ]

    def values(self, start: float, end: float, default: float = 0.0) -> list[float]:
        return [value for _, value in self.series(start, end, default)]

    def normalized(self, start: float, end: float,
                   baseline: Optional[float] = None) -> list[tuple[float, float]]:
        """Series divided by a baseline (default: the first bucket's value).

        This mirrors the paper's figures, where every metric is
        "normalized by the value right before the restart".
        """
        raw = self.series(start, end)
        if not raw:
            return []
        if baseline is None:
            baseline = raw[0][1]
        if baseline == 0:
            baseline = 1.0
        return [(t, value / baseline) for t, value in raw]


class IntervalAccumulator:
    """Accumulates busy time over (possibly overlapping) intervals.

    Each ``add(start, end, weight)`` contributes ``weight`` units spread
    uniformly over [start, end) into the underlying buckets.  Used for CPU
    busy-time accounting where a piece of work spans several buckets.
    """

    def __init__(self, bucket_width: float):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self._buckets: dict[int, float] = {}

    def add(self, start: float, end: float, weight: float = 1.0) -> None:
        if end < start:
            raise ValueError("interval end before start")
        if end == start:
            return
        first = math.floor(start / self.bucket_width)
        last = _last_bucket(end, self.bucket_width)
        if first == last:
            # Entirely inside one bucket: the whole weight lands there.
            buckets = self._buckets
            buckets[first] = buckets.get(first, 0.0) + weight
            return
        rate = weight / (end - start)
        for bucket in range(first, last + 1):
            bucket_start = bucket * self.bucket_width
            bucket_end = bucket_start + self.bucket_width
            overlap = min(end, bucket_end) - max(start, bucket_start)
            if overlap > 0:
                self._buckets[bucket] = self._buckets.get(bucket, 0.0) + rate * overlap

    def series(self, start: float, end: float) -> list[tuple[float, float]]:
        first = int(math.floor(start / self.bucket_width))
        last = _last_bucket(end, self.bucket_width)
        return [(bucket * self.bucket_width, self._buckets.get(bucket, 0.0))
                for bucket in range(first, last + 1)]


class UtilizationTracker:
    """CPU utilization from busy intervals against a capacity.

    ``capacity_fn(t)`` returns the capacity (core-seconds per second) at
    time ``t`` — capacity can change when parallel instances run during a
    Socket Takeover.
    """

    def __init__(self, bucket_width: float, capacity: float = 1.0,
                 capacity_fn: Optional[Callable[[float], float]] = None):
        self.busy = IntervalAccumulator(bucket_width)
        self.bucket_width = bucket_width
        self.capacity = capacity
        self.capacity_fn = capacity_fn

    def add_busy(self, start: float, end: float, cores: float = 1.0) -> None:
        """Record ``cores`` cores busy over [start, end)."""
        self.busy.add(start, end, weight=cores * (end - start))

    def utilization(self, start: float, end: float) -> list[tuple[float, float]]:
        """(bucket_time, utilization in [0, inf)) over the window."""
        out = []
        for bucket_time, busy_seconds in self.busy.series(start, end):
            capacity = (self.capacity_fn(bucket_time)
                        if self.capacity_fn else self.capacity)
            capacity_seconds = max(capacity, 1e-9) * self.bucket_width
            out.append((bucket_time, busy_seconds / capacity_seconds))
        return out

    def idle(self, start: float, end: float) -> list[tuple[float, float]]:
        """(bucket_time, idle fraction) — the paper's "idle CPU" metric."""
        return [(t, max(0.0, 1.0 - u)) for t, u in self.utilization(start, end)]
