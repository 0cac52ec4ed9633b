"""Time-bucketed series and utilization tracking."""

from __future__ import annotations

import math

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

    ``record(t, value)`` adds ``value`` to the bucket containing ``t``:
    rates (requests per bucket, publishes per bucket, errors per
    bucket).  A bucket with no sample reads 0.
    """

    def __init__(self, bucket_width: float):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self._sums: dict[int, float] = {}

    def bucket_of(self, time: float) -> int:
        return math.floor(time / self.bucket_width)

    def record(self, time: float, value: float = 1.0) -> None:
        bucket = math.floor(time / self.bucket_width)
        sums = self._sums
        sums[bucket] = sums.get(bucket, 0.0) + value

    def series(self, start: float, end: float) -> list[tuple[float, float]]:
        """(bucket_start_time, value) pairs covering [start, end)."""
        first = self.bucket_of(start)
        last = _last_bucket(end, self.bucket_width)
        sums = self._sums
        return [(bucket * self.bucket_width, sums.get(bucket, 0.0))
                for bucket in range(first, last + 1)]

    def values(self, start: float, end: float) -> list[float]:
        return [value for _, value in self.series(start, end)]


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
    """CPU utilization from busy intervals against a capacity
    (core-seconds per second)."""

    def __init__(self, bucket_width: float, capacity: float = 1.0):
        self.busy = IntervalAccumulator(bucket_width)
        self.bucket_width = bucket_width
        self.capacity = capacity

    def add_busy(self, start: float, end: float) -> None:
        """Record one core busy over [start, end)."""
        self.busy.add(start, end, weight=end - start)

    def utilization(self, start: float, end: float) -> list[tuple[float, float]]:
        """(bucket_time, utilization in [0, inf)) over the window."""
        capacity_seconds = max(self.capacity, 1e-9) * self.bucket_width
        return [(bucket_time, busy_seconds / capacity_seconds)
                for bucket_time, busy_seconds
                in self.busy.series(start, end)]

    def idle(self, start: float, end: float) -> list[tuple[float, float]]:
        """(bucket_time, idle fraction) — the paper's "idle CPU" metric."""
        return [(t, max(0.0, 1.0 - u)) for t, u in self.utilization(start, end)]
