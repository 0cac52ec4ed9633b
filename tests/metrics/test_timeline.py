"""Tests for time series, interval accumulation and utilization."""

import pytest

from repro.metrics import IntervalAccumulator, TimeSeries, UtilizationTracker


def test_timeseries_sum_mode():
    series = TimeSeries(bucket_width=10)
    series.record(1)
    series.record(5, 2)
    series.record(15)
    assert series.values(0, 20) == [3.0, 1.0]


def test_timeseries_mean_mode():
    series = TimeSeries(bucket_width=10, mode="mean")
    series.record(1, 4)
    series.record(2, 8)
    assert series.values(0, 10) == [6.0]


def test_timeseries_max_mode():
    series = TimeSeries(bucket_width=5, mode="max")
    series.record(0, 3)
    series.record(1, 9)
    series.record(2, 1)
    assert series.values(0, 5) == [9.0]


def test_timeseries_missing_buckets_get_default():
    series = TimeSeries(bucket_width=1)
    series.record(0)
    series.record(3)
    assert series.values(0, 4) == [1.0, 0.0, 0.0, 1.0]
    assert series.values(0, 4, default=-1)[1] == -1


def test_timeseries_bucket_boundary():
    series = TimeSeries(bucket_width=10)
    series.record(10.0)  # belongs to the second bucket
    assert series.values(0, 20) == [0.0, 1.0]


def test_timeseries_boundary_aligned_end_small_and_large():
    """Regression: ``series`` computed the last bucket as
    ``bucket_of(end - 1e-12)``; at large magnitudes the epsilon is lost
    to float64 rounding (``1e6 - 1e-12 == 1e6``), so a boundary-aligned
    ``end`` produced one spurious extra bucket."""
    series = TimeSeries(bucket_width=1)
    # Small magnitude: [0, 4) is exactly 4 buckets.
    assert len(series.series(0.0, 4.0)) == 4
    # Large magnitude: [999990, 1e6) is exactly 10 buckets, ending at
    # bucket 999999 — not 11 ending at a phantom bucket 1000000.
    big = series.series(999_990.0, 1_000_000.0)
    assert len(big) == 10
    assert big[-1][0] == 999_999.0


def test_timeseries_non_aligned_end_includes_partial_bucket():
    series = TimeSeries(bucket_width=10)
    series.record(25.0)
    assert series.values(0.0, 25.1) == [0.0, 0.0, 1.0]


def test_timeseries_invalid_args():
    with pytest.raises(ValueError):
        TimeSeries(bucket_width=0)
    with pytest.raises(ValueError):
        TimeSeries(bucket_width=1, mode="median")


def test_interval_accumulator_spreads_weight():
    acc = IntervalAccumulator(bucket_width=10)
    acc.add(5, 25, weight=20)  # 10 units per 10s: 5 in b0, 10 in b1, 5 in b2
    values = [v for _, v in acc.series(0, 30)]
    assert values == pytest.approx([5.0, 10.0, 5.0])


def test_interval_accumulator_zero_length_noop():
    acc = IntervalAccumulator(bucket_width=1)
    acc.add(5, 5)
    assert acc.series(0, 10) == [(float(i), 0.0) for i in range(10)]


def test_interval_accumulator_large_magnitude_boundary():
    """Same epsilon bug as ``TimeSeries.series``: a boundary-aligned end
    at large magnitude must not grow the series by a phantom bucket."""
    acc = IntervalAccumulator(bucket_width=1)
    acc.add(999_998.0, 1_000_000.0, weight=2.0)
    pairs = acc.series(999_998.0, 1_000_000.0)
    assert len(pairs) == 2
    assert [v for _, v in pairs] == pytest.approx([1.0, 1.0])


def test_interval_accumulator_rejects_backwards():
    acc = IntervalAccumulator(bucket_width=1)
    with pytest.raises(ValueError):
        acc.add(5, 4)


def test_utilization_tracker_basic():
    tracker = UtilizationTracker(bucket_width=10, capacity=2)
    tracker.add_busy(0, 10, cores=1)   # 10 core-seconds of 20 available
    utilization = dict(tracker.utilization(0, 10))
    assert utilization[0.0] == pytest.approx(0.5)
    idle = dict(tracker.idle(0, 10))
    assert idle[0.0] == pytest.approx(0.5)


def test_utilization_tracker_with_capacity_fn():
    # Capacity doubles after t=10 (parallel instance during takeover).
    tracker = UtilizationTracker(
        bucket_width=10, capacity_fn=lambda t: 2.0 if t >= 10 else 1.0)
    tracker.add_busy(0, 20, cores=1)
    utilization = dict(tracker.utilization(0, 20))
    assert utilization[0.0] == pytest.approx(1.0)
    assert utilization[10.0] == pytest.approx(0.5)


def test_idle_clamped_non_negative():
    tracker = UtilizationTracker(bucket_width=1, capacity=1)
    tracker.add_busy(0, 1, cores=3)  # oversubscribed
    assert dict(tracker.idle(0, 1))[0.0] == 0.0
