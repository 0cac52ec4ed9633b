"""Tests for quantile summaries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import Quantiles, summarize


def _filled(values):
    q = Quantiles()
    for value in values:
        q.add(value)
    return q


def test_quantiles_basic():
    q = _filled(range(1, 101))
    assert q.median == pytest.approx(50.5)
    assert q.quantile(0.0) == 1
    assert q.quantile(1.0) == 100
    assert q.p99 == pytest.approx(99.01)


def test_quantiles_single_value():
    q = Quantiles()
    q.add(7)
    assert q.median == 7
    assert q.quantile(0.999) == 7


def test_quantiles_empty_raises():
    q = Quantiles()
    with pytest.raises(ValueError):
        q.median


def test_quantile_bounds_validated():
    q = Quantiles()
    q.add(1)
    with pytest.raises(ValueError):
        q.quantile(1.5)


def test_summarize_keys():
    s = summarize([1, 2, 3, 4], quantiles=(0.5, 0.999))
    assert s["count"] == 4
    assert s["mean"] == 2.5
    assert "p50" in s and "p99_9" in s


def test_summarize_empty():
    assert summarize([]) == {"count": 0}


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1))
def test_quantiles_within_range(values):
    q = _filled(values)
    for prob in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert min(values) <= q.quantile(prob) <= max(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=2))
def test_quantiles_monotone(values):
    q = _filled(values)
    results = [q.quantile(p) for p in (0.1, 0.5, 0.9, 0.99)]
    assert results == sorted(results)


def test_quantile_exact_bounds():
    q = _filled([5, 1, 9, 3])
    assert q.quantile(0.0) == 1
    assert q.quantile(1.0) == 9


def test_quantile_negative_q_rejected():
    q = Quantiles()
    q.add(1)
    with pytest.raises(ValueError):
        q.quantile(-0.1)


def test_quantiles_resort_after_interleaved_add():
    # Querying sorts; a later add must mark the cache dirty so the next
    # query re-sorts instead of answering over a half-sorted list.
    q = _filled([10, 30, 20])
    assert q.median == 20
    q.add(0)
    assert q.quantile(0.0) == 0
    assert q.median == 15
    q.add(100)
    assert q.quantile(1.0) == 100
    assert q.quantile(1.0) == 100


def test_quantiles_len_tracks_adds():
    q = Quantiles()
    assert len(q) == 0
    q.add(1)
    q.add(2)
    assert len(q) == 2
