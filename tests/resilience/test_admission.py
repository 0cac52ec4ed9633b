"""Admission control: drain-aware concurrency gate."""

import pytest

from repro.metrics import CounterSet
from repro.resilience import AdmissionController, ResilienceConfig, admission


@pytest.fixture(autouse=True)
def _knobs(monkeypatch):
    monkeypatch.setattr(admission, "DRAIN_INFLIGHT_FACTOR", 0.5)


def _gate(max_inflight=4):
    counters = CounterSet()
    config = ResilienceConfig(enabled=True, max_inflight=max_inflight,
                              shed_retry_after=1.5)
    return counters, AdmissionController(config, counters, name="test")


def test_admits_until_limit_then_sheds():
    counters, gate = _gate(max_inflight=2)
    assert gate.try_acquire()
    assert gate.try_acquire()
    assert not gate.try_acquire()
    assert counters.get("admission_shed", tag="active") == 1
    gate.release()
    assert gate.try_acquire()  # slot freed


def test_draining_limit_shrinks():
    counters, gate = _gate(max_inflight=4)
    assert gate.limit() == 4
    assert gate.limit(draining=True) == 2
    assert gate.try_acquire(draining=True)
    assert gate.try_acquire(draining=True)
    assert not gate.try_acquire(draining=True)
    assert counters.get("admission_shed", tag="draining") == 1


def test_draining_limit_never_below_one(monkeypatch):
    monkeypatch.setattr(admission, "DRAIN_INFLIGHT_FACTOR", 0.1)
    _, gate = _gate(max_inflight=2)
    assert gate.limit(draining=True) == 1


def test_release_clamps_at_zero():
    _, gate = _gate()
    gate.try_acquire()
    gate.reset_inflight()  # process restarted; in-flight work died
    gate.release()  # the abandoned generator's finally still runs
    assert gate.inflight == 0
    assert gate.try_acquire()
    assert gate.inflight == 1


def test_peak_and_retry_after():
    _, gate = _gate(max_inflight=4)
    for _ in range(3):
        gate.try_acquire()
    gate.release()
    assert gate.peak_inflight == 3
    assert gate.retry_after == 1.5
