"""Outlier ejection: EWMA health, ejection windows, re-admission."""

import pytest

from repro.metrics import CounterSet
from repro.resilience import OutlierTracker, ResilienceConfig, health
from repro.simkernel import Environment, RandomStreams


@pytest.fixture(autouse=True)
def _knobs(monkeypatch):
    monkeypatch.setattr(health, "MIN_SAMPLES", 3)
    monkeypatch.setattr(health, "LATENCY_THRESHOLD", 1.0)
    monkeypatch.setattr(health, "ERROR_RATE_THRESHOLD", 0.5)
    monkeypatch.setattr(health, "EJECTION_JITTER", 0.0)
    monkeypatch.setattr(health, "EWMA_ALPHA", 0.5)


def _config():
    return ResilienceConfig(enabled=True, ejection_duration=10.0,
                            ejection_max_duration=40.0)


def _tracker(config=None, seed=0, members=4):
    env = Environment()
    counters = CounterSet()
    tracker = OutlierTracker(config or _config(), env,
                             RandomStreams(seed).stream("t"),
                             counters=counters)
    tracker.membership = lambda: members
    return env, counters, tracker


def test_healthy_backend_never_ejected():
    _, _, tracker = _tracker()
    for _ in range(50):
        tracker.record_success("a", latency=0.05)
    assert not tracker.is_ejected("a")


def test_error_rate_ejects_after_min_samples():
    _, counters, tracker = _tracker()
    tracker.record_failure("a")
    tracker.record_failure("a")
    assert not tracker.is_ejected("a")  # below MIN_SAMPLES
    tracker.record_failure("a")
    assert tracker.is_ejected("a")
    assert counters.get("outlier_ejected") == 1


def test_latency_ejects_without_errors():
    _, _, tracker = _tracker()
    for _ in range(5):
        tracker.record_success("a", latency=3.0)
    assert tracker.is_ejected("a")


def test_ejection_expires_into_probe_then_readmission():
    env, counters, tracker = _tracker()
    for _ in range(3):
        tracker.record_failure("a")
    assert tracker.is_ejected("a")
    env.run(until=11.0)  # ejection_duration=10, jitter off
    # Expiry flips to probing: back in rotation, fate undecided.
    assert not tracker.is_ejected("a")
    assert counters.get("outlier_readmission_probe") == 1
    tracker.record_success("a", latency=0.05)
    assert counters.get("outlier_readmitted") == 1
    assert tracker.stats["a"].ejection_streak == 0


def test_failed_probe_doubles_ejection():
    env, _, tracker = _tracker()
    for _ in range(3):
        tracker.record_failure("a")
    first_until = tracker.stats["a"].ejected_until
    assert first_until == 10.0
    env.run(until=11.0)
    assert not tracker.is_ejected("a")
    tracker.record_failure("a")  # probe fails -> re-eject, doubled
    assert tracker.is_ejected("a")
    assert tracker.stats["a"].ejected_until == env.now + 20.0


def test_ejection_duration_is_capped():
    env, _, tracker = _tracker()
    now = 0.0
    for round_no in range(5):
        for _ in range(3):
            tracker.record_failure("a")
        until = tracker.stats["a"].ejected_until
        assert until - env.now <= 40.0  # ejection_max_duration
        now = until + 1.0
        env.run(until=now)
        tracker.is_ejected("a")  # expire into probe


def test_max_ejected_fraction_suppresses():
    _, counters, tracker = _tracker(members=4)  # fraction 0.5 -> max 2
    for key in ("a", "b", "c"):
        for _ in range(3):
            tracker.record_failure(key)
    assert tracker.is_ejected("a")
    assert tracker.is_ejected("b")
    assert not tracker.is_ejected("c")  # third ejection suppressed
    assert counters.get("outlier_ejection_suppressed") >= 1


def test_jitter_varies_but_is_deterministic(monkeypatch):
    monkeypatch.setattr(health, "EJECTION_JITTER", 0.25)
    _, _, one = _tracker(seed=7)
    _, _, two = _tracker(seed=7)
    for tracker in (one, two):
        for _ in range(3):
            tracker.record_failure("a")
    until_one = one.stats["a"].ejected_until
    assert until_one == two.stats["a"].ejected_until  # same seed, same draw
    assert 7.5 <= until_one <= 12.5  # 10s +/- 25%


def test_success_only_latency_none_keeps_latency_ewma():
    _, _, tracker = _tracker()
    tracker.record_success("a", latency=0.2)
    tracker.record_success("a")  # error-rate-only sample
    assert tracker.stats["a"].ewma_latency == 0.2
