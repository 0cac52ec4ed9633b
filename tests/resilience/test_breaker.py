"""Circuit breaker state machine: closed -> open -> half-open."""

import pytest

from repro.metrics import CounterSet
from repro.resilience import (
    BreakerBoard, CircuitBreaker, ResilienceConfig, breaker as breakers)
from repro.simkernel import Environment, RandomStreams


@pytest.fixture(autouse=True)
def _knobs(monkeypatch):
    monkeypatch.setattr(breakers, "ERROR_RATIO", 0.5)
    monkeypatch.setattr(breakers, "WINDOW", 8)
    monkeypatch.setattr(breakers, "MIN_REQUESTS", 4)
    monkeypatch.setattr(breakers, "OPEN_JITTER", 0.0)


def _config():
    return ResilienceConfig(enabled=True, breaker_consecutive_failures=3,
                            breaker_open_duration=5.0)


def _breaker(config=None, seed=0):
    env = Environment()
    counters = CounterSet()
    breaker = CircuitBreaker(config or _config(), env,
                             RandomStreams(seed).stream("b"),
                             counters=counters, key="app:10.0.0.1")
    return env, counters, breaker


def test_stays_closed_under_success():
    _, _, breaker = _breaker()
    for _ in range(100):
        breaker.record_success()
        assert breaker.allow()
    assert breaker.state == CircuitBreaker.CLOSED


def test_trips_on_consecutive_failures():
    _, counters, breaker = _breaker()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert counters.get("breaker_open") == 1
    assert counters.get("breaker_rejected") == 1


def test_success_resets_consecutive_count(monkeypatch):
    # Ratio path disabled (min_requests too high) to isolate the
    # consecutive-failure counter reset.
    monkeypatch.setattr(breakers, "MIN_REQUESTS", 100)
    _, _, breaker = _breaker()
    for _ in range(10):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # never 3 in a row
    assert breaker.state == CircuitBreaker.CLOSED


def test_trips_on_window_error_ratio():
    # Alternate success/failure: never 3 consecutive, but the rolling
    # window's failure ratio reaches ERROR_RATIO.
    _, _, breaker = _breaker()
    for _ in range(4):
        breaker.record_success()
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN


def test_half_open_closes_after_enough_successes():
    env, counters, breaker = _breaker()
    for _ in range(3):
        breaker.record_failure()
    env.run(until=6.0)  # past breaker_open_duration
    assert breaker.allow()  # first probe flips to half-open
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_success()
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert counters.get("breaker_closed") == 1


def test_half_open_failure_retrips():
    env, counters, breaker = _breaker()
    for _ in range(3):
        breaker.record_failure()
    env.run(until=6.0)
    assert breaker.allow()
    breaker.record_failure()  # probe fails -> straight back to open
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    assert counters.get("breaker_open") == 2


def test_open_duration_jitter_is_deterministic(monkeypatch):
    monkeypatch.setattr(breakers, "OPEN_JITTER", 0.25)
    _, _, one = _breaker(seed=3)
    _, _, two = _breaker(seed=3)
    for breaker in (one, two):
        for _ in range(3):
            breaker.record_failure()
    assert one.opened_until == two.opened_until
    assert 3.75 <= one.opened_until <= 6.25  # 5s +/- 25%


def test_board_keys_breakers_and_counts_open():
    env = Environment()
    board = BreakerBoard(_config(), env, RandomStreams(0).stream("b"))
    first = board.get("origin:10.0.0.9")
    assert board.get("origin:10.0.0.9") is first
    assert board.open_count() == 0
    for _ in range(3):
        first.record_failure()
    assert board.open_count() == 1
