"""Retry budgets (token bucket) and jittered exponential backoff."""

import pytest

from repro.metrics import CounterSet
from repro.resilience import BackoffPolicy, RetryBudget, retry
from repro.simkernel import RandomStreams


@pytest.fixture(autouse=True)
def _knobs(monkeypatch):
    monkeypatch.setattr(retry, "BASE_DELAY", 0.1)
    monkeypatch.setattr(retry, "MAX_DELAY", 1.0)
    monkeypatch.setattr(retry, "JITTER", 0.0)


def test_backoff_zero_before_first_retry():
    policy = BackoffPolicy(RandomStreams(0).stream("r"))
    assert policy.delay(0) == 0.0


def test_backoff_exponential_then_capped():
    policy = BackoffPolicy(RandomStreams(0).stream("r"))
    assert policy.delay(1) == 0.1
    assert policy.delay(2) == 0.2
    assert policy.delay(3) == 0.4
    assert policy.delay(10) == 1.0  # MAX_DELAY


def test_backoff_jitter_bounds_and_determinism(monkeypatch):
    monkeypatch.setattr(retry, "JITTER", 0.5)
    one = BackoffPolicy(RandomStreams(5).stream("r"))
    two = BackoffPolicy(RandomStreams(5).stream("r"))
    for attempt in range(1, 8):
        d1, d2 = one.delay(attempt), two.delay(attempt)
        assert d1 == d2  # same seed, same draws
        base = min(0.1 * 2 ** (attempt - 1), 1.0)
        assert base * 0.5 <= d1 <= base * 1.5


def test_budget_floor_then_exhaustion():
    counters = CounterSet()
    budget = RetryBudget(ratio=0.2, floor=2.0, counters=counters)
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()  # floor spent, nothing deposited
    assert counters.get("retry_budget_spent") == 2
    assert counters.get("retry_budget_exhausted") == 1


def test_budget_deposits_fraction_per_request():
    budget = RetryBudget(ratio=0.2, floor=0.0)
    for _ in range(4):
        budget.note_request()
    assert not budget.try_spend()  # 0.8 tokens < 1
    budget.note_request()
    assert budget.try_spend()  # 1.0 tokens
    assert not budget.try_spend()


def test_budget_is_capped():
    budget = RetryBudget(ratio=0.5, floor=1.0)
    for _ in range(10_000):
        budget.note_request()
    spends = 0
    while budget.try_spend():
        spends += 1
    # Bounded amplification: the bucket cap, not 10_000 * ratio.
    assert spends == int(budget.cap)


def test_budget_name_prefixes_counters():
    counters = CounterSet()
    budget = RetryBudget(ratio=0.1, floor=1.0, counters=counters,
                         name="hedge")
    assert budget.try_spend()
    assert counters.get("hedge_budget_spent") == 1
