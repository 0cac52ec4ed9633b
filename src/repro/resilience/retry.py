"""Retry budgets and jittered exponential backoff.

A :class:`RetryBudget` is the Finagle-style token bucket that bounds
retry *amplification*: every first attempt deposits a fraction of a
token, every retry (or hedge) withdraws a whole one, so a fleet-wide
incident cannot turn 1× offered load into N× retried load.  A
:class:`BackoffPolicy` prices the wait before attempt *k* — exponential
with deterministic jitter so synchronized failures do not retry in
lock-step.
"""

from __future__ import annotations

__all__ = ["BackoffPolicy", "RetryBudget"]

#: Seconds before the first retry; each later one waits
#: ``BACKOFF_FACTOR`` times longer, up to ``MAX_DELAY``.
BASE_DELAY = 0.05
BACKOFF_FACTOR = 2.0
MAX_DELAY = 2.0
#: The actual delay is uniform in [delay*(1-j), delay*(1+j)].
JITTER = 0.5


class BackoffPolicy:
    """Jittered exponential backoff over an injected RNG stream."""

    def __init__(self, rng):
        self.rng = rng

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        base = min(BASE_DELAY * (BACKOFF_FACTOR ** (attempt - 1)),
                   MAX_DELAY)
        if not JITTER:
            return base
        return base * self.rng.uniform(1.0 - JITTER, 1.0 + JITTER)


class RetryBudget:
    """Token bucket: deposits per request, withdrawals per retry."""

    def __init__(self, ratio: float, floor: float, counters=None,
                 name: str = "retry"):
        self.ratio = ratio
        self.floor = floor
        #: Bucket cap: the floor plus headroom for a burst of deposits.
        self.cap = floor + max(10.0 * ratio, 1.0) * 10.0
        self.tokens = floor
        self.counters = counters
        self.name = name
        self.requests = 0
        self.spent = 0
        self.exhausted = 0

    def note_request(self) -> None:
        """A first attempt happened: deposit ``ratio`` tokens."""
        self.requests += 1
        self.tokens = min(self.cap, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry/hedge; False when broke."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            if self.counters is not None:
                self.counters.inc(f"{self.name}_budget_spent")
            return True
        self.exhausted += 1
        if self.counters is not None:
            self.counters.inc(f"{self.name}_budget_exhausted")
        return False
