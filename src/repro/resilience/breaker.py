"""Circuit breakers per upstream destination.

Classic closed → open → half-open machine guarding dials and connection
checkouts: trip on a consecutive-failure run or on the error ratio over
a rolling outcome window; while open, reject immediately (the caller
fails over instead of burning a dial on a known-bad destination); after
a jittered cool-down let a limited number of probes through and close
again only once enough of them succeed.
"""

from __future__ import annotations

from collections import deque

__all__ = ["CircuitBreaker", "BreakerBoard"]

#: Error ratio over the rolling window that trips a breaker.
ERROR_RATIO = 0.6
#: Rolling outcome-window size for the ratio condition.
WINDOW = 20
#: Outcomes required in the window before the ratio may trip.
MIN_REQUESTS = 10
#: ± fraction of the open duration applied as deterministic jitter.
OPEN_JITTER = 0.25
#: Successful half-open probes required to close again.
HALF_OPEN_SUCCESSES = 2


class CircuitBreaker:
    """One destination's breaker.  All timing via the sim clock."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config, env, rng, counters=None, key: str = ""):
        self.config = config
        self.env = env
        self.rng = rng
        self.counters = counters
        self.key = key
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.window: deque[bool] = deque(maxlen=WINDOW)
        self.opened_until = 0.0
        self.half_open_successes = 0
        self.times_opened = 0

    # -- gate -------------------------------------------------------------

    def allow(self) -> bool:
        """May the caller attempt this destination right now?"""
        if self.state == self.OPEN:
            if self.env.now < self.opened_until:
                self._inc("breaker_rejected")
                return False
            self.state = self.HALF_OPEN
            self.half_open_successes = 0
            self._inc("breaker_half_open")
        return True

    # -- outcomes ---------------------------------------------------------

    def record_success(self) -> None:
        self.window.append(True)
        self.consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self.half_open_successes += 1
            if self.half_open_successes >= HALF_OPEN_SUCCESSES:
                self.state = self.CLOSED
                self.window.clear()
                self._inc("breaker_closed")

    def record_failure(self) -> None:
        self.window.append(False)
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            self._trip()
            return
        if self.state == self.CLOSED and self._should_trip():
            self._trip()

    def _should_trip(self) -> bool:
        if (self.consecutive_failures
                >= self.config.breaker_consecutive_failures):
            return True
        if len(self.window) >= MIN_REQUESTS:
            failures = sum(1 for ok in self.window if not ok)
            return failures / len(self.window) >= ERROR_RATIO
        return False

    def _trip(self) -> None:
        duration = self.config.breaker_open_duration
        if OPEN_JITTER:
            duration *= self.rng.uniform(1.0 - OPEN_JITTER,
                                         1.0 + OPEN_JITTER)
        self.state = self.OPEN
        self.opened_until = self.env.now + duration
        self.consecutive_failures = 0
        self.times_opened += 1
        self._inc("breaker_open")

    def _inc(self, name: str) -> None:
        if self.counters is not None:
            self.counters.inc(name)


class BreakerBoard:
    """Lazily created breakers keyed by destination."""

    def __init__(self, config, env, rng, counters=None):
        self.config = config
        self.env = env
        self.rng = rng
        self.counters = counters
        self.breakers: dict = {}

    def get(self, key) -> CircuitBreaker:
        if key not in self.breakers:
            self.breakers[key] = CircuitBreaker(
                self.config, self.env, self.rng, self.counters,
                key=str(key))
        return self.breakers[key]

    def open_count(self) -> int:
        return sum(1 for b in self.breakers.values()
                   if b.state == CircuitBreaker.OPEN)
