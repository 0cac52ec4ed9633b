"""Admission control: a drain-aware concurrency gate.

Counts in-flight requests per serving process and sheds (503 +
Retry-After) once the limit is hit instead of queueing into a timeout.
The limit is *drain-aware*: a draining generation shrinks its intake so
the §3 restart capacity crunch turns into fast, retryable refusals
rather than slow user-visible failures.
"""

from __future__ import annotations

__all__ = ["AdmissionController"]

#: A draining generation shrinks its intake to this fraction.
DRAIN_INFLIGHT_FACTOR = 0.25


class AdmissionController:
    """A concurrency-limit gate for one serving process."""

    def __init__(self, config, counters=None, name: str = ""):
        self.config = config
        self.counters = counters
        self.name = name
        self.inflight = 0
        self.peak_inflight = 0
        self.admitted = 0
        self.shed = 0

    def limit(self, draining: bool = False) -> int:
        base = self.config.max_inflight
        if draining:
            return max(1, int(base * DRAIN_INFLIGHT_FACTOR))
        return base

    def try_acquire(self, draining: bool = False) -> bool:
        """Admit one request, or shed it (caller answers 503)."""
        if self.inflight >= self.limit(draining):
            self.shed += 1
            if self.counters is not None:
                self.counters.inc("admission_shed",
                                  tag="draining" if draining else "active")
            return False
        self.inflight += 1
        self.admitted += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        return True

    def release(self) -> None:
        # Clamp instead of raising: a serve generator abandoned by a
        # process exit may run its finally-release only after a
        # reset_inflight() already zeroed the gate.
        if self.inflight > 0:
            self.inflight -= 1

    def reset_inflight(self) -> None:
        """Forget in-flight work that died with a restarted process."""
        self.inflight = 0

    @property
    def retry_after(self) -> float:
        return self.config.shed_retry_after
