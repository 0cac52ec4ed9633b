"""Passive health tracking and outlier ejection.

The balancer-side replacement for the binary ``accepting`` flag: every
request outcome feeds a per-backend EWMA of latency and error rate; a
backend whose EWMA crosses the configured thresholds is *ejected* —
temporarily removed from pick rotation — and later re-admitted through a
jittered probe, doubling its ejection on repeated failure (the Envoy
outlier-detection shape; cf. Concury's argument that backend health
belongs at the balancer, arXiv:1908.01889).

All timing comes from the sim clock and all jitter from an injected
deterministic RNG stream (never ``random`` directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["BackendStats", "OutlierTracker"]

#: EWMA smoothing factor for per-backend latency and error rate.
EWMA_ALPHA = 0.3
#: EWMA latency (seconds) and error rate above which a backend is an
#: outlier.
LATENCY_THRESHOLD = 1.5
ERROR_RATE_THRESHOLD = 0.4
#: Samples required before a backend may be ejected.
MIN_SAMPLES = 5
#: ± fraction of the ejection duration applied as deterministic jitter
#: so re-admission probes from many balancers do not synchronize.
EJECTION_JITTER = 0.25
#: Never hold more than this fraction of the pool ejected at once.
MAX_EJECTED_FRACTION = 0.5


@dataclass
class BackendStats:
    """Rolling health view of one backend."""

    key: str
    ewma_latency: float = 0.0
    ewma_error_rate: float = 0.0
    samples: int = 0
    #: Sim time until which the backend is out of rotation (None = in).
    ejected_until: Optional[float] = None
    #: Consecutive ejections (drives exponential ejection durations).
    ejection_streak: int = 0
    #: True between ejection expiry and the first post-probe outcome.
    probing: bool = False
    ejections: int = 0


class OutlierTracker:
    """Per-backend EWMA health with temporary ejection + re-admission.

    ``membership`` (a zero-arg callable) reports the current pool size so
    the :data:`MAX_EJECTED_FRACTION` guard never ejects the majority of a
    shrinking pool.
    """

    def __init__(self, config, env, rng, counters=None):
        self.config = config
        self.env = env
        self.rng = rng
        self.counters = counters
        self.membership: Optional[Callable[[], int]] = None
        self.stats: dict[str, BackendStats] = {}

    # -- recording --------------------------------------------------------

    def _stat(self, key: str) -> BackendStats:
        if key not in self.stats:
            self.stats[key] = BackendStats(key)
        return self.stats[key]

    def record_success(self, key: str,
                       latency: Optional[float] = None) -> None:
        """``latency=None`` records an error-rate-only sample (e.g. a
        streaming POST whose duration says nothing about the backend)."""
        self._record(key, error=0.0, latency=latency)

    def record_failure(self, key: str) -> None:
        self._record(key, error=1.0, latency=None)

    def _record(self, key: str, error: float,
                latency: Optional[float]) -> None:
        stat = self._stat(key)
        alpha = EWMA_ALPHA
        if stat.samples == 0:
            stat.ewma_error_rate = error
            if latency is not None:
                stat.ewma_latency = latency
        else:
            stat.ewma_error_rate += alpha * (error - stat.ewma_error_rate)
            if latency is not None:
                stat.ewma_latency += alpha * (latency - stat.ewma_latency)
        stat.samples += 1
        if stat.probing:
            # First outcome after re-admission decides the backend's fate.
            stat.probing = False
            if error:
                self._eject(stat)
                return
            stat.ejection_streak = 0
            self._inc("readmitted")
        if stat.ejected_until is None and self._is_outlier(stat):
            self._eject(stat)

    # -- ejection ---------------------------------------------------------

    def _is_outlier(self, stat: BackendStats) -> bool:
        if stat.samples < MIN_SAMPLES:
            return False
        return (stat.ewma_latency > LATENCY_THRESHOLD
                or stat.ewma_error_rate > ERROR_RATE_THRESHOLD)

    def _ejection_allowed(self) -> bool:
        total = self.membership() if self.membership is not None \
            else len(self.stats)
        if total <= 1:
            return False
        ejected = 1 + sum(1 for s in self.stats.values()
                          if self._currently_ejected(s))
        return ejected / total <= MAX_EJECTED_FRACTION

    def _eject(self, stat: BackendStats) -> None:
        if not self._ejection_allowed():
            self._inc("ejection_suppressed")
            return
        config = self.config
        duration = min(
            config.ejection_duration * (2 ** stat.ejection_streak),
            config.ejection_max_duration)
        if EJECTION_JITTER:
            duration *= self.rng.uniform(1.0 - EJECTION_JITTER,
                                         1.0 + EJECTION_JITTER)
        stat.ejected_until = self.env.now + duration
        stat.ejection_streak += 1
        stat.ejections += 1
        # Fresh slate for the probe verdict: keep latency memory but
        # forget the error streak that got it ejected.
        stat.ewma_error_rate = 0.0
        stat.samples = max(stat.samples, MIN_SAMPLES)
        self._inc("ejected")

    def _currently_ejected(self, stat: BackendStats) -> bool:
        return (stat.ejected_until is not None
                and self.env.now < stat.ejected_until)

    # -- queries ----------------------------------------------------------

    def is_ejected(self, key: str) -> bool:
        """True while ``key`` is out of rotation.

        An expired ejection flips the backend into *probing*: it returns
        to rotation, and the first recorded outcome either re-admits it
        (success) or re-ejects it for twice as long (failure).
        """
        stat = self.stats.get(key)
        if stat is None or stat.ejected_until is None:
            return False
        if self._currently_ejected(stat):
            return True
        stat.ejected_until = None
        stat.probing = True
        self._inc("readmission_probe")
        return False

    def note_panic_pick(self) -> None:
        """The pool had only ejected candidates and served one anyway."""
        self._inc("panic_pick")

    def _inc(self, name: str) -> None:
        if self.counters is not None:
            self.counters.inc(f"outlier_{name}")
