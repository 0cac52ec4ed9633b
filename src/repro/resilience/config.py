"""Knobs for the resilient data plane.

One :class:`ResilienceConfig` travels on ``ProxygenConfig.resilience``
and ``AppServerConfig.resilience``; everything defaults to *disabled* so
the paper-faithful baseline behaviour (blind round-robin, bare retry
loops, no shedding) is untouched unless an experiment opts in.

Determinism contract: nothing in this package may call ``random`` or
wall-clock time directly — every jitter draw comes from a named
:mod:`repro.simkernel.rng` stream and every clock read from the sim
environment, so resilience decisions replay identically under one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResilienceConfig"]


@dataclass
class ResilienceConfig:
    """The resilience knobs some run sets, for one tier (proxy or app
    server).

    Grouped by mechanism: passive health / outlier ejection, circuit
    breaking, hedging, and admission control.  What no run varies (the
    EWMA and its outlier thresholds, the breaker window, the jitters, the
    backoff curve) is a constant beside its reader.
    """

    enabled: bool = False

    # -- passive health + outlier ejection (§3 capacity crunch) ----------
    #: Base ejection duration (seconds); doubles per consecutive
    #: re-ejection up to ``ejection_max_duration``.
    ejection_duration: float = 8.0
    ejection_max_duration: float = 60.0

    # -- circuit breakers (per upstream destination) ---------------------
    #: Consecutive failures that trip a breaker open.
    breaker_consecutive_failures: int = 5
    #: Seconds a tripped breaker stays open (± jitter) before allowing a
    #: half-open probe.
    breaker_open_duration: float = 5.0

    # -- hedged requests (idempotent short requests only) ----------------
    #: Fire a hedge to a second backend after this long without a reply.
    hedge_delay: float = 0.5

    # -- admission control / load shedding -------------------------------
    #: Concurrent in-flight requests one serving process accepts.
    max_inflight: int = 512
    #: Retry-After hint (seconds) sent with shed 503s.
    shed_retry_after: float = 1.0

    def validate(self) -> None:
        if self.ejection_duration <= 0 \
                or self.ejection_max_duration < self.ejection_duration:
            raise ValueError("bad ejection durations")
        if self.breaker_consecutive_failures < 1:
            raise ValueError("breaker_consecutive_failures must be >= 1")
        if self.breaker_open_duration <= 0:
            raise ValueError("breaker_open_duration must be positive")
        if self.hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.shed_retry_after < 0:
            raise ValueError("shed_retry_after must be non-negative")
