"""App-server (HHVM-like) configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.config import ResilienceConfig

__all__ = ["AppServerConfig"]


@dataclass
class AppServerConfig:
    """Tunables for the HHVM-like application server tier.

    The paper's operational facts baked into the defaults: drains are
    *seconds* (10–15 s, §4.3) because the workload is dominated by
    short-lived API requests; there is no parallel instance on restart
    (cache priming is memory-heavy, §2.5/§4.4), so a restart implies a
    real downtime window while the new process primes.
    """

    port: int = 8080
    #: Draining period before the old process is terminated.
    drain_duration: float = 12.0
    #: Downtime while the new process starts and primes its cache.
    restart_downtime: float = 8.0
    #: Respond 379+partial body instead of 500 for in-flight POSTs.
    enable_ppr: bool = True
    #: Model memory: resident set.
    base_memory: float = 400.0
    memory_per_connection: float = 0.01
    #: Chaos mode reproducing the §5.2 production incident: a buggy
    #: upstream (memory corruption) returns *randomized* HTTP status
    #: codes — including bare 379s without the PartialPOST message —
    #: for this fraction of responses.  The proxy must not trust them.
    rogue_status_fraction: float = 0.0
    #: Resilient-data-plane knobs; only the admission-control fields
    #: apply server-side (disabled by default).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def validate(self) -> None:
        if self.drain_duration < 0 or self.restart_downtime < 0:
            raise ValueError("durations must be non-negative")
        self.resilience.validate()
