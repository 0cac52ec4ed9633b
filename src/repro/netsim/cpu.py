"""Host CPU model: a cores×speed work server with busy-time accounting.

All application work (request parsing, TLS handshakes, relaying, cache
priming) is expressed in *work units*; a host executes
``cores × speed`` units per second.  Busy time is recorded into a
:class:`~repro.metrics.timeline.UtilizationTracker` so experiments can
read cluster idle-CPU exactly the way the paper does.
"""

from __future__ import annotations

from ..metrics.timeline import UtilizationTracker
from ..simkernel.core import Environment

__all__ = ["CpuModel", "CpuCosts"]


class CpuCosts:
    """Work-unit prices for common operations: one shared table.

    Calibration anchor: one work unit ≈ the cost of serving one plain
    HTTP request, and a TLS handshake costs several times that — which
    is what makes reconnect storms expensive (§2.5: 10% of proxies
    restarting burns ~20% of app-tier CPU on state rebuild).
    """

    http_request = 1.0
    tcp_handshake = 0.4
    tls_handshake = 4.0
    relay_message = 0.08
    mqtt_publish = 0.15
    udp_packet = 0.05
    post_byte = 2e-6
    health_check = 0.02
    process_spawn = 50.0
    cache_priming = 400.0


class CpuModel:
    """A host's CPU: ``cores`` parallel servers of ``speed`` units/sec."""

    def __init__(self, env: Environment, cores: int = 8, speed: float = 100.0,
                 tracker: UtilizationTracker | None = None,
                 bucket_width: float = 1.0):
        if cores <= 0 or speed <= 0:
            raise ValueError("cores and speed must be positive")
        self.env = env
        self.cores = cores
        self.speed = speed
        self.resource = env.make_resource(capacity=cores)
        self.tracker = tracker or UtilizationTracker(
            bucket_width, capacity=cores)
        self.total_busy_seconds = 0.0

    def execute(self, work_units: float):
        """Generator: occupy one core for ``work_units / speed`` seconds.

        Use as ``yield from cpu.execute(cost)`` inside a simulation
        process, or wrap with ``env.process`` for fire-and-forget work.
        """
        if work_units <= 0:
            return
        with self.resource.request() as request:
            yield request
            start = self.env.now
            yield self.env.timeout(work_units / self.speed)
            self.tracker.add_busy(start, self.env.now)
            self.total_busy_seconds += self.env.now - start

    def background(self, work_units: float) -> None:
        """Fire-and-forget CPU burn (e.g. cache priming of a new instance)."""
        self.env.process(self.execute(work_units))

    def utilization(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.utilization(start, end)

    def idle(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.idle(start, end)
