"""Host CPU model: a cores×speed work server with busy-time accounting.

All application work (request parsing, TLS handshakes, relaying, cache
priming) is expressed in *work units*; a host executes
``cores × speed`` units per second.  Busy time is recorded into a
:class:`~repro.metrics.timeline.UtilizationTracker` so experiments can
read cluster idle-CPU exactly the way the paper does.

A core is a counter
-------------------
:class:`CpuModel` owns its cores: ``busy`` counts the cores held and
``_waiters`` holds ``(env.event(), work_units)`` per execution that
found every core busy.  A finishing execution hands its core to the
oldest waiter (FIFO) or frees it; the hand-off starts the waiter's work
in place — one ``env.timeout(work_units / speed, now)``, at the speed
of the hand-off, takes over its callbacks — so a queued execution costs
one event and resumes once, at its end, with its start time.  An
interrupt (or ``GeneratorExit``) is handled where it lands:

* while queued: the waiter leaves the queue;
* after the hand-off: the core is handed on, as a bare ``succeed()``
  grant that builds no event (the next waiter starts its work when it
  resumes), and no busy time is recorded.

The busy interval goes straight into the tracker's bucket dict when it
lies in one bucket (the same ``floor`` / ``_last_bucket`` arithmetic as
``IntervalAccumulator.add``, so the sums are the same floats); an
interval across a bucket edge goes through ``add_busy``.
"""

from __future__ import annotations

from collections import deque
from math import floor

from ..metrics.timeline import UtilizationTracker
from ..simkernel.core import Environment
from ..simkernel.events import Event

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

    __slots__ = ("env", "cores", "speed", "busy", "_waiters", "tracker",
                 "_buckets", "_bucket_width", "total_busy_seconds")

    def __init__(self, env: Environment, cores: int = 8, speed: float = 100.0,
                 bucket_width: float = 1.0):
        if cores <= 0 or speed <= 0:
            raise ValueError("cores and speed must be positive")
        self.env = env
        self.cores = cores
        self.speed = speed
        #: Cores held, including ones handed to a waiter that has not
        #: resumed yet.
        self.busy = 0
        #: Work waiting for a core, oldest first: (its event, units).
        self._waiters: deque[tuple[Event, float]] = deque()
        self.tracker = UtilizationTracker(bucket_width, capacity=cores)
        self._buckets = self.tracker.busy._buckets
        self._bucket_width = bucket_width
        self.total_busy_seconds = 0.0

    @property
    def queue_length(self) -> int:
        """Number of executions waiting for a core."""
        return len(self._waiters)

    def _release(self, start_work: bool = True) -> None:
        """Start the oldest waiter's work on the core, or free it."""
        if self._waiters:
            waiter, work_units = self._waiters.popleft()
            if not start_work:
                waiter.succeed()
                return
            env = self.env
            # Shared callbacks: an interrupt removes the waiter from both.
            env.timeout(work_units / self.speed,
                        env._now).callbacks = waiter.callbacks
        else:
            self.busy -= 1

    def execute(self, work_units: float):
        """Generator: occupy one core for ``work_units / speed`` seconds.

        Use as ``yield from cpu.execute(cost)`` inside a simulation
        process, or wrap with ``env.process`` for fire-and-forget work.
        """
        if work_units <= 0:
            return
        env = self.env
        if self.busy < self.cores:
            self.busy += 1
            entry = None
            done = env.timeout(work_units / self.speed, env._now)
        else:
            entry = (env.event(), work_units)
            self._waiters.append(entry)
            done = entry[0]
        try:
            start = yield done
            if start is None:  # only granted the core
                start = yield env.timeout(work_units / self.speed, env._now)
        except BaseException:
            if entry is None:
                self._release(start_work=False)
            else:
                # Found by identity: a failed ``deque.remove`` would
                # format the entry, and with it the event, into its
                # message.
                waiters = self._waiters
                for index, waiter in enumerate(waiters):
                    if waiter is entry:
                        del waiters[index]
                        break
                else:  # handed a core already
                    self._release(start_work=False)
            raise
        end = env._now
        busy = end - start
        width = self._bucket_width
        # ``IntervalAccumulator.add`` for the one-bucket case, inline.
        first = floor(start / width)
        last = floor(end / width)
        if last * width >= end:
            last -= 1
        if first == last and busy:
            buckets = self._buckets
            buckets[first] = buckets.get(first, 0.0) + busy
        else:
            self.tracker.add_busy(start, end)
        self.total_busy_seconds += busy
        if self._waiters:
            self._release()
        else:  # nobody waits: free the core, no call
            self.busy -= 1

    def background(self, work_units: float) -> None:
        """Fire-and-forget CPU burn (e.g. cache priming of a new instance)."""
        self.env.process(self.execute(work_units))

    def utilization(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.utilization(start, end)

    def idle(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.idle(start, end)
