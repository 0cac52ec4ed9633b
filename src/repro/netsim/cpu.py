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

A relay step burns its CPU with :meth:`CpuModel.charge` instead: the
same burst as a call entry, at the heap key ``execute``'s timeout would
have, in the same core queue, and a call of ``fn(arg)`` where the
generator would have resumed.  A :class:`Charge` is withdrawn with
:meth:`Charge.cancel` exactly as ``execute``'s interrupt arm withdraws
an execution: dequeued while it waits, its core handed on with a bare
grant once it holds one.  A charge granted a core without its work
starts the work at the grant's same-instant call entry, as a granted
execution does when it resumes.

Both end a burst through :meth:`CpuModel._done`: the busy interval goes
straight into the tracker's bucket dict when it lies in one bucket (the
same ``floor`` / ``_last_bucket`` arithmetic as
``IntervalAccumulator.add``, so the sums are the same floats); an
interval across a bucket edge goes through ``add_busy``.
"""

from __future__ import annotations

from collections import deque
from math import floor
from typing import Any, Callable, Optional, Union

from ..metrics.timeline import UtilizationTracker
from ..simkernel.core import Environment
from ..simkernel.events import Event

__all__ = ["CpuModel", "CpuCosts", "Charge"]

#: Builds a slotted charge without its class call (see
#: :meth:`CpuModel.charge`).
_new = object.__new__

#: Where a :class:`Charge` is: waiting for a core, granted one without
#: its work, running, or over (done or withdrawn).
_QUEUED, _GRANTED, _RUNNING, _OVER = range(4)


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


class Charge:
    """One CPU burst a callback charged (:meth:`CpuModel.charge`): what
    it calls when done, and where it is.

    It has no ``__init__``: ``CpuModel.charge`` builds it in place."""

    __slots__ = ("cpu", "units", "fn", "arg", "start", "state")

    def cancel(self) -> None:
        """Withdraw the burst as an interrupt withdraws an execution:
        out of the core queue while it waits; once it holds a core (its
        work started or not), the core is handed on with a bare grant.
        Its completion, if scheduled, pops as a no-op.  Over: nothing."""
        state = self.state
        self.state = _OVER
        if state == _QUEUED:
            waiters = self.cpu._waiters
            for index, waiter in enumerate(waiters):
                if waiter is self:
                    del waiters[index]
                    break
        elif state != _OVER:
            self.cpu._release(start_work=False)


def _begin(charge: Charge) -> None:
    """A charge granted a core without its work starts it now."""
    if charge.state == _GRANTED:
        charge.cpu._run(charge)


def _complete(charge: Charge) -> None:
    """A charge's burst is over: free its core, then call back."""
    if charge.state != _RUNNING:
        return  # withdrawn
    charge.state = _OVER
    charge.cpu._done(charge.start)
    charge.fn(charge.arg)


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
        #: Work waiting for a core, oldest first: (its event, units) for
        #: an execution, the :class:`Charge` for a charge.
        self._waiters: deque[Union[tuple[Event, float], Charge]] = deque()
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
            waiter = self._waiters.popleft()
            env = self.env
            if type(waiter) is Charge:
                if start_work:
                    self._run(waiter)
                else:  # the grant a granted execution's succeed() is
                    waiter.state = _GRANTED
                    env.call_later(0, _begin, waiter)
                return
            waiter, work_units = waiter
            if not start_work:
                waiter.succeed()
                return
            # Shared callbacks: an interrupt removes the waiter from both.
            env.timeout(work_units / self.speed,
                        env._now).callbacks = waiter.callbacks
        else:
            self.busy -= 1

    def _run(self, charge: Charge) -> None:
        """Start a charge's work on the core it holds: its completion is
        a call entry where ``execute``'s timeout would be."""
        env = self.env
        charge.start = env._now
        charge.state = _RUNNING
        env.call_later(charge.units / self.speed, _complete, charge)

    def _done(self, start: float) -> None:
        """A burst begun at ``start`` ends now: record its busy time and
        hand its core to the oldest waiter, or free it."""
        end = self.env._now
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
        self._done(start)

    def charge(self, work_units: float, fn: Callable[[Any], None],
               arg: Any) -> Optional[Charge]:
        """:meth:`execute` for a callback: occupy one core for
        ``work_units / speed`` seconds, then call ``fn(arg)``.

        Returns the :class:`Charge`, to withdraw it with
        :meth:`Charge.cancel` (``None`` for no work: ``fn`` was called
        already, as ``execute`` returns at once).
        """
        if work_units <= 0:
            fn(arg)
            return None
        charge = _new(Charge)
        charge.cpu = self
        charge.units = work_units
        charge.fn = fn
        charge.arg = arg
        if self.busy < self.cores:
            self.busy += 1
            # ``_run``, inlined: one frame per charge.
            env = self.env
            charge.start = env._now
            charge.state = _RUNNING
            env.call_later(work_units / self.speed, _complete, charge)
        else:
            charge.state = _QUEUED
            self._waiters.append(charge)
        return charge

    def background(self, work_units: float) -> None:
        """Fire-and-forget CPU burn (e.g. cache priming of a new instance)."""
        self.env.process(self.execute(work_units))

    def utilization(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.utilization(start, end)

    def idle(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.idle(start, end)
