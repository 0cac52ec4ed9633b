"""Reactive autoscaling of the app-server pool.

The :class:`Autoscaler` periodically evaluates a pool through a small
adapter (size, CPU utilization, queue depth, grow, shrink) and scales
out under CPU pressure / in when idle, subject to min/max bounds and
per-direction cooldowns.  The queue depth is recorded with each
decision, not acted on.  Scale-in always respects drain: the victim is
removed from rotation first and then drained to completion, never
killed — and the adapter only ever nominates a machine that is actively
serving (the autoscaler-discipline invariant checker audits exactly
this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..run import run_of

__all__ = ["Autoscaler", "AppPoolAdapter", "attach_app_autoscaler"]


#: Machines added per scale-out decision.
SCALE_OUT_STEP = 1

# The policy of the one autoscaled pool, the closed-loop ops day's
# (repro.experiments.ops_closed_loop) app fleet.  Read at each use, so
# a test patches the module attribute.

#: Hard bounds on pool membership.  ``MIN_SIZE`` is the capacity floor
#: the invariant checker enforces: the day's seed fleet of 6.
MIN_SIZE, MAX_SIZE = 6, 10
#: Seconds between control-loop evaluations.
EVALUATE_INTERVAL = 5.0
#: Mean-utilization window fed into each decision.
SIGNAL_WINDOW = 5.0
#: Mean busy fraction at/above which the pool grows, and at/below which
#: it shrinks (the day's diurnal swing moves CPU through 0.13–0.32).
SCALE_OUT_UTILIZATION, SCALE_IN_UTILIZATION = 0.29, 0.16
#: Minimum spacing between same-direction decisions.
COOLDOWN_OUT, COOLDOWN_IN = 10.0, 35.0


@dataclass
class ScaleDecision:
    """One recorded autoscaler action (counter-visible audit trail)."""

    at: float
    action: str  # "out" | "in"
    reason: str
    size_before: int
    size_after: int
    utilization: float
    target: Optional[str] = None  # machine retired on scale-in


class Autoscaler:
    """One control loop over one pool adapter."""

    def __init__(self, env, adapter, metrics=None,
                 name: Optional[str] = None):
        self.env = env
        #: Every decision is announced on the run's channel (repro.run).
        self.run_record = run_of(env)
        self.adapter = adapter
        self.name = name or f"autoscaler-{adapter.tier}"
        self.counters = (metrics.scoped_counters(f"ops-{self.name}")
                         if metrics is not None else None)
        self.decisions: list[ScaleDecision] = []
        self.size_series: list[tuple[float, int]] = []
        self._last_out: Optional[float] = None
        self._last_in: Optional[float] = None
        self.process = None

    def start(self) -> "Autoscaler":
        self.process = self.env.process(self._run())
        return self

    def _run(self):
        while True:
            yield self.env.timeout(EVALUATE_INTERVAL)
            yield from self.evaluate()

    # -- the control loop body -------------------------------------------

    def evaluate(self):
        """Generator: one evaluation (and any scaling it decides on)."""
        now = self.env.now
        utilization = self.adapter.utilization(SIGNAL_WINDOW)
        size = self.adapter.size()
        self.size_series.append((now, size))
        self._inc("evaluations")

        if utilization >= SCALE_OUT_UTILIZATION and size < MAX_SIZE:
            if not self._cooled(self._last_out, COOLDOWN_OUT, now):
                self._inc("held_cooldown")
                return
            for _ in range(min(SCALE_OUT_STEP, MAX_SIZE - size)):
                target = yield from self.adapter.scale_out()
                size += 1
                self._record("out", "utilization", size - 1, size,
                             utilization, target)
            self._last_out = self.env.now
            return

        if utilization <= SCALE_IN_UTILIZATION and size > MIN_SIZE:
            if not (self._cooled(self._last_in, COOLDOWN_IN, now)
                    and self._cooled(self._last_out, COOLDOWN_IN, now)):
                self._inc("held_cooldown")
                return
            victim = self.adapter.pick_scale_in()
            if victim is None:
                self._inc("held_no_victim")
                return
            # Audit the decision *before* the drain starts: the checker
            # verifies the victim was actively serving when nominated.
            self._record("in", "idle", size, size - 1, utilization, victim,
                         target_state=self.adapter.member_state(victim))
            self._last_in = now
            yield from self.adapter.scale_in(victim)

    # -- bookkeeping -------------------------------------------------------

    @staticmethod
    def _cooled(last: Optional[float], cooldown: float, now: float) -> bool:
        return last is None or now - last >= cooldown

    def _inc(self, name: str) -> None:
        if self.counters is not None:
            self.counters.inc(name)

    def _record(self, action: str, reason: str, size_before: int,
                size_after: int, utilization: float, target,
                target_state: Optional[str] = None) -> None:
        target_name = getattr(target, "name", None)
        self.decisions.append(ScaleDecision(
            at=self.env.now, action=action, reason=reason,
            size_before=size_before, size_after=size_after,
            utilization=utilization, target=target_name))
        self._inc(f"scale_{action}")
        self.run_record.announce(
            f"autoscale_{action}", autoscaler=self, scope=target_name,
            pool=self.adapter.tier, reason=reason, size_before=size_before,
            size_after=size_after, min_size=MIN_SIZE,
            max_size=MAX_SIZE, target=target,
            target_state=target_state)


class AppPoolAdapter:
    """Autoscaler view of the deployment's HHVM fleet."""

    tier = "app"

    def __init__(self, deployment):
        self.deployment = deployment

    def size(self) -> int:
        return len(self.deployment.app_pool.servers)

    def utilization(self, window: float) -> float:
        hosts = [s.host for s in self.deployment.app_pool.servers]
        return _mean_cpu(self.deployment.env, hosts, window)

    def member_state(self, server) -> str:
        return server.state

    def pick_scale_in(self):
        # Newest-first keeps the autoscaler draining its own additions
        # before touching the seed fleet.
        for server in reversed(self.deployment.app_pool.servers):
            if server.state == server.STATE_ACTIVE:
                return server
        return None

    def scale_out(self):
        yield from ()
        return self.deployment.grow_app_server()

    def scale_in(self, server):
        yield from self.deployment.retire_app_server(server)


def _mean_cpu(env, hosts, window: float) -> float:
    """Mean busy fraction over the trailing ``window`` across hosts."""
    if not hosts:
        return 0.0
    end = env.now
    start = max(0.0, end - window)
    if end <= start:
        return 0.0
    total, buckets = 0.0, 0
    for host in hosts:
        for _, fraction in host.cpu.utilization(start, end):
            total += fraction
            buckets += 1
    return total / buckets if buckets else 0.0


def attach_app_autoscaler(deployment) -> Autoscaler:
    """Build, register and start an app-pool autoscaler."""
    scaler = Autoscaler(deployment.env, AppPoolAdapter(deployment),
                        metrics=deployment.metrics)
    deployment.autoscalers.append(scaler)
    return scaler.start()

