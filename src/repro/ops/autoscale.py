"""Reactive autoscaling of the app-server pool and proxy tiers.

The :class:`Autoscaler` periodically evaluates a pool through a small
adapter (size, CPU utilization, queue depth, grow, shrink) and scales
out under pressure / in when idle, subject to min/max bounds and
per-direction cooldowns.  Scale-in always respects drain: the victim is
removed from rotation first and then drained to completion, never
killed — and the adapter only ever nominates a machine that is actively
serving (the autoscaler-discipline invariant checker audits exactly
this).

New proxies enter (and retiring proxies leave) the L4LB via Katran's
existing ``add_backend``/``remove_backend`` paths, so flow routing sees
membership changes the same way operators' tooling drives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..run import run_of

__all__ = ["AutoscalerConfig", "Autoscaler", "AppPoolAdapter",
           "EdgeProxyAdapter", "attach_app_autoscaler",
           "attach_edge_autoscaler"]


@dataclass
class AutoscalerConfig:
    """Policy knobs for one autoscaled pool."""

    #: Hard bounds on pool membership.  ``min_size`` is the capacity
    #: floor the invariant checker enforces.
    min_size: int = 1
    max_size: int = 8
    #: Seconds between control-loop evaluations.
    evaluate_interval: float = 5.0
    #: Mean-utilization window fed into each decision.
    signal_window: float = 5.0
    #: Mean busy fraction at/above which the pool grows...
    scale_out_utilization: float = 0.75
    #: ...and at/below which it shrinks.
    scale_in_utilization: float = 0.30
    #: Optional queue-depth trip wire (adapter-defined units); ``None``
    #: disables the queue signal.
    queue_depth_high: Optional[float] = None
    #: Machines added per scale-out decision.
    step: int = 1
    #: Minimum spacing between same-direction decisions.
    cooldown_out: float = 10.0
    cooldown_in: float = 20.0

    def validate(self) -> None:
        if self.min_size < 1 or self.max_size < self.min_size:
            raise ValueError("need 1 <= min_size <= max_size")
        if self.evaluate_interval <= 0 or self.signal_window <= 0:
            raise ValueError("intervals must be positive")
        if not 0 <= self.scale_in_utilization <= self.scale_out_utilization:
            raise ValueError(
                "need 0 <= scale_in_utilization <= scale_out_utilization")
        if self.step < 1:
            raise ValueError("step must be >= 1")


@dataclass
class ScaleDecision:
    """One recorded autoscaler action (counter-visible audit trail)."""

    at: float
    action: str  # "out" | "in"
    reason: str
    size_before: int
    size_after: int
    utilization: float
    queue_depth: float
    target: Optional[str] = None  # machine retired on scale-in


class Autoscaler:
    """One control loop over one pool adapter."""

    def __init__(self, env, adapter, config: Optional[AutoscalerConfig] = None,
                 metrics=None, name: Optional[str] = None):
        self.env = env
        #: Every decision is announced on the run's channel (repro.run).
        self.run_record = run_of(env)
        self.adapter = adapter
        self.config = config or AutoscalerConfig()
        self.config.validate()
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
            yield self.env.timeout(self.config.evaluate_interval)
            yield from self.evaluate()

    # -- the control loop body -------------------------------------------

    def evaluate(self):
        """Generator: one evaluation (and any scaling it decides on)."""
        config = self.config
        now = self.env.now
        utilization = self.adapter.utilization(config.signal_window)
        queue_depth = self.adapter.queue_depth()
        size = self.adapter.size()
        self.size_series.append((now, size))
        self._inc("evaluations")

        queue_hot = (config.queue_depth_high is not None
                     and queue_depth >= config.queue_depth_high)
        pressured = utilization >= config.scale_out_utilization or queue_hot
        idle = (utilization <= config.scale_in_utilization and not queue_hot)

        if pressured and size < config.max_size:
            if not self._cooled(self._last_out, config.cooldown_out, now):
                self._inc("held_cooldown")
                return
            reason = "queue" if queue_hot else "utilization"
            for _ in range(min(config.step, config.max_size - size)):
                target = yield from self.adapter.scale_out()
                size += 1
                self._record("out", reason, size - 1, size, utilization,
                             queue_depth, target)
            self._last_out = self.env.now
            return

        if idle and size > config.min_size:
            if not (self._cooled(self._last_in, config.cooldown_in, now)
                    and self._cooled(self._last_out, config.cooldown_in,
                                     now)):
                self._inc("held_cooldown")
                return
            victim = self.adapter.pick_scale_in()
            if victim is None:
                self._inc("held_no_victim")
                return
            # Audit the decision *before* the drain starts: the checker
            # verifies the victim was actively serving when nominated.
            self._record("in", "idle", size, size - 1, utilization,
                         queue_depth, victim,
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
                size_after: int, utilization: float, queue_depth: float,
                target, target_state: Optional[str] = None) -> None:
        target_name = getattr(target, "name", None)
        self.decisions.append(ScaleDecision(
            at=self.env.now, action=action, reason=reason,
            size_before=size_before, size_after=size_after,
            utilization=utilization, queue_depth=queue_depth,
            target=target_name))
        self._inc(f"scale_{action}")
        self.run_record.announce(
            f"autoscale_{action}", autoscaler=self, scope=target_name,
            pool=self.adapter.tier, reason=reason, size_before=size_before,
            size_after=size_after, min_size=self.config.min_size,
            max_size=self.config.max_size, target=target,
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

    def queue_depth(self) -> float:
        servers = self.deployment.app_pool.servers
        if not servers:
            return 0.0
        backlog = sum(len(s.in_flight_posts) for s in servers)
        return backlog / len(servers)

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


class EdgeProxyAdapter:
    """Autoscaler view of the edge Proxygen tier (behind Katran)."""

    tier = "edge"

    def __init__(self, deployment):
        self.deployment = deployment

    def size(self) -> int:
        return len(self.deployment.edge_servers)

    def utilization(self, window: float) -> float:
        hosts = [s.host for s in self.deployment.edge_servers]
        return _mean_cpu(self.deployment.env, hosts, window)

    def queue_depth(self) -> float:
        servers = self.deployment.edge_servers
        if not servers:
            return 0.0
        return (sum(s.connection_count() for s in servers)
                / len(servers))

    def member_state(self, server) -> str:
        instance = server.active_instance
        if instance is None or not instance.alive:
            return "down"
        return instance.state

    def pick_scale_in(self):
        for server in reversed(self.deployment.edge_servers):
            instance = server.active_instance
            if (instance is not None and instance.alive
                    and instance.state == instance.STATE_ACTIVE):
                return server
        return None

    def scale_out(self):
        server = yield from self.deployment.grow_edge_proxy()
        return server

    def scale_in(self, server):
        yield from self.deployment.retire_edge_proxy(server)


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


def attach_app_autoscaler(deployment,
                          config: Optional[AutoscalerConfig] = None
                          ) -> Autoscaler:
    """Build, register and start an app-pool autoscaler."""
    scaler = Autoscaler(deployment.env, AppPoolAdapter(deployment),
                        config, metrics=deployment.metrics)
    deployment.autoscalers.append(scaler)
    return scaler.start()


def attach_edge_autoscaler(deployment,
                           config: Optional[AutoscalerConfig] = None
                           ) -> Autoscaler:
    """Build, register and start an edge-proxy autoscaler."""
    scaler = Autoscaler(deployment.env, EdgeProxyAdapter(deployment),
                        config, metrics=deployment.metrics)
    deployment.autoscalers.append(scaler)
    return scaler.start()
