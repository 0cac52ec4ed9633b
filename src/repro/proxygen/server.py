"""ProxygenServer: the logical L7LB on one machine, across restarts.

Owns the sequence of :class:`ProxygenInstance` generations and the two
restart strategies the paper compares:

* **Zero Downtime Restart** (§4.1) — spawn the new generation in
  parallel, Socket Takeover the listening sockets, let the old
  generation drain.  The L4LB never sees the restart.
* **HardRestart** (§6.1) — the traditional roll-out: drain (failing
  health checks), terminate, then cold-boot the new generation.  The
  machine serves nothing between termination and re-bind.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.addresses import VIP
from ..netsim.host import Host
from ..resilience.plane import ResiliencePlane
from .config import ProxygenConfig
from .context import ProxyTierContext
from .instance import ProxygenInstance

__all__ = ["ProxygenServer"]


class ProxygenServer:
    """One L7LB machine's Proxygen deployment."""

    def __init__(self, host: Host, config: ProxygenConfig,
                 context: ProxyTierContext,
                 vips: list[VIP]):
        config.validate()
        self.host = host
        self.config = config
        self.context = context
        self.vips = vips
        self.name = f"proxygen@{host.name}"
        self.counters = host.metrics.scoped_counters(self.name)
        self.generation = 0
        self.active_instance: Optional[ProxygenInstance] = None
        self.draining_instance: Optional[ProxygenInstance] = None
        self.releases_completed = 0
        #: Fault-injection hooks (repro.faults).  ``takeover_fault`` makes
        #: the *next* takeover handshake misbehave server-side ("stall" |
        #: "abort" | None); ``fault_ignore_udp_fds`` reproduces the §5.1
        #: UDP-socket leak per machine without mutating the shared config.
        self.takeover_fault: Optional[str] = None
        self.fault_ignore_udp_fds: bool = False
        #: The machine-scoped resilience state (breakers, budgets,
        #: admission) — survives generation handovers so a takeover does
        #: not forget which upstreams were misbehaving.
        self.resilience: Optional[ResiliencePlane] = None
        if config.resilience.enabled:
            self.resilience = ResiliencePlane(
                config.resilience, host.env,
                host.streams.stream("resilience"), self.counters)

    # -- views ----------------------------------------------------------

    @property
    def instance_count(self) -> int:
        """Live processes right now (2 during a takeover drain)."""
        return sum(1 for inst in (self.active_instance,
                                  self.draining_instance)
                   if inst is not None and inst.alive)

    def memory_usage(self) -> float:
        return sum(inst.process.memory_usage()
                   for inst in (self.active_instance, self.draining_instance)
                   if inst is not None and inst.alive)

    def mqtt_tunnel_count(self) -> int:
        return sum(len(inst.mqtt_tunnels)
                   for inst in (self.active_instance, self.draining_instance)
                   if inst is not None and inst.alive)

    # -- lifecycle --------------------------------------------------------

    def _new_instance(self) -> ProxygenInstance:
        self.generation += 1
        return ProxygenInstance(self, self.generation)

    def start(self):
        """Generator: boot the first generation."""
        instance = self._new_instance()
        yield from instance.start_fresh()
        self.active_instance = instance

    def release(self):
        """Generator: perform one code release on this machine."""
        if self.config.enable_takeover:
            yield from self._release_takeover()
        else:
            yield from self._release_hard()
        self.releases_completed += 1
        self.counters.inc("releases")

    def _release_takeover(self):
        """Zero Downtime Restart: parallel instance + Socket Takeover."""
        old = self.active_instance
        new = self._new_instance()
        announce = self.host.run_record.announce
        announce("takeover_begin", server=self, scope=self.name,
                 generation=new.generation)
        # The takeover handshake itself flips ``old`` into draining
        # (steps D/E happen server-side inside the protocol).
        try:
            yield from new.start_via_takeover()
        except BaseException:
            # Failed/stalled handshake: reap the half-born generation
            # (dropping any FDs it received) and leave ``old`` serving —
            # it only starts draining on a *confirmed* handshake.
            self.counters.inc("takeover_failed")
            new.shutdown("takeover_failed")
            announce("takeover_end", server=self, scope=self.name,
                     generation=new.generation, ok=False)
            raise
        self.draining_instance = old
        self.active_instance = new
        announce("takeover_end", server=self, scope=self.name,
                 generation=new.generation, ok=True)

    def _release_hard(self):
        """Traditional restart: drain (failing HC) → kill → cold boot."""
        old = self.active_instance
        if old is not None and old.alive:
            old.begin_drain(reason="hard")
            # The instance exits itself at the end of the drain period.
            yield old.exited_event
        new = self._new_instance()
        yield from new.start_fresh()
        self.active_instance = new

    def crash(self) -> None:
        """Fault path: every generation on this machine dies *now*.

        Connections get RST, the kernel reaps the FDs, Katran's probes
        start failing — the §5 incident view of a dead L7LB.
        """
        for instance in (self.draining_instance, self.active_instance):
            if instance is not None and instance.alive:
                instance.shutdown("fault:crash")
        self.counters.inc("crashes")

    def reboot(self):
        """Generator: cold-boot after a :meth:`crash` (fresh bind)."""
        if self.active_instance is not None and self.active_instance.alive:
            return
        instance = self._new_instance()
        yield from instance.start_fresh()
        self.active_instance = instance
        self.counters.inc("reboots")

    def on_instance_exit(self, instance: ProxygenInstance) -> None:
        """Bookkeeping when a generation's process terminates."""
        if self.draining_instance is instance:
            self.draining_instance = None
            # The forwarding target is gone: stop user-space routing.
            if self.active_instance is not None:
                self.active_instance.sibling_forward_port = None
        if self.active_instance is instance:
            self.active_instance = None
