"""Drive a :class:`~repro.faults.plan.FaultPlan` against a deployment.

The injector turns each declarative :class:`FaultSpec` into a simkernel
process: wait until ``spec.at``, flip the targeted components into their
fault mode, wait out ``spec.duration``, flip them back.  All state
changes go through per-component fault attributes (never through shared
config objects, which are one instance per tier) so faults stay scoped
to exactly the matched targets.

Target selection is deterministic: ``fnmatch`` over host names *and
sites* plus the deployment's seeded ``"faults"`` random stream for the
optional ``sample`` param — the same seed always hits the same machines.
Site matching is what lets a plan say "every machine in region 1"
(``where="r1-*"``) without knowing the host naming scheme.

Faults that scale shared state (CPU speed, link profiles) restore
*compositionally*: each window contributes a factor/override and each
clear removes exactly its own contribution, so overlapping windows on
the same target never stomp each other's snapshot of "original".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Callable, Optional

from ..netsim.network import LinkProfile
from .plan import FaultPlan


def _has_glob(pattern: str) -> bool:
    return any(ch in pattern for ch in "*?[")

__all__ = ["FaultInjector", "FaultRecord"]


@dataclass
class FaultRecord:
    """What actually happened to one spec of the plan."""

    spec: object
    targets: list[str] = field(default_factory=list)
    injected_at: Optional[float] = None
    cleared_at: Optional[float] = None
    #: "pending" → "active" → "cleared" | "no_target"
    state: str = "pending"


class FaultInjector:
    """Attach one plan to one built deployment."""

    def __init__(self, deployment, plan: FaultPlan):
        plan.validate()
        self.deployment = deployment
        self.plan = plan
        self.env = deployment.env
        self.rng = deployment.streams.stream("faults")
        self.counters = deployment.metrics.scoped_counters("faults")
        self.records = [FaultRecord(spec=spec) for spec in plan.specs]
        self._attached = False
        #: host -> (base cpu speed, list of active slow-host factors).
        self._cpu_slow: dict = {}

    def attach(self) -> "FaultInjector":
        """Schedule every spec as a simulation process (idempotent)."""
        if not self._attached:
            self._attached = True
            for record in self.records:
                self.env.process(self._drive(record))
        return self

    # -- the per-spec lifecycle -----------------------------------------

    def _drive(self, record: FaultRecord):
        spec = record.spec
        if spec.at > self.env.now:
            yield self.env.timeout(spec.at - self.env.now)
        clear = self._inject(record)
        if clear is None:
            record.state = "no_target"
            self.counters.inc("no_target", tag=spec.kind)
            return
        record.injected_at = self.env.now
        record.state = "active"
        self.counters.inc("injected", tag=spec.kind)
        # A fault window opens on the run's channel: bulk transfers run
        # per-chunk and aggregate cohorts condense while it is open.
        window = dict(record=record, kind=spec.kind, where=spec.where,
                      targets=len(record.targets))
        self.deployment.run_record.announce("fault_begin", **window)
        if spec.duration is None:
            return  # persists to the end of the run
        yield self.env.timeout(spec.duration)
        clear()
        record.cleared_at = self.env.now
        record.state = "cleared"
        self.counters.inc("cleared", tag=spec.kind)
        self.deployment.run_record.announce("fault_end", **window)

    def _inject(self, record: FaultRecord) -> Optional[Callable[[], None]]:
        """Apply one fault; returns the clear callable (None = no target)."""
        spec = record.spec
        handler = getattr(self, f"_inject_{spec.kind}")
        return handler(spec, record)

    # -- target matching -------------------------------------------------

    def _sample(self, matched: list, spec) -> list:
        fraction = spec.params.get("sample", 1.0)
        if fraction >= 1.0 or not matched:
            return matched
        count = max(1, round(len(matched) * fraction))
        return self.rng.sample(matched, count)

    def _match_proxies(self, spec) -> list:
        servers = (self.deployment.edge_servers
                   + self.deployment.origin_servers)
        matched = [s for s in servers
                   if fnmatch(s.host.name, spec.where)
                   or fnmatch(s.name, spec.where)
                   or fnmatch(s.host.site, spec.where)]
        return self._sample(matched, spec)

    def _match_apps(self, spec) -> list:
        matched = [s for s in self.deployment.app_servers
                   if fnmatch(s.host.name, spec.where)
                   or fnmatch(s.name, spec.where)
                   or fnmatch(s.host.site, spec.where)]
        return self._sample(matched, spec)

    def _match_hosts(self, spec) -> list:
        matched = [h for h in self.deployment.network.hosts()
                   if fnmatch(h.name, spec.where)
                   or fnmatch(h.site, spec.where)]
        return self._sample(matched, spec)

    def _expand_site_pairs(self, where: str) -> list[tuple[str, str]]:
        """Ordered (src, dst) site pairs for a "glob:glob" pattern.

        Both directions of every matched pair are returned (partitions
        and degradations are symmetric incidents).  A fully literal
        pattern falls back to the named pair even when no host lives on
        those sites yet, preserving the historical behaviour of
        ``link_degradation`` plans against bare Network fixtures.
        """
        src_pat, _, dst_pat = where.partition(":")
        sites = self.deployment.network.sites()
        srcs = [s for s in sites if fnmatch(s, src_pat)]
        dsts = [s for s in sites if fnmatch(s, dst_pat)]
        pairs = set()
        for a in srcs:
            for b in dsts:
                if a != b:
                    pairs.add((a, b))
                    pairs.add((b, a))
        if not pairs and not _has_glob(src_pat) and not _has_glob(dst_pat):
            pairs = {(src_pat, dst_pat), (dst_pat, src_pat)}
        return sorted(pairs)

    # -- handlers ---------------------------------------------------------
    # Each applies the fault and returns a closure restoring the exact
    # prior state.

    def _inject_host_crash(self, spec, record):
        proxies = self._match_proxies(spec)
        apps = self._match_apps(spec)
        if not proxies and not apps:
            return None
        for server in proxies + apps:
            record.targets.append(server.name)
            server.crash()

        def clear() -> None:
            for server in proxies:
                self.env.process(server.reboot())
            for server in apps:
                server.reboot()
        return clear

    def _inject_slow_host(self, spec, record):
        hosts = self._match_hosts(spec)
        if not hosts:
            return None
        factor = spec.params.get("speed_factor", 0.25)
        for host in hosts:
            record.targets.append(host.name)
            base, factors = self._cpu_slow.setdefault(
                host, (host.cpu.speed, []))
            factors.append(factor)
            host.cpu.speed = base * math.prod(factors)

        def clear() -> None:
            for host in hosts:
                entry = self._cpu_slow.get(host)
                if entry is None:
                    continue
                base, factors = entry
                factors.remove(factor)
                if factors:
                    host.cpu.speed = base * math.prod(factors)
                else:
                    # Last window on this host: restore the exact base.
                    host.cpu.speed = base
                    del self._cpu_slow[host]
        return clear

    def _inject_link_degradation(self, spec, record):
        network = self.deployment.network
        pairs = self._expand_site_pairs(spec.where)
        if not pairs:
            return None
        latency_mult = spec.params.get("latency_multiplier", 1.0)
        extra_loss = spec.params.get("extra_loss", 0.0)
        bandwidth_factor = spec.params.get("bandwidth_factor", 1.0)

        def degrade(profile: LinkProfile) -> LinkProfile:
            return LinkProfile(
                latency=profile.latency * latency_mult,
                jitter=profile.jitter * latency_mult,
                bandwidth=(profile.bandwidth * bandwidth_factor
                           if profile.bandwidth else None),
                loss=min(1.0, profile.loss + extra_loss))

        tokens = [network.push_link_override(a, b, degrade,
                                             symmetric=False)
                  for a, b in pairs]
        record.targets.extend(f"{a}:{b}" for a, b in pairs)

        def clear() -> None:
            for token in tokens:
                network.pop_link_override(token)
        return clear

    def _inject_wan_partition(self, spec, record):
        network = self.deployment.network
        pairs = self._expand_site_pairs(spec.where)
        if not pairs:
            return None

        def blackhole(profile: LinkProfile) -> LinkProfile:
            return LinkProfile(latency=profile.latency,
                               jitter=profile.jitter,
                               bandwidth=profile.bandwidth,
                               loss=1.0)

        tokens = [network.push_link_override(a, b, blackhole,
                                             symmetric=False)
                  for a, b in pairs]
        record.targets.extend(f"{a}:{b}" for a, b in pairs)

        def clear() -> None:
            for token in tokens:
                network.pop_link_override(token)
        return clear

    def _inject_region_outage(self, spec, record):
        # Correlated machine loss scoped by site glob; the matchers
        # already fnmatch sites, so this is host_crash at region scale.
        return self._inject_host_crash(spec, record)

    def _inject_hc_flap(self, spec, record):
        katrans = self.deployment.all_katrans()
        probability = spec.params.get("fail_probability", 0.7)
        touched: list[tuple] = []
        backends = []
        for katran in katrans:
            for ip, backend in katran.backends.items():
                if (fnmatch(backend.host.name, spec.where)
                        or fnmatch(backend.host.site, spec.where)):
                    backends.append((katran, ip, backend))
        for katran, ip, backend in self._sample(backends, spec):
            katran.forced_probe_failure[ip] = probability
            touched.append((katran, ip))
            record.targets.append(f"{katran.name}:{backend.host.name}")
        if not touched:
            return None

        def clear() -> None:
            for katran, ip in touched:
                katran.forced_probe_failure.pop(ip, None)
        return clear

    def _set_proxy_fault(self, spec, record, mode: str):
        proxies = self._match_proxies(spec)
        if not proxies:
            return None
        for server in proxies:
            record.targets.append(server.name)
            server.takeover_fault = mode

        def clear() -> None:
            for server in proxies:
                if server.takeover_fault == mode:
                    server.takeover_fault = None
        return clear

    def _inject_takeover_stall(self, spec, record):
        return self._set_proxy_fault(spec, record, "stall")

    def _inject_takeover_abort(self, spec, record):
        return self._set_proxy_fault(spec, record, "abort")

    def _inject_udp_fd_leak(self, spec, record):
        proxies = self._match_proxies(spec)
        if not proxies:
            return None
        for server in proxies:
            record.targets.append(server.name)
            server.fault_ignore_udp_fds = True

        def clear() -> None:
            for server in proxies:
                server.fault_ignore_udp_fds = False
        return clear

    def _inject_rogue_status(self, spec, record):
        apps = self._match_apps(spec)
        if not apps:
            return None
        fraction = spec.params.get("fraction", 0.3)
        for server in apps:
            record.targets.append(server.name)
            server.fault_rogue_fraction = fraction

        def clear() -> None:
            for server in apps:
                server.fault_rogue_fraction = None
        return clear

    def _inject_upstream_truncate(self, spec, record):
        apps = self._match_apps(spec)
        if not apps:
            return None
        fraction = spec.params.get("fraction", 0.3)
        for server in apps:
            record.targets.append(server.name)
            server.fault_truncate_fraction = fraction

        def clear() -> None:
            for server in apps:
                server.fault_truncate_fraction = 0.0
        return clear

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Compact dict for the metrics report's ``faults`` section."""
        return {
            "plan": self.plan.name,
            "description": self.plan.description,
            "events": [
                {
                    "kind": r.spec.kind,
                    "where": r.spec.where,
                    "state": r.state,
                    "targets": list(r.targets),
                    "injected_at": r.injected_at,
                    "cleared_at": r.cleared_at,
                }
                for r in self.records
            ],
        }
