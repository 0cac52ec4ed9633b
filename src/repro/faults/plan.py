"""Declarative fault plans: what, where, when, for how long.

A :class:`FaultPlan` is a named list of :class:`FaultSpec` entries that
can be attached to any built deployment (see
:class:`~repro.faults.injector.FaultInjector`), so every figure
experiment can be rerun under a reproducible incident — the §5
"pitfalls" become first-class, replayable inputs instead of ad-hoc
chaos flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "builtin_plan",
           "BUILTIN_PLANS"]

#: Every fault the injector knows how to drive.
FAULT_KINDS = frozenset({
    # machines
    "host_crash",        # the process dies now; reboot on clear
    "slow_host",         # CPU speed scaled down for the duration
    # network
    "link_degradation",  # latency×, extra loss on one site-pair link
    "wan_partition",     # correlated blackhole: 100% loss on every link
                         # whose sites match a "glob:glob" pair
    # sites / regions
    "region_outage",     # every proxy/app whose site matches crashes
    # L4LB
    "hc_flap",           # forced health-probe failures (§5.1 flaps)
    # takeover path
    "takeover_stall",    # old instance wedges mid-handshake (§4.1)
    "takeover_abort",    # old instance refuses the handshake
    "udp_fd_leak",       # new instance ignores received UDP FDs (§5.1)
    # upstreams
    "rogue_status",      # random statuses incl. bare 379s (§5.2)
    "upstream_truncate", # responses cut off mid-body
})


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind + target pattern + schedule + knobs.

    ``where`` is an ``fnmatch`` pattern over target names — host names
    *or sites* ("edge-proxy-*", "appserver-0", "r1-*") for machine/tier
    faults, or a "src_site:dst_site" pair (both sides may be globs) for
    ``link_degradation`` / ``wan_partition``.  ``duration`` ``None``
    means the fault persists until the end of the run.
    ``params`` carries per-kind knobs (e.g. ``fail_probability`` for
    ``hc_flap``); the common ``sample`` param (0, 1] injects into only a
    deterministic random subset of the matched targets.
    """

    kind: str
    where: str = "*"
    at: float = 0.0
    duration: Optional[float] = None
    params: Mapping = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}")
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("fault duration must be positive (or None)")
        if (self.kind in ("link_degradation", "wan_partition")
                and ":" not in self.where):
            raise ValueError(
                f"{self.kind} needs where='src_site:dst_site'")
        sample = self.params.get("sample", 1.0)
        if not 0 < sample <= 1:
            raise ValueError("sample must be in (0, 1]")


@dataclass
class FaultPlan:
    """A named, ordered bundle of faults for one experiment run."""

    name: str
    specs: list[FaultSpec]
    description: str = ""

    def validate(self) -> None:
        if not self.name:
            raise ValueError("plan needs a name")
        for spec in self.specs:
            spec.validate()


# -- built-in plans ---------------------------------------------------------
#
# Each named plan reproduces one §5 operational incident (or hardens the
# mechanism the paper built because of it).

def _hc_flap_storm(at: float, duration: float) -> list[FaultSpec]:
    # §5.1 "instability of routing": health probes flap, the Katran
    # ring churns, and only the LRU connection table keeps established
    # flows pinned.  Probabilistic per-probe so capacity never drops to
    # zero.
    return [FaultSpec("hc_flap", where="edge-proxy-*", at=at,
                      duration=duration,
                      params={"fail_probability": 0.7})]


def _rogue_379(at: float, duration: float) -> list[FaultSpec]:
    # §5.2: memory corruption made app servers return random statuses —
    # including bare 379s that must NOT be trusted as Partial Post
    # Replay without the PartialPOST status message.
    return [FaultSpec("rogue_status", where="appserver-*", at=at,
                      duration=duration, params={"fraction": 0.3})]


def _udp_fd_leak(at: float, duration: Optional[float]) -> list[FaultSpec]:
    # §5.1 socket leak: the new instance takes the UDP FDs but ignores
    # them; the orphans keep their reuseport ring share and blackhole
    # QUIC flows until an operator force-closes them.
    return [FaultSpec("udp_fd_leak", where="edge-proxy-0", at=at,
                      duration=duration)]


def _takeover_stall(at: float, duration: float) -> list[FaultSpec]:
    # §4.1 hardening: the old instance wedges mid-handshake; the client
    # must time out, be reaped, and the orchestrator retry.
    return [FaultSpec("takeover_stall", where="edge-proxy-*", at=at,
                      duration=duration)]


def _backend_crash(at: float, duration: float) -> list[FaultSpec]:
    # The capacity-loss incident behind §2.3's over-provisioning: a
    # machine dies mid-release and comes back only after `duration`.
    return [FaultSpec("host_crash", where="appserver-0", at=at,
                      duration=duration)]


def _edge_brownout(at: float, duration: float) -> list[FaultSpec]:
    # A browning-out PoP: the client↔edge WAN degrades while the edge
    # machines themselves slow down (thermal throttling, noisy
    # neighbours).
    return [
        FaultSpec("link_degradation", where="client:edge", at=at,
                  duration=duration,
                  params={"latency_multiplier": 5.0, "extra_loss": 0.05}),
        FaultSpec("slow_host", where="edge-proxy-*", at=at,
                  duration=duration, params={"speed_factor": 0.5}),
    ]


def _upload_truncation(at: float, duration: float) -> list[FaultSpec]:
    # Misbehaving upstreams cutting responses off mid-body: the proxy
    # observes resets and must fail over (exercises the retry paths the
    # §4.3 machinery leans on).
    return [FaultSpec("upstream_truncate", where="appserver-*", at=at,
                      duration=duration, params={"fraction": 0.3})]


def _wan_partition(at: float, duration: float) -> list[FaultSpec]:
    # A whole region drops off the backbone *and* its last mile: every
    # link touching an "r0-*" site blackholes.  In a single-region
    # deployment (no r0-* sites) the spec is a no-op ("no_target"), so
    # the plan composes with any experiment.
    return [FaultSpec("wan_partition", where="r0-*:*", at=at,
                      duration=duration)]


def _region_outage(at: float, duration: float) -> list[FaultSpec]:
    # Correlated machine loss: every proxy and app server in the r1-*
    # sites crashes at once and reboots on clear.
    return [FaultSpec("region_outage", where="r1-*", at=at,
                      duration=duration)]


BUILTIN_PLANS = {
    "hc-flap-storm": (_hc_flap_storm,
                      "§5.1 health-check flaps churning the L4LB ring"),
    "rogue-379": (_rogue_379,
                  "§5.2 rogue statuses incl. untrusted bare 379s"),
    "udp-fd-leak": (_udp_fd_leak,
                    "§5.1 orphaned UDP sockets after takeover"),
    "takeover-stall": (_takeover_stall,
                       "§4.1 stalled takeover handshakes"),
    "backend-crash": (_backend_crash,
                      "§2.3 capacity loss: an app server dies mid-run"),
    "edge-brownout": (_edge_brownout,
                      "degraded WAN + throttled edge machines"),
    "upload-truncation": (_upload_truncation,
                          "upstreams truncating response bodies"),
    "wan-partition": (_wan_partition,
                      "region r0 blackholed from clients and peers"),
    "region-outage": (_region_outage,
                      "correlated crash of every r1-* machine"),
}


def builtin_plan(name: str, at: float = 5.0,
                 duration: Optional[float] = 30.0) -> FaultPlan:
    """A named incident plan, scheduled at ``at`` for ``duration``."""
    try:
        factory, description = BUILTIN_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; "
            f"available: {sorted(BUILTIN_PLANS)}") from None
    plan = FaultPlan(name=name, specs=factory(at, duration),
                     description=description)
    plan.validate()
    return plan
