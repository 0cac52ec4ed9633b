"""Scenarios: the fuzzer's unit of work, serializable for replay.

A :class:`Scenario` fully determines one simulated run — cluster shape,
client mix, fault schedule, release schedule and the deployment seed.
``generate_scenario(seed)`` derives every choice from the seed via a
named :class:`~repro.simkernel.rng.RandomStreams` stream, so generation
itself is reproducible; ``to_json``/``from_json`` round-trip a scenario
losslessly, which is what makes shrunken repro files exact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from ..simkernel.rng import RandomStreams

__all__ = ["SCENARIO_FORMAT", "Scenario", "generate_scenario"]

#: Bumped when the JSON layout changes incompatibly.
SCENARIO_FORMAT = 1

#: Tiers a release schedule may walk.
RELEASE_TIERS = ("edge", "origin", "app")


@dataclass
class Scenario:
    """One fully-determined fuzz run."""

    seed: int
    duration: float = 30.0
    # -- cluster shape ---------------------------------------------------
    edge_proxies: int = 2
    origin_proxies: int = 1
    app_servers: int = 2
    brokers: int = 1
    # -- client mix ------------------------------------------------------
    web_clients: int = 6
    mqtt_users: int = 4
    quic_flows: int = 0
    post_fraction: float = 0.10
    # -- release behaviour ----------------------------------------------
    drain_duration: float = 4.0
    edge_takeover: bool = True
    #: L4LB routing policy (repro.lb.routers.ROUTER_SCHEMES) for every
    #: Katran in the run — the fuzzer exercises all four.
    lb_scheme: str = "lru"
    #: Release schedule entries: {"tier", "at", "batch_fraction"}.
    releases: list[dict] = field(default_factory=list)
    #: Fault schedule entries: FaultSpec kwargs
    #: ({"kind", "where", "at", "duration", "params"}).
    faults: list[dict] = field(default_factory=list)
    #: Name of a deliberately-planted code fault (repro.fuzz.planted)
    #: active for this run; None for honest runs.
    planted: Optional[str] = None
    #: Load shape (repro.ops.load.LOAD_SHAPE_KINDS) modulating client
    #: arrival rates, scaled to the run's duration; None = constant.
    load_shape: Optional[str] = None
    #: Regions in the deployment; 1 = the classic single-Origin cluster,
    #: >1 builds a :class:`repro.regions.RegionalDeployment` (per-pop
    #: client/proxy counts reuse the single-region fields above).
    regions: int = 1
    #: Cohort client layer: :class:`repro.cohorts.CohortPolicy` kwargs
    #: (``to_dict`` form), or None for one SimProcess per client.
    cohorts: Optional[dict] = None

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["format"] = SCENARIO_FORMAT
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        version = data.pop("format", SCENARIO_FORMAT)
        if version != SCENARIO_FORMAT:
            raise ValueError(
                f"repro file format {version} != {SCENARIO_FORMAT}")
        # Repro files may carry the violating run's trace export next to
        # the scenario fields; it is documentation, not an input.
        data.pop("trace", None)
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # -- views ------------------------------------------------------------

    def fault_plan(self) -> Optional[FaultPlan]:
        """The scenario's faults as an attachable plan (None if empty)."""
        if not self.faults:
            return None
        specs = [FaultSpec(kind=f["kind"], where=f.get("where", "*"),
                           at=f.get("at", 0.0),
                           duration=f.get("duration"),
                           params=dict(f.get("params", {})))
                 for f in self.faults]
        return FaultPlan(name=f"fuzz-{self.seed}", specs=specs,
                         description="machine-generated fault schedule")

    def describe(self) -> str:
        bits = [f"seed={self.seed}", f"dur={self.duration:.0f}s",
                f"edge={self.edge_proxies}", f"origin={self.origin_proxies}",
                f"app={self.app_servers}", f"lb={self.lb_scheme}",
                f"faults={len(self.faults)}",
                f"releases={len(self.releases)}"]
        if self.regions > 1:
            bits.append(f"regions={self.regions}")
        if self.cohorts:
            bits.append(
                f"cohorts={self.cohorts.get('fidelity', 'auto')}"
                f"×{self.cohorts.get('scale', 1)}")
        if self.planted:
            bits.append(f"planted={self.planted}")
        return " ".join(bits)


# -- generation ---------------------------------------------------------------

#: Per-kind menus of plausible targets/parameters.  Host-name patterns
#: match the names Deployment assigns (edge-proxy-i, origin-proxy-i,
#: appserver-i); link_degradation uses site pairs.
_PROXY_WHERE = ("edge-proxy-*", "origin-proxy-*", "edge-proxy-0",
                "origin-proxy-0")
_APP_WHERE = ("appserver-*", "appserver-0")
_MACHINE_WHERE = _PROXY_WHERE + _APP_WHERE
_LINK_WHERE = ("client:edge", "edge:origin")


def _fault_entry(rng, kind: str, duration_budget: float) -> dict:
    """One schedule entry for ``kind``, every field drawn from ``rng``."""
    at = round(rng.uniform(2.0, max(3.0, duration_budget * 0.5)), 3)
    duration = round(rng.uniform(3.0, 9.0), 3)
    where: str = "*"
    params: dict = {}
    if kind == "host_crash":
        # Crash at most one machine of a tier: crashing a whole tier is
        # an outage, not a release-robustness scenario.
        where = rng.choice(("edge-proxy-0", "origin-proxy-0",
                            "appserver-0", "appserver-1"))
    elif kind == "slow_host":
        where = rng.choice(_MACHINE_WHERE)
        params = {"speed_factor": rng.choice((0.1, 0.25, 0.5))}
    elif kind == "link_degradation":
        where = rng.choice(_LINK_WHERE)
        params = {"latency_multiplier": rng.choice((3.0, 5.0, 10.0)),
                  "extra_loss": rng.choice((0.0, 0.02, 0.05))}
    elif kind == "wan_partition":
        where = rng.choice(_LINK_WHERE)
    elif kind == "hc_flap":
        where = rng.choice(("edge-proxy-*", "origin-proxy-*"))
        params = {"fail_probability": rng.choice((0.5, 0.7, 0.9))}
    elif kind in ("takeover_stall", "takeover_abort", "udp_fd_leak"):
        where = rng.choice(_PROXY_WHERE)
    elif kind in ("rogue_status", "upstream_truncate"):
        where = rng.choice(_APP_WHERE)
        params = {"fraction": rng.choice((0.1, 0.3, 0.6))}
    return {"kind": kind, "where": where, "at": at,
            "duration": duration, "params": params}


def _region_fault_entry(rng, regions: int, duration_budget: float) -> dict:
    """One region-scale fault (multi-region scenarios only)."""
    kind = rng.choice(("wan_partition", "wan_partition", "region_outage"))
    victim = rng.randint(0, regions - 1)
    if kind == "wan_partition":
        # Whole-region blackhole or just the Origin's links.
        where = rng.choice((f"r{victim}-*:*", f"r{victim}-origin:*"))
    else:
        where = f"r{victim}-*"
    return {"kind": kind, "where": where,
            "at": round(rng.uniform(2.0, max(3.0, duration_budget * 0.5)),
                        3),
            "duration": round(rng.uniform(3.0, 8.0), 3), "params": {}}


def _release_entry(rng, duration_budget: float) -> dict:
    return {"tier": rng.choice(RELEASE_TIERS),
            "at": round(rng.uniform(2.0, max(3.0, duration_budget * 0.4)), 3),
            "batch_fraction": rng.choice((0.25, 0.34, 0.5))}


def generate_scenario(seed: int, planted: Optional[str] = None) -> Scenario:
    """Derive a scenario from ``seed`` (same seed → same scenario)."""
    rng = RandomStreams(seed).stream("fuzz-scenario")
    duration = round(rng.uniform(25.0, 45.0), 3)
    scenario = Scenario(
        seed=seed,
        duration=duration,
        edge_proxies=rng.randint(2, 4),
        origin_proxies=rng.randint(1, 3),
        app_servers=rng.randint(2, 4),
        brokers=rng.randint(1, 2),
        web_clients=rng.randint(4, 10),
        mqtt_users=rng.randint(3, 8),
        quic_flows=rng.choice((0, 0, 4, 8)),
        post_fraction=round(rng.uniform(0.05, 0.25), 3),
        drain_duration=round(rng.uniform(3.0, 6.0), 3),
        edge_takeover=rng.random() < 0.85,
        lb_scheme=rng.choice(("stateless", "stateful", "lru", "concury")),
        planted=planted,
    )
    # Region-scale kinds are drawn separately below: region_outage is
    # meaningless against a single-Origin cluster, and keeping both out
    # of this menu keeps every pre-existing seed's scenario unchanged.
    kinds = sorted(FAULT_KINDS - {"wan_partition", "region_outage"})
    for _ in range(rng.randint(0, 3)):
        scenario.faults.append(
            _fault_entry(rng, rng.choice(kinds), duration))
    for _ in range(rng.randint(0, 2)):
        scenario.releases.append(_release_entry(rng, duration))
    # Half the runs modulate arrival rates with a load shape, so the
    # invariants also hold under diurnal swings / flash crowds / herds.
    scenario.load_shape = rng.choice(
        (None, None, None, "diurnal", "flash_crowd", "post_outage_herd"))
    if not scenario.faults and not scenario.releases:
        # An idle run proves nothing about the release machinery.
        scenario.releases.append(_release_entry(rng, duration))
    # Multi-region draws come LAST so every draw above — and with it
    # every pre-existing seed's scenario — is bit-identical to before.
    regions = rng.choice((1, 1, 1, 1, 2, 2, 3))
    if planted is None and regions > 1:
        # Planted code faults are calibrated against the classic
        # single-Origin cluster; keep those runs on it.
        scenario.regions = regions
        # Region-scale runs fuzz region-scale faults: the single-region
        # schedule's host globs don't name regional machines anyway.
        scenario.faults = [
            _region_fault_entry(rng, regions, duration)
            for _ in range(rng.randint(0, 2))]
    elif planted is None and rng.random() < 0.25:
        # Some single-region runs get a WAN blackhole too: partition is
        # composable with link_degradation by construction.
        scenario.faults.append(
            _fault_entry(rng, "wan_partition", duration))
    # Cohort draws come after the regions block (same LAST-draw rule):
    # every draw above is bit-identical to pre-cohort seeds.  Planted
    # faults stay on the individual-client path they were calibrated
    # against.
    if planted is None and rng.random() < 0.35:
        scenario.cohorts = {
            "fidelity": rng.choice(("auto", "auto", "aggregate")),
            "scale": rng.choice((1, 1, 2, 4)),
            "condense_per_event": rng.choice((0, 1, 2, 2)),
        }
    scenario.faults.sort(key=lambda f: f["at"])
    scenario.releases.sort(key=lambda r: r["at"])
    return scenario
