"""Cohort drivers: one per cohort, wrapping the classic populations.

A driver owns up to two *lanes*, each a real client population from
:mod:`repro.clients` (so every behaviour — Retry-After honoring, DCR
solicitations, QUIC re-establishment — is the battle-tested code, not
a parallel reimplementation):

* the **representative lane** (scope ``<pop>/c<i>``): the cohort's
  flow processes.  On the condensed rung it holds one process per
  modeled client with the *same* RNG stream names, host placement and
  spawn order as individual mode — which is why condensed runs are
  bit-identical to individual runs.  On the aggregate rung it holds K
  weighted representatives (``weight = size / K``).
* the **solo lane** (scope ``<pop>/c<i>/solo``): weight-1 flows the
  cohort condenses out when a mechanism needs per-flow fidelity.
  Created lazily on first condensation; empty on the condensed rung
  (condensation is a no-op there — parity again).

The :class:`CohortSet` is the deployment-facing bundle: the views over
every driver, and the condensation trigger — it listens on the run's
channel (:mod:`repro.run`) and condenses aggregate cohorts whenever a
mechanism window opens: a release walk (takeover/DCR/PPR windows live
inside one), a fault, a region evacuation.  ``cluster.base.Topology``
builds the drivers and starts each in its PoP's turn.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..clients.mqtt import MqttClientPopulation
from ..clients.quic import QuicClientPopulation
from ..clients.web import WebClientPopulation
from ..run import WINDOW_KINDS
from .aggregate import CohortAggregate
from .spec import CohortPolicy, CohortSpec

__all__ = ["CohortDriver", "CohortSet", "PROTOCOLS"]

#: protocol → (population class, config count field, first-id kwarg).
PROTOCOLS = {
    "web": (WebClientPopulation, "clients_per_host", "first_client_id"),
    "mqtt": (MqttClientPopulation, "users_per_host", "first_user_id"),
    "quic": (QuicClientPopulation, "flows_per_host", "first_flow_id"),
}

#: Solo-lane client IDs start far above any representative ID so the
#: two lanes on one host never share a per-client RNG stream name.
_SOLO_ID_BASE = 1_000_000
_SOLO_ID_STRIDE = 10_000


def _int_counts(snapshot: dict[str, float]) -> dict[str, int]:
    """Counter snapshots as exact integers (client counters only ever
    increment by 1, so the float values are integral by construction)."""
    return {name: int(round(value))
            for name, value in snapshot.items() if value}


class CohortDriver:
    """One cohort: a representative lane plus an optional solo lane."""

    def __init__(self, cohort: CohortSpec, policy: CohortPolicy,
                 host, vip, router, metrics, workload,
                 scope: str, first_id: int, cohort_index: int):
        self.cohort = cohort
        self.policy = policy
        self.metrics = metrics
        self.scope = scope
        self.kind = cohort.protocol
        self.fidelity = cohort.resolved_fidelity(policy)
        if self.fidelity == "condensed":
            self.spawned = cohort.size
            self.weight = 1.0
        else:
            self.spawned = cohort.representatives()
            self.weight = cohort.size / self.spawned
        cls, count_field, first_field = PROTOCOLS[cohort.protocol]
        self.population = cls(
            [host], vip, router, metrics,
            replace(workload, **{count_field: self.spawned}),
            name=scope, **{first_field: first_id})
        solo_first = _SOLO_ID_BASE + cohort_index * _SOLO_ID_STRIDE + 1

        def make_solo():
            return cls([host], vip, router, metrics,
                       replace(workload, **{count_field: 0}),
                       name=f"{scope}/solo", **{first_field: solo_first})

        self._make_solo = make_solo
        self.solo_population: Optional[object] = None
        #: The LoadController-driven multiplier; composed with the
        #: cohort's own rate_scale before reaching the lanes.
        self.rate_scale = 1.0
        self.condensed_flows = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self.population.start()
        if self.cohort.rate_scale != 1.0:
            self._push_rate_scale()

    @property
    def populations(self) -> list:
        lanes = [self.population]
        if self.solo_population is not None:
            lanes.append(self.solo_population)
        return lanes

    # -- load control (repro.ops.load drives this) -----------------------

    def set_rate_scale(self, scale: float) -> None:
        self.rate_scale = max(0.01, scale)
        self._push_rate_scale()

    def _push_rate_scale(self) -> None:
        effective = self.rate_scale * self.cohort.rate_scale
        for lane in self.populations:
            lane.set_rate_scale(effective)

    # -- condensation ----------------------------------------------------

    def condense(self, count: int) -> int:
        """Peel ``count`` weight-1 solo flows off the fluid.

        No-op on the condensed rung: every flow already runs at full
        fidelity there, and spawning extras would break parity with
        individual mode.
        """
        if self.fidelity != "aggregate" or count <= 0:
            return 0
        if self.solo_population is None:
            self.solo_population = self._make_solo()
            self._push_rate_scale()
        self.solo_population.spawn_clients(count)
        self.condensed_flows += count
        return count

    # -- accounting ------------------------------------------------------

    def aggregate(self) -> CohortAggregate:
        """Fold both lanes' raw counters into this cohort's aggregate."""
        solo = ({} if self.solo_population is None
                else _int_counts(self.solo_population.counters.snapshot()))
        return CohortAggregate(
            cohort=self.scope, size=self.cohort.size, weight=self.weight,
            rep_counts=_int_counts(self.population.counters.snapshot()),
            solo_counts=solo)

    def modeled_inflight(self) -> dict[str, float]:
        """Weighted in-flight requests (web lanes only: the balancing
        term of the weighted conservation check)."""
        out: dict[str, float] = {}
        rep_inflight = getattr(self.population, "inflight", None)
        if rep_inflight is not None:
            for kind, value in rep_inflight.items():
                out[kind] = out.get(kind, 0.0) + value * self.weight
        if self.solo_population is not None:
            for kind, value in getattr(self.solo_population, "inflight",
                                       {}).items():
                out[kind] = out.get(kind, 0.0) + value
        return out


class CohortSet:
    """Every cohort of one deployment, plus the condensation trigger."""

    def __init__(self, deployment, policy: CohortPolicy):
        self.deployment = deployment
        #: Appended to by the topology as it builds each PoP's clients.
        self.drivers: list[CohortDriver] = []
        self.policy = policy
        self.counters = deployment.metrics.scoped_counters("cohorts")

    def arm(self, drivers: list[CohortDriver]) -> None:
        """Watch for mechanism windows on behalf of ``drivers``: the
        cohorts this run animates (all, or a shard worker's own
        regions'), which the topology starts PoP by PoP.  The rest leave
        the set, so a window condenses only live fluids."""
        self.drivers = drivers
        if (self.policy.condense_per_event > 0
                and any(d.fidelity == "aggregate" for d in self.drivers)):
            self.deployment.run_record.subscribe(self._on_announce)

    # -- views -----------------------------------------------------------

    def drivers_of(self, kind: str) -> list[CohortDriver]:
        return [d for d in self.drivers if d.kind == kind]

    def populations(self, kind: Optional[str] = None) -> list:
        return [lane for driver in self.drivers
                if kind is None or driver.kind == kind
                for lane in driver.populations]

    # -- condensation trigger --------------------------------------------

    def _on_announce(self, name: str, **_fields) -> None:
        """A mechanism window opens in our run: condense."""
        kind, _, edge = name.rpartition("_")
        if edge == "begin" and kind in WINDOW_KINDS:
            self.condense()

    def condense(self) -> None:
        """A mechanism window opens: every aggregate cohort peels
        ``condense_per_event`` weight-1 flows off its fluid."""
        condensed = 0
        for driver in self.drivers:
            condensed += driver.condense(self.policy.condense_per_event)
        if condensed:
            self.counters.inc("condensations")
            self.counters.inc("condensed_flows", amount=condensed)
