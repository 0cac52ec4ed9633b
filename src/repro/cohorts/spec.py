"""Cohort specs, the fidelity ladder, and cohort compilation.

A :class:`CohortSpec` describes one homogeneous client population slice
(size, protocol, per-cohort rate scale); a :class:`CohortPolicy` is the
deployment-wide knob that compiles the classic per-host workloads into
cohorts and decides where each one sits on the fidelity ladder:

* ``individual`` — no cohort layer at all: one ``SimProcess`` per
  client, the historical behaviour (``cohorts=None``).
* ``condensed`` — the cohort layer is on, but every modeled client is
  still driven by its own flow process, grouped under per-cohort
  counter scopes.  Byte-for-byte the same traffic as individual mode
  (same RNG streams, same spawn order) — this rung is what the
  differential suite in ``tests/cohorts`` proves, and what ``auto``
  picks for small cohorts.
* ``aggregate`` — the fluid rung: a cohort of M modeled clients runs
  K weighted representatives (``weight = M / K``), condensing to
  weight-1 solo flows only when a mechanism needs per-flow fidelity
  (a release's takeover/DCR/PPR window — see
  :class:`repro.cohorts.drivers.CohortSet`).

``auto`` resolves per cohort: condensed below :data:`CONDENSE_BELOW`
modeled clients, aggregate at or above it — so small runs keep exact
per-flow fidelity by default and only genuinely large cohorts go fluid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["COHORT_FIDELITIES", "CohortPolicy", "CohortSpec",
           "compile_cohorts"]

#: The fidelity ladder, cheapest first ("individual" is spelled
#: ``cohorts=None`` on the deployment spec, so it never appears here).
COHORT_FIDELITIES = ("auto", "condensed", "aggregate")

#: ``auto`` threshold: cohorts strictly smaller stay condensed.
CONDENSE_BELOW = 256
#: Aggregate rung: modeled flows one representative stands for.
FLOWS_PER_REPRESENTATIVE = 50
#: Aggregate rung: floor on representatives per cohort, so tiny cohorts
#: still sample more than one flow.
MIN_REPRESENTATIVES = 4


@dataclass(frozen=True)
class CohortPolicy:
    """Deployment-wide cohort configuration (the ``--cohorts`` knob)."""

    #: Ladder rung for every cohort: ``auto`` picks per cohort size.
    fidelity: str = "auto"
    #: Client-count multiplier — the 100× knob.  Modeled cohort size is
    #: the workload's per-host count times this.
    scale: int = 1
    #: Solo flows each aggregate cohort condenses out per release
    #: event (takeover/DCR/PPR live inside release windows); 0 disables
    #: event-driven condensation.
    condense_per_event: int = 2

    def validate(self) -> None:
        if self.fidelity not in COHORT_FIDELITIES:
            raise ValueError(f"unknown cohort fidelity {self.fidelity!r}; "
                             f"available: {COHORT_FIDELITIES}")
        if self.scale < 1:
            raise ValueError("cohort scale must be >= 1")
        if self.condense_per_event < 0:
            raise ValueError("condense_per_event must be >= 0")

    # -- serialization (fuzz scenarios embed policies as plain dicts) ----

    @classmethod
    def from_dict(cls, data: dict) -> "CohortPolicy":
        policy = cls(**data)
        policy.validate()
        return policy


@dataclass(frozen=True)
class CohortSpec:
    """One homogeneous client cohort."""

    name: str
    #: Client protocol: ``web`` | ``mqtt`` | ``quic``.
    protocol: str
    #: Modeled clients this cohort stands for.
    size: int
    #: Per-cohort arrival-rate multiplier, composed with whatever the
    #: :class:`repro.ops.load.LoadController` pushes at run time.
    rate_scale: float = 1.0

    def resolved_fidelity(self, policy: CohortPolicy) -> str:
        """Where this cohort sits on the ladder under ``policy``."""
        if policy.fidelity != "auto":
            return policy.fidelity
        return "condensed" if self.size < CONDENSE_BELOW else "aggregate"

    def representatives(self) -> int:
        """Flow processes the aggregate rung runs for this cohort."""
        reps = max(MIN_REPRESENTATIVES,
                   math.ceil(self.size / FLOWS_PER_REPRESENTATIVE))
        return min(self.size, reps)


def compile_cohorts(policy: CohortPolicy, protocol: str,
                    per_host_count: int, host_count: int) -> list[CohortSpec]:
    """Compile a classic per-host workload into per-host cohorts.

    One cohort per client host, sized ``per_host_count * policy.scale``
    — the per-host split matters because condensed cohorts must
    reproduce the individual spawn order (host-major) exactly.
    """
    size = per_host_count * policy.scale
    return [CohortSpec(name=f"c{i}", protocol=protocol, size=size)
            for i in range(host_count) if size > 0]
