"""Multi-region topology: N Origin DCs with Edge PoPs, anycast failover.

The paper's Fig. 1 fleet is hundreds of Edge PoPs funneling into tens of
Origin datacenters.  This package generalizes the single-Origin cluster
into N *regions* — each with its own Origin DC (Katran + Proxygen + app
pool + MQTT broker) and attached Edge PoPs — connected by a WAN
latency matrix, with:

* an anycast map: every region announces the same edge VIP; each
  client's resolver tracks per-region health and re-resolves to the
  next-nearest healthy region when its home stops answering;
* a cross-region Edge→Origin fallback tier, so an Edge PoP orphaned by
  its Origin degrades gracefully instead of hard-failing;
* live region evacuation: MQTT sessions re-home across regions via DCR,
  web traffic drains through the normal drain machinery.
"""

from .anycast import AnycastResolver, RegionTarget
from .evacuate import EvacuationReport, evacuate_region, release_all_pops
from .routing import FallbackOriginRouter
from .spec import RegionalSpec
from .topology import Region, RegionPoP, RegionalDeployment

__all__ = [
    "AnycastResolver",
    "EvacuationReport",
    "FallbackOriginRouter",
    "Region",
    "RegionPoP",
    "RegionTarget",
    "RegionalDeployment",
    "RegionalSpec",
    "evacuate_region",
    "release_all_pops",
]
