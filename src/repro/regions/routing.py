"""Edge→Origin routing with a cross-region fallback tier.

Each region's Edge PoPs normally dial their own Origin's L4LB.  When the
home Origin's L4LB has no healthy backend left (dead, partitioned,
evacuated), the Edge would otherwise hard-fail every request — the
fallback router instead routes new upstream connections to the
next-nearest region's Origin.

The router implements the same ``flow → backend ip`` callable protocol
as a bare Katran route.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..netsim.addresses import FourTuple

__all__ = ["FallbackOriginRouter"]


class _Tier:
    def __init__(self, region_name: str, router: Callable):
        self.region_name = region_name
        self.router = router


class FallbackOriginRouter:
    """Home-Origin-first router with cross-region spill."""

    def __init__(self, counters, failover: bool = True):
        self.counters = counters
        self.failover = failover
        #: Home first, then alternates ordered by WAN distance.
        self.tiers: list[_Tier] = []

    def add_tier(self, region_name: str, router: Callable) -> None:
        self.tiers.append(_Tier(region_name, router))

    @property
    def home(self) -> Optional[_Tier]:
        return self.tiers[0] if self.tiers else None

    # -- routing -----------------------------------------------------------

    def route(self, flow: FourTuple) -> Optional[str]:
        home = self.home
        if home is None:
            return None
        backend_ip = home.router(flow)
        if backend_ip is not None:
            return backend_ip
        if not self.failover:
            return None
        for tier in self.tiers[1:]:
            backend_ip = tier.router(flow)
            if backend_ip is not None:
                self.counters.inc("origin_fallback",
                                  tag=tier.region_name)
                return backend_ip
        return None

    def __call__(self, flow: FourTuple) -> Optional[str]:
        return self.route(flow)
