"""Links and message delivery between hosts.

The network charges each transmission a delay drawn from the
:class:`LinkProfile` between the two hosts' *sites* — client ↔ Edge PoP
over the WAN, Edge ↔ Origin over the backbone, intra-datacenter, or
loopback.  Optional bandwidth terms charge serialization delay for big
transfers (POST bodies), and optional loss supports failure injection.

Fault injection layers *overrides* on top of the configured profiles
(:meth:`Network.push_link_override`): each override is a pure transform
of the profile below it, so overlapping fault windows compose and each
clear peels off exactly its own layer — the base profile object is
restored bit-identically once the last override pops.

Routes are resolved per host pair, not per send.  What a transmission
needs beyond its message — the destination :class:`Host`, the effective
profile's terms and the jitter/loss rng — depends only on the source
host, the destination IP and ``_profiles``, so :meth:`Network.transmit`
memoizes it in the source host's ``routes`` (destination IP → route).
Only :meth:`Network.add_profile` and :meth:`Network._rebuild_link`
(every override push and pop) write ``_profiles``; each moves
:attr:`Network.version` and empties every host's memo, so the next send
on a pair re-resolves it.  An unknown destination is not memoized (the
host may register later).  Every delivery still enters through
``transmit``, the one place a delay is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..metrics.counters import CounterSet
from ..simkernel.core import Environment
from ..simkernel.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host

__all__ = ["LinkProfile", "Network", "WAN_CLIENT_EDGE", "EDGE_ORIGIN",
           "INTRA_DC", "LOOPBACK"]


@dataclass(frozen=True)
class LinkProfile:
    """Latency/bandwidth/loss of one site-to-site link class.

    ``latency`` is one-way propagation (seconds); ``jitter`` adds a
    uniform [0, jitter) term per message; ``bandwidth`` (bytes/s) adds
    ``size / bandwidth``; ``loss`` drops messages with that probability.
    """

    latency: float
    jitter: float = 0.0
    bandwidth: Optional[float] = None
    loss: float = 0.0


# Default link classes, loosely calibrated to the paper's setting: users
# reach an Edge PoP over last-mile WAN (tens of ms), Edge PoPs reach the
# Origin datacenter over the backbone, and datacenter fabric is fast.
WAN_CLIENT_EDGE = LinkProfile(latency=0.040, jitter=0.020, bandwidth=2.5e6)
EDGE_ORIGIN = LinkProfile(latency=0.030, jitter=0.005, bandwidth=1.25e9)
INTRA_DC = LinkProfile(latency=0.00025, jitter=0.0001, bandwidth=1.25e9)
LOOPBACK = LinkProfile(latency=0.00002)


class Network:
    """Registry of hosts plus site-pair link profiles."""

    def __init__(self, env: Environment, streams: RandomStreams,
                 default_profile: LinkProfile = INTRA_DC,
                 metrics=None, partition_rng: bool = False):
        self.env = env
        self.rng = streams.stream("network")
        #: Per-source-site jitter/loss streams (repro.shard): draws stop
        #: depending on how *other* sites' transmissions interleave, so
        #: a region simulated alone rolls the same sequence it would in
        #: a combined run.  None (default) keeps the shared stream.
        self._site_rngs: Optional[dict] = {} if partition_rng else None
        self._streams = streams
        self.default_profile = default_profile
        self.local_profile = LOOPBACK
        self._hosts: dict[str, "Host"] = {}
        self._profiles: dict[tuple[str, str], LinkProfile] = {}
        #: Total drops (kept as a bare int for the hot path / old callers);
        #: ``drop_counters`` carries the same events tagged by site pair
        #: ("src:dst") and by cause ("loss" / "unknown_destination").
        self.dropped = 0
        self.drop_counters: CounterSet = (
            metrics.scoped_counters("net") if metrics is not None
            else CounterSet())
        # Link-override stacks (fault injection): pair -> base profile
        # captured once, plus the ordered transforms layered on top.
        self._link_base: dict[tuple[str, str],
                              tuple[bool, Optional[LinkProfile]]] = {}
        self._link_overrides: dict[tuple[str, str],
                                   list[tuple[int, Callable]]] = {}
        self._override_serial = 0
        #: Moves whenever ``_profiles`` is written (every memoized
        #: route is dropped then).
        self.version = 0

    # -- topology ------------------------------------------------------------

    def register(self, host: "Host") -> None:
        if host.ip in self._hosts:
            raise ValueError(f"duplicate host ip {host.ip}")
        self._hosts[host.ip] = host

    def host(self, ip: str) -> Optional["Host"]:
        return self._hosts.get(ip)

    def hosts(self) -> list["Host"]:
        return list(self._hosts.values())

    def sites(self) -> list[str]:
        """Every distinct site with at least one registered host."""
        return sorted({h.site for h in self._hosts.values()})

    def add_profile(self, src_site: str, dst_site: str,
                    profile: LinkProfile) -> None:
        """``profile`` for traffic between the two sites, both ways."""
        pairs = [(src_site, dst_site)]
        if dst_site != src_site:
            pairs.append((dst_site, src_site))
        for pair in pairs:
            if pair in self._link_overrides:
                # A fault window is active on this pair: the new profile
                # becomes the *base* underneath the active overrides.
                self._link_base[pair] = (True, profile)
                self._rebuild_link(pair)
            else:
                self._profiles[pair] = profile
                self._profiles_changed()

    def get_profile(self, src_site: str, dst_site: str) -> LinkProfile:
        """The *effective* profile a transmission between these sites
        would use right now (overrides included)."""
        return self._profiles.get((src_site, dst_site),
                                  self.default_profile)

    # -- link overrides (fault injection) -------------------------------------

    def push_link_override(self, src_site: str, dst_site: str,
                           transform: Callable[[LinkProfile], LinkProfile],
                           symmetric: bool = True) -> int:
        """Layer ``transform`` onto the link(s); returns a pop token.

        Overrides stack: the effective profile is the base with every
        active transform applied in push order.  Popping any token
        recomputes the remainder, so overlapping fault windows never
        stomp each other's snapshot of "original".
        """
        self._override_serial += 1
        token = self._override_serial
        self._push_one((src_site, dst_site), token, transform)
        if symmetric and dst_site != src_site:
            self._push_one((dst_site, src_site), token, transform)
        return token

    def pop_link_override(self, token: int) -> None:
        """Remove the override(s) pushed under ``token``."""
        pairs = [pair for pair, stack in self._link_overrides.items()
                 if any(t == token for t, _ in stack)]
        for pair in pairs:
            self._link_overrides[pair] = [
                (t, f) for t, f in self._link_overrides[pair] if t != token]
            self._rebuild_link(pair)

    def _push_one(self, pair: tuple[str, str], token: int,
                  transform: Callable) -> None:
        if pair not in self._link_overrides:
            self._link_base[pair] = (pair in self._profiles,
                                     self._profiles.get(pair))
            self._link_overrides[pair] = []
        self._link_overrides[pair].append((token, transform))
        self._rebuild_link(pair)

    def _rebuild_link(self, pair: tuple[str, str]) -> None:
        self._profiles_changed()
        had_entry, base = self._link_base[pair]
        stack = self._link_overrides[pair]
        if not stack:
            # Last override gone: restore the exact base object.
            del self._link_overrides[pair]
            del self._link_base[pair]
            if had_entry:
                self._profiles[pair] = base
            else:
                self._profiles.pop(pair, None)
            return
        profile = base if had_entry else self.default_profile
        for _, transform in stack:
            profile = transform(profile)
        self._profiles[pair] = profile

    def _profiles_changed(self) -> None:
        self.version += 1
        for host in self._hosts.values():
            host.routes.clear()

    # -- delivery -------------------------------------------------------------

    def _drop(self, src: "Host", dst: Optional["Host"], cause: str) -> None:
        self.dropped += 1
        dst_site = dst.site if dst is not None else "?"
        self.drop_counters.inc("dropped", tag=f"{src.site}:{dst_site}")
        self.drop_counters.inc("dropped_cause", tag=cause)

    def _route(self, src: "Host", dst_ip: str) -> Optional[tuple]:
        """Resolve and memoize the route from ``src`` to ``dst_ip``:
        ``(dst, latency, jitter, bandwidth, loss, rng)``, or None for an
        unknown destination (not memoized)."""
        dst = self._hosts.get(dst_ip)
        if dst is None:
            return None
        if src is dst:
            profile = self.local_profile
        else:
            profile = self._profiles.get((src.site, dst.site),
                                         self.default_profile)
        site_rngs = self._site_rngs
        if site_rngs is None:
            rng = self.rng
        else:
            rng = site_rngs.get(src.site)
            if rng is None:
                rng = site_rngs[src.site] = self._streams.stream(
                    f"net/{src.site}")
        route = src.routes[dst_ip] = (dst, profile.latency, profile.jitter,
                                      profile.bandwidth, profile.loss, rng)
        return route

    def transmit(self, src: "Host", dst_ip: str,
                 receiver: Callable[[Any], None], item: Any,
                 size: int = 100, not_before: float = 0.0) -> float:
        """Hand ``item`` to ``receiver`` after the link delay (or drop it).

        The delivery is one call entry (``env.call_later``): one event,
        at the key its timeout had, and the run loop calls
        ``receiver(item)``.  The route comes from ``src.routes``
        (resolved once per destination IP until :attr:`version` moves,
        see the module docstring); only the draws and the arithmetic
        below are per message.

        ``not_before`` floors the arrival time — stream transports use it
        to keep per-connection delivery in order (a small message sent
        after a large one must not overtake it).  Returns the arrival
        time (even for drops, so callers can keep their ordering clock).
        """
        now = self.env._now
        route = src.routes.get(dst_ip) or self._route(src, dst_ip)
        if route is None:
            self._drop(src, None, "unknown_destination")
            return max(now, not_before)
        dst, delay, jitter, bandwidth, loss, rng = route
        # The rng draw order (jitter before the loss roll) must stay
        # as it is, or seeded runs diverge.
        if jitter > 0:
            # ``rng.uniform(0.0, jitter)`` bit for bit (it computes
            # ``0.0 + (jitter - 0.0) * random()``), minus its frame.
            delay += jitter * rng.random()
        if bandwidth:
            delay += size / bandwidth
        arrival = now + delay
        if arrival < not_before:
            arrival = not_before
        if loss > 0 and rng.random() < loss:
            self._drop(src, dst, "loss")
            return arrival
        self.env.call_later(arrival - now, receiver, item)
        return arrival
