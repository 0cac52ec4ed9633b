"""Edge → Origin HTTP/2 connection management.

Each Edge Proxygen keeps a long-lived HTTP/2 connection toward the
Origin (§2.2) over which user requests and MQTT tunnels are multiplexed.
When the Origin side drains it sends GOAWAY; the pool then dials a new
connection (routed by the Origin's L4LB) for new streams while in-flight
streams finish on the old one — the disruption-free path of §4.1.

With the resilience plane attached, redials run through the shared
retry budget and jittered backoff policy instead of a bare zero-delay
:data:`DIAL_RETRIES` loop, and each Origin backend sits behind a circuit
breaker so a dead/refusing backend is not re-dialled on every stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..netsim.addresses import Endpoint, FourTuple, Protocol
from ..netsim.errors import ConnectionRefusedSim
from ..netsim.proc_utils import TIMED_OUT
from ..protocols.http2 import GoAwayError, H2Connection, H2Error, H2Stream

if TYPE_CHECKING:  # pragma: no cover
    from ..resilience.plane import ResiliencePlane
    from .instance import ProxygenInstance

__all__ = ["UpstreamPool", "UpstreamUnavailable"]

#: Timeout on the Edge→Origin TCP dial itself.  A blackholed backend
#: (WAN partition, dead region) never refuses — without this bound the
#: dial would hang forever and the cross-region fallback tier could
#: never kick in.
DIAL_TIMEOUT = 5.0
#: Immediate redials after a refused dial, without the resilience plane.
DIAL_RETRIES = 3


class UpstreamUnavailable(Exception):
    """No Origin backend reachable right now."""


class UpstreamPool:
    """Holds the current Edge→Origin H2 connection; redials on GOAWAY."""

    def __init__(self, instance: "ProxygenInstance",
                 origin_vip: Endpoint,
                 origin_router: Callable[[FourTuple], Optional[str]],
                 resilience: Optional["ResiliencePlane"] = None):
        # Not the instance itself: that would hold it in a cycle.
        self.host = instance.host
        self.process = instance.process
        self.counters = instance.counters
        self.origin_vip = origin_vip
        self.origin_router = origin_router
        self.resilience = resilience
        self.current: Optional[H2Connection] = None
        self.dials = 0

    def _usable(self, conn: Optional[H2Connection]) -> bool:
        return (conn is not None and conn.alive
                and not conn.goaway_received)

    def open_stream(self):
        """Generator: a fresh stream on a usable upstream connection.

        Raises :class:`UpstreamUnavailable` after exhausting retries.
        """
        plane = self.resilience
        if plane is not None:
            plane.note_request()
        for attempt in range(DIAL_RETRIES + 1):
            if attempt > 0 and plane is not None:
                # Re-dials are retries: pay the shared budget and back
                # off with jitter instead of hammering the Origin VIP.
                if not plane.spend_retry():
                    break
                yield from plane.backoff_wait(attempt)
            if not self._usable(self.current):
                yield from self._dial()
                if self.current is None:
                    continue
            try:
                return self.current.open_stream()
            except (GoAwayError, H2Error):
                self.current = None
        raise UpstreamUnavailable("could not reach any Origin proxy")

    def _dial(self):
        host, counters = self.host, self.counters
        plane = self.resilience
        # Route the new connection through the Origin's L4LB, exactly as
        # a fresh flow would be.
        probe_flow = FourTuple(
            Protocol.TCP,
            Endpoint(host.ip, host.kernel.ephemeral_port()),
            self.origin_vip)
        backend_ip = self.origin_router(probe_flow)
        if backend_ip is None:
            counters.inc("upstream_dial_attempt", tag="no_route")
            self.current = None
            return
        breaker = None
        if plane is not None:
            breaker = plane.breakers.get(f"origin:{backend_ip}")
            if not breaker.allow():
                counters.inc("upstream_dial_attempt", tag="breaker_open")
                self.current = None
                return
        try:
            outcome = yield from host.kernel.tcp_connect_within(
                self.process, self.origin_vip, DIAL_TIMEOUT,
                via_ip=backend_ip)
        except ConnectionRefusedSim:
            counters.inc("upstream_dial_refused")
            counters.inc("upstream_dial_attempt", tag="refused")
            if breaker is not None:
                breaker.record_failure()
            self.current = None
            return
        if outcome is TIMED_OUT:
            # Blackholed backend (WAN partition, dead region): give up
            # on this dial.
            counters.inc("upstream_dial_attempt", tag="timeout")
            if breaker is not None:
                breaker.record_failure()
            self.current = None
            return
        endpoint = outcome
        self.dials += 1
        if breaker is not None:
            breaker.record_success()
        conn = H2Connection(endpoint, role="client")
        conn.start(self.process)
        self.current = conn
        counters.inc("upstream_dialed")
        counters.inc("upstream_dial_attempt", tag="ok")
