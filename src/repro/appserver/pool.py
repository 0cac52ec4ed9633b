"""App-server pool view and upstream connection pooling for the Origin.

The Origin Proxygen health-checks and load-balances across the HHVM
fleet; this module provides (a) the pool membership/pick logic —
optionally backed by a passive-health :class:`OutlierTracker` so slow or
erroring backends are ejected from rotation instead of rediscovered per
request — and (b) a small keep-alive connection pool so the proxy does
not pay a TCP handshake per forwarded request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..netsim.errors import ConnectionRefusedSim
from ..netsim.host import Host
from ..netsim.process import SimProcess
from ..netsim.sockets import TcpEndpoint
from .hhvm import AppServer

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.counters import CounterSet
    from ..resilience.health import OutlierTracker

__all__ = ["AppServerPool", "UpstreamConnectionPool"]

#: Idle keep-alive connections a proxy process holds per upstream; a
#: connection checked in past the cap is closed.
MAX_IDLE_PER_DEST = 8


class AppServerPool:
    """Membership + pick logic over the app-server fleet.

    ``pick`` keeps a stable round-robin cursor over the *full*
    membership list (not the per-call filtered view), so exclusions and
    health changes never shift the rotation: each pick starts where the
    previous one left off and walks forward to the first eligible
    server.
    """

    def __init__(self):
        self.servers: list[AppServer] = []
        self._rr = 0
        self.health: Optional["OutlierTracker"] = None

    def add(self, server: AppServer) -> None:
        self.servers.append(server)

    def remove(self, server: AppServer) -> bool:
        """Drop ``server`` from membership (autoscaler scale-in).

        The round-robin cursor is clamped so the rotation resumes at the
        same neighbourhood instead of skipping over survivors.
        """
        try:
            index = self.servers.index(server)
        except ValueError:
            return False
        del self.servers[index]
        if self._rr > index:
            self._rr -= 1
        return True

    def attach_health(self, tracker: "OutlierTracker") -> None:
        """Enable passive health tracking / outlier ejection."""
        self.health = tracker
        tracker.membership = lambda: len(self.servers)

    def _eligible(self, server: AppServer,
                  exclude: tuple[str, ...]) -> bool:
        if not server.accepting or server.host.ip in exclude:
            return False
        return self.health is None \
            or not self.health.is_ejected(server.host.ip)

    def healthy(self) -> list[AppServer]:
        """Servers currently in rotation (accepting and — with health
        tracking attached — not ejected as outliers)."""
        return [s for s in self.servers if self._eligible(s, ())]

    def pick(self, exclude: tuple[str, ...] = ()) -> Optional[AppServer]:
        """Round-robin over eligible servers, skipping ``exclude``."""
        count = len(self.servers)
        if count == 0:
            return None
        start = self._rr % count
        for offset in range(count):
            index = (start + offset) % count
            server = self.servers[index]
            if self._eligible(server, exclude):
                self._rr = index + 1
                return server
        if self.health is not None:
            # Panic mode: everything in rotation is ejected — serving a
            # possibly-bad backend beats serving nobody (the tracker's
            # MAX_EJECTED_FRACTION makes this rare).
            for offset in range(count):
                index = (start + offset) % count
                server = self.servers[index]
                if server.accepting and server.host.ip not in exclude:
                    self._rr = index + 1
                    self.health.note_panic_pick()
                    return server
        return None

    # -- passive health forwarding ---------------------------------------

    def record_success(self, ip: str,
                       latency: Optional[float] = None) -> None:
        if self.health is not None:
            self.health.record_success(ip, latency)

    def record_failure(self, ip: str) -> None:
        if self.health is not None:
            self.health.record_failure(ip)


class UpstreamConnectionPool:
    """Keep-alive TCP connections from one proxy process to upstreams.

    ``checkout`` hands an idle connection to the destination or dials a
    new one; ``checkin`` returns it for reuse.  Dead connections are
    discarded on checkout — but a peer that closed *after* check-in may
    still look alive here (its FIN/RST has not arrived yet), so every
    checked-out connection carries a ``pool_reused`` flag
    and callers discard-and-redial via :meth:`note_stale_reuse` +
    :meth:`checkout_fresh` on the first write error instead of failing
    the backend over.
    """

    def __init__(self, host: Host, process: SimProcess,
                 counters: "CounterSet"):
        self.host = host
        self.process = process
        #: Its owner's counters, which outlive the process: they count
        #: ``idle_discarded``, reused connections dead on first use.
        self.counters = counters
        self._idle: dict[tuple[str, int], list[TcpEndpoint]] = {}
        self.dials = 0
        self.reuses = 0

    def checkout(self, ip: str, port: int):
        """Generator: yields a live TcpEndpoint to (ip, port).

        Raises :class:`ConnectionRefusedSim` if the destination refuses.
        """
        key = (ip, port)
        idle = self._idle.get(key, [])
        while idle:
            conn = idle.pop()
            if conn.alive and not conn.fin_received:
                self.reuses += 1
                conn.pool_reused = True
                return conn
        return (yield from self.checkout_fresh(ip, port))

    def checkout_fresh(self, ip: str, port: int):
        """Generator: always dial a new connection (never reuse idle)."""
        from ..netsim.addresses import Endpoint
        conn = yield self.host.kernel.tcp_connect(
            self.process, Endpoint(ip, port))
        self.dials += 1
        conn.pool_reused = False
        return conn

    @staticmethod
    def was_reused(conn: TcpEndpoint) -> bool:
        return conn.pool_reused

    def note_stale_reuse(self, conn: TcpEndpoint) -> None:
        """A reused connection died on first use: count and bury it."""
        self.counters.inc("idle_discarded")
        if conn.alive:
            conn.abort(reason="stale_idle")

    def checkin(self, conn: TcpEndpoint) -> None:
        """Return a connection for reuse (closes it if over the cap)."""
        if not conn.alive or conn.fin_received:
            return
        key = (conn.remote.ip, conn.remote.port)
        bucket = self._idle.setdefault(key, [])
        if len(bucket) >= MAX_IDLE_PER_DEST:
            conn.close()
            return
        bucket.append(conn)
