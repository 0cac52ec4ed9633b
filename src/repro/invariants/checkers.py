"""The concrete invariant checkers.

Each checker encodes one correctness claim as a *true invariant*: it
must hold even while faults from :mod:`repro.faults` are active — that
is the whole point of fuzzing the fault space.  Where a fault
legitimately excuses a condition (a crashed machine is allowed to serve
nothing), the checker consults the deployment's fault records instead of
silently weakening the claim.
"""

from __future__ import annotations

from typing import Optional

from ..cohorts.aggregate import expand, fold, modeled
from .base import InvariantChecker

__all__ = ["CHECKERS", "default_checkers", "make_checkers",
           "FdConservationChecker", "ReuseportStabilityChecker",
           "RequestConservationChecker", "PprExactlyOnceChecker",
           "MqttContinuityChecker", "CapacityFloorChecker",
           "DrainMonotonicityChecker", "BudgetSanityChecker",
           "LbRoutingGuaranteeChecker", "AutoscalerDisciplineChecker",
           "EvacuationCompletenessChecker",
           "CrossRegionContinuityChecker",
           "CohortConservationChecker"]


class FdConservationChecker(InvariantChecker):
    """§4.1/§5.1: no leaked ``FileDescription`` references.

    At every quiescent point, each open-file-description's refcount must
    equal the number of file-table entries live processes hold for it,
    and every kernel-registered socket must be reachable from some live
    process.  During a takeover handshake FDs legitimately ride a UNIX
    channel as in-flight references, so hosts with a handshake in
    progress are skipped until it ends.
    """

    name = "fd-conservation"

    def __init__(self) -> None:
        super().__init__()
        self._in_takeover: set[str] = set()

    def on_event(self, event: str, **fields) -> None:
        if event == "takeover_begin":
            self._in_takeover.add(fields["server"].host.name)
        elif event == "takeover_end":
            host = fields["server"].host
            self._in_takeover.discard(host.name)
            if fields.get("ok"):
                self.check_host(host)

    def sample(self) -> None:
        self._check_all()

    def finalize(self) -> None:
        self._check_all()

    def _check_all(self) -> None:
        for host in self.deployment.network.hosts():
            if host.name not in self._in_takeover:
                self.check_host(host)

    def check_host(self, host) -> None:
        refs: dict[int, int] = {}
        descriptions: dict[int, object] = {}
        for process in host.live_processes():
            for description in process.fd_table.snapshot().values():
                key = id(description)
                refs[key] = refs.get(key, 0) + 1
                descriptions[key] = description
        for key, count in refs.items():
            description = descriptions[key]
            if description.refcount != count:
                self.violation(
                    f"host {host.name}: open-file-description has "
                    f"refcount {description.refcount} but {count} live "
                    f"table references",
                    host=host.name, refcount=description.refcount,
                    table_refs=count,
                    resource=repr(description.resource))
        reachable = {id(d.resource) for d in descriptions.values()}
        for listener in host.kernel.tcp_listeners.values():
            if not listener.closed and id(listener) not in reachable:
                self.violation(
                    f"host {host.name}: TCP listener on "
                    f"{listener.endpoint} is kernel-bound but no live "
                    f"process references it",
                    host=host.name, endpoint=str(listener.endpoint))
        for endpoint, group in host.kernel.udp_groups.items():
            for sock in group.sockets:
                if not sock.closed and id(sock) not in reachable:
                    self.violation(
                        f"host {host.name}: UDP socket on {endpoint} is "
                        f"in the reuseport ring but no live process "
                        f"references it",
                        host=host.name, endpoint=str(endpoint))


class ReuseportStabilityChecker(InvariantChecker):
    """§4.1: passing UDP FDs keeps the SO_REUSEPORT ring stable.

    The new generation serves the *same* sockets (their FDs are passed),
    so the kernel ring must not churn across a completed takeover —
    churn is exactly what misroutes QUIC flows in the Fig 2d ablation.
    """

    name = "reuseport-stability"

    def __init__(self) -> None:
        super().__init__()
        #: server name → {endpoint: ring version at takeover start}.
        self._windows: dict[str, dict] = {}
        self._crashes: dict[str, float] = {}

    def on_event(self, event: str, **fields) -> None:
        if event == "takeover_begin":
            server = fields["server"]
            if not server.config.enable_takeover:
                return
            kernel = server.host.kernel
            self._windows[server.name] = {
                endpoint: group.version
                for endpoint, group in kernel.udp_groups.items()}
            self._crashes[server.name] = server.counters.get("crashes")
        elif event == "takeover_end":
            server = fields["server"]
            before = self._windows.pop(server.name, None)
            crashes_before = self._crashes.pop(server.name, None)
            if before is None or not fields.get("ok"):
                return
            if server.counters.get("crashes") != crashes_before:
                return  # the machine died mid-handover; ring churn is real
            kernel = server.host.kernel
            for endpoint, version in before.items():
                group = kernel.udp_groups.get(endpoint)
                now_version = group.version if group is not None else None
                if now_version != version:
                    self.violation(
                        f"{server.name}: reuseport ring for {endpoint} "
                        f"changed across takeover "
                        f"(version {version} -> {now_version})",
                        server=server.name, endpoint=str(endpoint),
                        before=version, after=now_version)


class RequestConservationChecker(InvariantChecker):
    """Every web request ends in exactly one terminal outcome.

    started == ok + error + shed + timeout + conn_reset + conn_closed
    (+ the send-path reset counter) + still-in-flight, per request kind.
    A missed accounting path — a request silently dropped — breaks the
    balance.
    """

    name = "request-conservation"

    _TERMINALS = ("ok", "error", "shed", "timeout", "conn_reset",
                  "conn_closed")

    def sample(self) -> None:
        self._check()

    def finalize(self) -> None:
        self._check()

    def _check(self) -> None:
        for population in self.deployment.web_populations:
            counters = population.counters
            for kind, started_name, extra in (
                    ("get", "get_started", "request_conn_reset"),
                    ("post", "posts_started", None)):
                started = counters.get(started_name)
                finished = sum(counters.get(f"{kind}_{terminal}")
                               for terminal in self._TERMINALS)
                if extra is not None:
                    finished += counters.get(extra)
                inflight = population.inflight.get(kind, 0)
                if started != finished + inflight:
                    self.violation(
                        f"{population.name}: web {kind} requests do not "
                        f"balance: started {started:g} != finished "
                        f"{finished:g} + in-flight {inflight}",
                        population=population.name, kind=kind,
                        started=started, finished=finished,
                        inflight=inflight)


class PprExactlyOnceChecker(InvariantChecker):
    """§4.3: a streaming POST body is applied server-side exactly once.

    A valid Partial Post Replay moves the upload to a healthy server
    *because* the draining one never completed it; two completions for
    the same request id mean the side effect ran twice.
    """

    name = "ppr-exactly-once"

    def __init__(self) -> None:
        super().__init__()
        self._applied: dict[int, list[str]] = {}

    def on_event(self, event: str, **fields) -> None:
        if event != "post_applied":
            return
        request_id = fields["request_id"]
        server = fields["server"]
        where = self._applied.setdefault(request_id, [])
        where.append(server.name)
        if len(where) > 1:
            self.violation(
                f"POST {request_id} applied {len(where)} times "
                f"(servers: {', '.join(where)})",
                request_id=request_id, servers=list(where))


class MqttContinuityChecker(InvariantChecker):
    """§4.2: a DCR re-home never finds its broker session gone.

    Brokers keep session context when a relay path dies
    (``_detach_paths`` nulls the path, not the session), so a
    ``ReConnect`` splice for a live tunnel must always be accepted.
    ``dcr_refused`` counts exactly the broken case.
    """

    name = "mqtt-continuity"

    def __init__(self) -> None:
        super().__init__()
        self._reported: set[str] = set()

    def sample(self) -> None:
        self._check()

    def finalize(self) -> None:
        self._check()

    def _check(self) -> None:
        for broker in self.deployment.brokers:
            if broker.name in self._reported:
                continue
            refused = broker.counters.get("dcr_refused")
            if refused > 0:
                self._reported.add(broker.name)
                self.violation(
                    f"{broker.name}: {refused:g} DCR reconnects refused "
                    f"— broker session context was dropped",
                    broker=broker.name, refused=refused)


class CapacityFloorChecker(InvariantChecker):
    """§2.3/§6.1: a rolling release never takes down more than a batch.

    While a release walks a proxy tier, the number of its targets not
    serving must stay within one batch, plus targets the release itself
    recorded as permanently failed, plus targets downed by an active
    ``host_crash`` fault.  Machines mid-takeover are excused — ZDR's
    handover window is sub-millisecond and never drops the VIP.
    """

    name = "capacity-floor"

    def __init__(self) -> None:
        super().__init__()
        self._releases: list = []
        self._in_takeover: set[str] = set()

    def on_event(self, event: str, **fields) -> None:
        if event == "release_begin":
            self._releases.append(fields["release"])
        elif event == "release_end":
            release = fields["release"]
            if release in self._releases:
                self._releases.remove(release)
        elif event == "takeover_begin":
            self._in_takeover.add(fields["server"].name)
        elif event == "takeover_end":
            self._in_takeover.discard(fields["server"].name)

    @staticmethod
    def _serving(server) -> bool:
        for instance in (server.active_instance, server.draining_instance):
            if (instance is not None and instance.alive
                    and instance.state == instance.STATE_ACTIVE):
                return True
        return False

    def _crash_excused(self, names: set[str]) -> int:
        injector = self.deployment.fault_injector
        if injector is None:
            return 0
        excused = 0
        for record in injector.records:
            if (record.spec.kind in ("host_crash", "region_outage")
                    and record.state == "active"):
                excused += sum(1 for t in record.targets if t in names)
        return excused

    def sample(self) -> None:
        proxies = {id(s): s for s in (self.deployment.edge_servers
                                      + self.deployment.origin_servers)}
        for release in self._releases:
            targets = [t for t in release.targets if id(t) in proxies]
            if not targets:
                continue
            down = [t.name for t in targets
                    if not self._serving(t)
                    and t.name not in self._in_takeover]
            names = {t.name for t in targets}
            allowance = (release.config.batches(len(release.targets))
                         + len(release.failed_targets)
                         + self._crash_excused(names))
            if len(down) > allowance:
                self.violation(
                    f"release '{release.name}': {len(down)} proxies down "
                    f"({', '.join(sorted(down))}) exceeds the batch "
                    f"allowance of {allowance}",
                    release=release.name, down=sorted(down),
                    allowance=allowance)


class DrainMonotonicityChecker(InvariantChecker):
    """A draining instance never accepts a new connection.

    Connections whose handshake raced the drain flip (queued at the same
    sim timestamp) are excused; anything accepted strictly after the
    drain began means the drain gate was skipped.
    """

    name = "drain-monotonicity"

    def on_event(self, event: str, **fields) -> None:
        if event == "proxy_accept":
            instance = fields["instance"]
            if instance.state == instance.STATE_ACTIVE:
                return
            drained_at = instance.drain_started_at
            if instance.state == instance.STATE_EXITED or (
                    drained_at is not None and self.now > drained_at):
                self.violation(
                    f"{instance.name} accepted a connection while "
                    f"{instance.state} (drain began at "
                    f"{drained_at if drained_at is not None else '?'}s)",
                    instance=instance.name, state=instance.state,
                    drain_started_at=drained_at)
        elif event == "app_accept":
            server = fields["server"]
            if server.state == server.STATE_ACTIVE:
                return
            drained_at = server.drain_started_at
            if drained_at is not None and self.now > drained_at:
                self.violation(
                    f"{server.name} accepted a connection while "
                    f"{server.state} (drain began at {drained_at}s)",
                    server=server.name, state=server.state,
                    drain_started_at=drained_at)


class BudgetSanityChecker(InvariantChecker):
    """Retries never exceed what the retry budget deposited.

    The Finagle-style token bucket guarantees
    ``spent <= floor + ratio * requests``; spending past that means a
    withdrawal bypassed the budget.  Circuit breakers must also sit in a
    legal state.
    """

    name = "retry-budget-sanity"

    _STATES = frozenset({"closed", "open", "half_open"})

    def sample(self) -> None:
        self._check()

    def finalize(self) -> None:
        self._check()

    def _check(self) -> None:
        servers = (self.deployment.edge_servers
                   + self.deployment.origin_servers)
        for server in servers:
            plane = server.resilience
            if plane is None:
                continue
            for budget in (plane.retry_budget, plane.hedge_budget):
                ceiling = budget.floor + budget.ratio * budget.requests
                if budget.spent > ceiling + 1e-9:
                    self.violation(
                        f"{server.name}: {budget.name} budget spent "
                        f"{budget.spent} tokens but only "
                        f"{ceiling:.3f} were ever available",
                        server=server.name, budget=budget.name,
                        spent=budget.spent, ceiling=ceiling)
            for key, breaker in plane.breakers.breakers.items():
                if breaker.state not in self._STATES:
                    self.violation(
                        f"{server.name}: breaker {key} in illegal state "
                        f"{breaker.state!r}",
                        server=server.name, breaker=key,
                        state=breaker.state)


class LbRoutingGuaranteeChecker(InvariantChecker):
    """Each L4LB flow router honours its scheme's structural guarantees.

    The guarantees differ by scheme (repro.lb.routers): the stateless
    router holds no per-flow state by construction; the stateful and LRU
    routers must never keep a flow pinned to a backend that left the
    pool; the LRU must respect its capacity bound; Concury's retained
    version set must stay within its cap and its head version must match
    the healthy set.  Every router knows how to audit itself
    (``FlowRouter.check_invariants``); this checker runs those audits on
    every Katran in the deployment.
    """

    name = "lb-routing-guarantee"

    def sample(self) -> None:
        self._check()

    def finalize(self) -> None:
        self._check()

    def _check(self) -> None:
        for katran in self.deployment.all_katrans():
            router = katran.router
            for message in router.check_invariants():
                self.violation(
                    f"{katran.name}: [{router.scheme}] {message}",
                    katran=katran.name, scheme=router.scheme)


class AutoscalerDisciplineChecker(InvariantChecker):
    """The autoscaler (repro.ops.autoscale) scales safely.

    Three claims: (1) scale-in never targets a machine that was not
    actively serving when nominated — retiring a draining or dead
    instance would double-drain it; (2) no decision moves a pool past
    its configured [min_size, max_size] bounds; (3) at every quiescent
    point each autoscaled pool actually sits inside those bounds (the
    capacity floor holds continuously, not just at decision time).
    A deployment with no autoscalers attached trivially satisfies all
    three.
    """

    name = "autoscaler-discipline"

    def on_event(self, event: str, **fields) -> None:
        if event == "autoscale_in":
            if fields.get("target_state") != "active":
                self.violation(
                    f"{fields['pool']}: scale-in nominated "
                    f"{getattr(fields.get('target'), 'name', '?')} in "
                    f"state {fields.get('target_state')!r} (must be "
                    f"actively serving)",
                    pool=fields["pool"],
                    target_state=fields.get("target_state"))
            if fields["size_after"] < fields["min_size"]:
                self.violation(
                    f"{fields['pool']}: scale-in below capacity floor "
                    f"({fields['size_after']} < min {fields['min_size']})",
                    pool=fields["pool"], size=fields["size_after"],
                    min_size=fields["min_size"])
        elif event == "autoscale_out":
            if fields["size_after"] > fields["max_size"]:
                self.violation(
                    f"{fields['pool']}: scale-out above bound "
                    f"({fields['size_after']} > max {fields['max_size']})",
                    pool=fields["pool"], size=fields["size_after"],
                    max_size=fields["max_size"])

    def sample(self) -> None:
        self._check_bounds()

    def finalize(self) -> None:
        self._check_bounds()

    def _check_bounds(self) -> None:
        for scaler in self.deployment.autoscalers:
            size = scaler.adapter.size()
            config = scaler.config
            if not config.min_size <= size <= config.max_size:
                self.violation(
                    f"{scaler.name}: pool size {size} outside "
                    f"[{config.min_size}, {config.max_size}]",
                    autoscaler=scaler.name, size=size,
                    min_size=config.min_size, max_size=config.max_size)


class EvacuationCompletenessChecker(InvariantChecker):
    """A finished region evacuation left nothing behind.

    After ``evacuation_end`` the region must stay empty: its brokers
    hold no sessions, no proxy instance is alive and ACTIVE, its L4LBs
    have no backends, and no Origin tunnel anywhere in the deployment
    is still spliced to one of its (departed) brokers.  Checked at the
    end event and re-checked at every quiescent point after — an
    evacuated region silently coming back to life is also a violation.
    """

    name = "evacuation-completeness"

    def __init__(self) -> None:
        super().__init__()
        self._evacuated: list = []
        self._reported: set[tuple] = set()

    def on_event(self, event: str, **fields) -> None:
        if event == "evacuation_end":
            region = fields["region"]
            self._evacuated.append(region)
            self._check_region(region)

    def sample(self) -> None:
        for region in self._evacuated:
            self._check_region(region)

    def finalize(self) -> None:
        for region in self._evacuated:
            self._check_region(region)

    def _report(self, key: tuple, message: str, **fields) -> None:
        if key in self._reported:
            return
        self._reported.add(key)
        self.violation(message, **fields)

    def _check_region(self, region) -> None:
        for broker in region.brokers:
            if broker.sessions:
                self._report(
                    ("sessions", region.name, broker.name),
                    f"evacuated {region.name}: {broker.name} still holds "
                    f"{len(broker.sessions)} session contexts",
                    region=region.name, broker=broker.name,
                    sessions=len(broker.sessions))
        for server in region.edge_servers + region.origin_servers:
            for instance in (server.active_instance,
                             server.draining_instance):
                if (instance is not None and instance.alive
                        and instance.state == instance.STATE_ACTIVE):
                    self._report(
                        ("serving", region.name, server.name),
                        f"evacuated {region.name}: {instance.name} is "
                        f"still actively serving",
                        region=region.name, instance=instance.name)
        for katran in region.katrans():
            if katran.backends:
                self._report(
                    ("backends", region.name, katran.name),
                    f"evacuated {region.name}: {katran.name} still has "
                    f"{len(katran.backends)} backends",
                    region=region.name, katran=katran.name,
                    backends=len(katran.backends))
        evacuated_ips = {host.ip for host in region.broker_hosts}
        for server in self.deployment.origin_servers:
            for instance in (server.active_instance,
                             server.draining_instance):
                if instance is None:
                    continue
                for tunnel in instance.mqtt_tunnels.values():
                    if (not tunnel.closed
                            and tunnel.broker_ip in evacuated_ips):
                        self._report(
                            ("tunnel", region.name, instance.name,
                             tunnel.user_id),
                            f"evacuated {region.name}: {instance.name} "
                            f"still tunnels user {tunnel.user_id} to a "
                            f"departed broker",
                            region=region.name, instance=instance.name,
                            user_id=tunnel.user_id)


class CrossRegionContinuityChecker(InvariantChecker):
    """§4.2 at region scale: a re-homed session survives the move.

    Every session context an evacuation transferred must, at the end of
    the run, exist on exactly one broker — and not on any of the
    brokers it was evacuated from.  A missing session means the
    hand-over dropped the user's context (their queued publishes with
    it); a duplicate means two brokers would answer the same user.
    """

    name = "cross-region-continuity"

    def __init__(self) -> None:
        super().__init__()
        #: One entry per evacuation: (region, users, source broker names).
        self._transfers: list[tuple[str, list, list]] = []

    def on_event(self, event: str, **fields) -> None:
        if event == "broker_sessions_transferred":
            self._transfers.append((fields["region"],
                                    list(fields["users"]),
                                    list(fields["source_brokers"])))

    def finalize(self) -> None:
        brokers = self.deployment.brokers
        for region, users, sources in self._transfers:
            source_set = set(sources)
            for user_id in users:
                holders = [b.name for b in brokers
                           if user_id in b.sessions]
                if len(holders) != 1:
                    self.violation(
                        f"user {user_id} transferred out of {region} is "
                        f"held by {len(holders)} brokers "
                        f"({', '.join(holders) or 'none'}) — expected "
                        f"exactly one",
                        region=region, user_id=user_id, holders=holders)
                elif holders[0] in source_set:
                    self.violation(
                        f"user {user_id} transferred out of {region} is "
                        f"back on evacuated broker {holders[0]}",
                        region=region, user_id=user_id,
                        holder=holders[0])


class CohortConservationChecker(InvariantChecker):
    """The cohort layer's accounting algebra stays exact (repro.cohorts).

    Four claims, all on the live :class:`repro.cohorts.CohortSet` (a
    deployment without one trivially passes):

    1. *Expand/fold identity* — splitting any cohort's aggregate into
       parts and folding them back reproduces it exactly (the integer
       algebra never loses a count);
    2. *Registry sum-match* — the per-protocol raw totals folded out of
       the drivers equal the metrics registry's prefix aggregation over
       the population scope, so cohort lanes are neither double-counted
       nor dropped by scope-prefix readers;
    3. *Weighted web conservation* — per web cohort, the modeled
       (weight-extrapolated) started count balances against modeled
       terminals plus modeled in-flight, the fluid-rung analogue of
       :class:`RequestConservationChecker`;
    4. *MQTT session bounds* — per MQTT cohort, session endings never
       exceed session establishments (each session ends at most once,
       as solicited or broken; keepalive expiries are a subset of
       breaks).
    """

    name = "cohort-conservation"

    _WEB_TERMINALS = ("ok", "error", "shed", "timeout", "conn_reset",
                      "conn_closed")

    def sample(self) -> None:
        self._check()

    def finalize(self) -> None:
        self._check()

    def _check(self) -> None:
        cohort_set = self.deployment.cohort_set
        if cohort_set is None:
            return
        totals: dict[str, dict[str, int]] = {}
        for driver in cohort_set.drivers:
            agg = driver.aggregate()
            self._check_roundtrip(agg)
            merged = totals.setdefault(driver.kind, {})
            for counts in (agg.rep_counts, agg.solo_counts):
                for counter, value in counts.items():
                    merged[counter] = merged.get(counter, 0) + value
            if driver.kind == "web":
                self._check_web(driver, agg)
            elif driver.kind == "mqtt":
                self._check_mqtt(driver, agg)
        metrics = self.deployment.metrics
        for kind, merged in totals.items():
            prefix = f"{kind}-clients"
            for counter, value in merged.items():
                registry = metrics.aggregate(counter, scope_prefix=prefix)
                if abs(registry - value) > 1e-9:
                    self.violation(
                        f"cohort sum-match broken: {kind} cohorts fold "
                        f"{counter} to {value} but the registry "
                        f"aggregates {registry:g} under '{prefix}'",
                        kind=kind, counter=counter, folded=value,
                        registry=registry)

    def _check_roundtrip(self, agg) -> None:
        for parts in (1, 3):
            if fold(expand(agg, parts)) != agg:
                self.violation(
                    f"{agg.cohort}: fold(expand(agg, {parts})) is not "
                    f"the identity",
                    cohort=agg.cohort, parts=parts)
                return

    def _check_web(self, driver, agg) -> None:
        weighted = modeled(agg)
        inflight = driver.modeled_inflight()
        for kind, started_name, extra in (
                ("get", "get_started", "request_conn_reset"),
                ("post", "posts_started", None)):
            started = weighted.get(started_name, 0.0)
            finished = sum(weighted.get(f"{kind}_{terminal}", 0.0)
                           for terminal in self._WEB_TERMINALS)
            if extra is not None:
                finished += weighted.get(extra, 0.0)
            pending = inflight.get(kind, 0.0)
            if abs(started - finished - pending) > 1e-6 * max(1.0, started):
                self.violation(
                    f"{agg.cohort}: modeled web {kind} requests do not "
                    f"balance: started {started:g} != finished "
                    f"{finished:g} + in-flight {pending:g} "
                    f"(weight {agg.weight:g})",
                    cohort=agg.cohort, kind=kind, started=started,
                    finished=finished, inflight=pending,
                    weight=agg.weight)

    def _check_mqtt(self, driver, agg) -> None:
        counts: dict[str, int] = dict(agg.rep_counts)
        for counter, value in agg.solo_counts.items():
            counts[counter] = counts.get(counter, 0) + value
        established = counts.get("sessions_established", 0)
        ended = (counts.get("session_broken", 0)
                 + counts.get("proactive_reconnects", 0))
        expired = counts.get("keepalive_expired", 0)
        if ended > established:
            self.violation(
                f"{agg.cohort}: {ended} MQTT session endings exceed "
                f"{established} establishments",
                cohort=agg.cohort, ended=ended, established=established)
        if expired > counts.get("session_broken", 0):
            self.violation(
                f"{agg.cohort}: {expired} keepalive expiries exceed "
                f"{counts.get('session_broken', 0)} session breaks",
                cohort=agg.cohort, expired=expired,
                broken=counts.get("session_broken", 0))


#: name → class, in reporting order.
CHECKERS = {
    checker.name: checker
    for checker in (
        FdConservationChecker,
        ReuseportStabilityChecker,
        RequestConservationChecker,
        PprExactlyOnceChecker,
        MqttContinuityChecker,
        CapacityFloorChecker,
        DrainMonotonicityChecker,
        BudgetSanityChecker,
        LbRoutingGuaranteeChecker,
        AutoscalerDisciplineChecker,
        EvacuationCompletenessChecker,
        CrossRegionContinuityChecker,
        CohortConservationChecker,
    )
}


def default_checkers() -> list[InvariantChecker]:
    """Fresh instances of every checker."""
    return [cls() for cls in CHECKERS.values()]


def make_checkers(names: Optional[list[str]] = None) -> list[InvariantChecker]:
    """Fresh instances of the named checkers (all when ``names`` is None)."""
    if names is None:
        return default_checkers()
    unknown = [n for n in names if n not in CHECKERS]
    if unknown:
        raise ValueError(
            f"unknown checkers {unknown}; available: {sorted(CHECKERS)}")
    return [CHECKERS[name]() for name in names]
