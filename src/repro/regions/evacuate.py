"""Live evacuation of a whole region (the paper's §3 at region scale).

Walks one region through the disruption-free exit ramp while the rest
of the deployment keeps serving:

1. **Withdraw** the region from anycast — new client flows resolve to
   the next-nearest region; in-flight work is untouched.
2. **Re-home MQTT sessions**: the region's brokers leave the global
   broker ring, each held session context is handed to the broker that
   now owns the user's hash, and every live Origin tunnel still pinned
   to an evacuated broker is sent a ReconnectSolicitation so its client
   DCR-splices into the new home (§4.2) instead of resetting.
3. **Drain the web path** through the normal machinery: Edge proxies
   leave their L4LBs and hard-drain, then the Origin tier, then the
   app servers decommission.

The steps are deliberately ordered client-edge-inward so nothing is
torn down while something upstream of it still routes traffic in.

No :class:`RollingRelease` is involved: an evacuation announces its own
window on the run's channel (:mod:`repro.run`) the way the fault
injector does — ``evacuation_begin`` at the withdraw,
``evacuation_end`` at completion — so the splice governor stays
suspended in between and aggregate cohorts condense once, as at a
release begin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..release.orchestrator import RollingRelease, RollingReleaseConfig

__all__ = ["EvacuationReport", "evacuate_region", "release_all_pops"]

#: Seconds of anycast settling between the withdraw + broker re-home
#: (which are atomic in sim time, so no ReConnect can land between the
#: ring change and the session hand-over) and the drains — long enough
#: for resolvers to stop handing new flows to the region's PoPs.
GRACE = 1.0


@dataclass
class EvacuationReport:
    """What one region evacuation did (returned by the generator)."""

    region: str
    started_at: float
    finished_at: float = 0.0
    #: Broker session contexts re-homed onto surviving regions.
    sessions_transferred: int = 0
    #: Live Origin tunnels nudged to DCR into the new broker home.
    tunnels_solicited: int = 0
    edge_drained: int = 0
    origin_drained: int = 0
    apps_decommissioned: int = 0
    #: Tunnels whose client never completed the solicited splice (e.g.
    #: it was partitioned away) — force-closed broker-side at the end.
    tunnels_terminated: int = 0
    moved_users: list[int] = field(default_factory=list)


def evacuate_region(deployment, region_name: str):
    """Generator process: evacuate ``region_name`` under live load."""
    env = deployment.env
    region = deployment.region(region_name)
    counters = deployment.metrics.scoped_counters("regions")
    announce = deployment.run_record.announce
    report = EvacuationReport(region=region_name, started_at=env.now)

    announce("evacuation_begin", region=region, scope=region_name)
    counters.inc("evacuations_started", tag=region_name)

    # 1. Anycast withdraw: stop attracting new client flows.
    deployment.withdraw_region(region_name)
    evacuated_ips = {host.ip for host in region.broker_hosts}
    for ip in evacuated_ips:
        deployment.broker_ring.remove(ip)

    # 2. Re-home every broker session to its new ring owner, then
    # solicit the tunnels still spliced into the old home so clients
    # migrate via DCR rather than discovering the move through resets.
    for broker in region.brokers:
        for user_id in sorted(broker.sessions):
            target_ip = deployment.broker_ring.lookup("user", user_id)
            target = (deployment.broker_by_ip(target_ip)
                      if target_ip is not None else None)
            session = broker.release_session(user_id)
            if session is None or target is None:
                continue
            if target.adopt_session(session):
                report.sessions_transferred += 1
                report.moved_users.append(user_id)
                counters.inc("sessions_rehomed", tag=region_name)
    for server in deployment.origin_servers:
        for instance in (server.active_instance,
                         server.draining_instance):
            if instance is None or not instance.process.alive:
                continue
            for tunnel in list(instance.mqtt_tunnels.values()):
                if tunnel.closed or tunnel.broker_ip not in evacuated_ips:
                    continue
                tunnel.solicit_reconnect()
                report.tunnels_solicited += 1
                counters.inc("tunnels_solicited", tag=region_name)
    announce("broker_sessions_transferred", region=region_name,
             users=list(report.moved_users),
             source_brokers=[b.name for b in region.brokers])

    # Anycast settling window: let resolvers finish re-routing new
    # flows away before the drains start tearing down what is left.
    yield env.timeout(GRACE)

    # 3a. Edge drain: leave the PoP's Katran first so no new flows
    # land, then hard-drain what is in flight.
    exits = []
    for pop in region.pops:
        for ip in list(pop.katran.backends):
            pop.katran.remove_backend(ip)
        for server in pop.servers:
            instance = server.active_instance
            if instance is not None and instance.alive:
                instance.begin_drain(reason="hard")
                exits.append(instance.exited_event)
                report.edge_drained += 1
    if exits:
        yield env.all_of(exits)

    # 3b. Origin drain, same shape.
    exits = []
    for host in region.origin_hosts:
        region.origin_katran.remove_backend(host.ip)
    for server in region.origin_servers:
        instance = server.active_instance
        if instance is not None and instance.alive:
            instance.begin_drain(reason="hard")
            exits.append(instance.exited_event)
            report.origin_drained += 1
    if exits:
        yield env.all_of(exits)

    # 3c. App servers leave the pool and see out their queues.
    drains = []
    for server in region.app_servers:
        region.app_pool.remove(server)
        drains.append(env.process(server.decommission()))
        report.apps_decommissioned += 1
    if drains:
        yield env.all_of(drains)

    # 3d. The evacuated brokers finally shut down: terminate any tunnel
    # whose client never completed the solicited DCR splice (it may be
    # partitioned away) — the edge stream resets so the client re-dials
    # once it can, and nothing keeps relaying into the departed region.
    for server in deployment.origin_servers:
        for instance in (server.active_instance,
                         server.draining_instance):
            if instance is None or not instance.process.alive:
                continue
            for tunnel in list(instance.mqtt_tunnels.values()):
                if not tunnel.closed and tunnel.broker_ip in evacuated_ips:
                    tunnel.terminate()
                    report.tunnels_terminated += 1
                    counters.inc("tunnels_terminated", tag=region_name)

    region.evacuated = True
    report.finished_at = env.now
    announce("evacuation_end", region=region, scope=region_name,
             sessions_transferred=report.sessions_transferred,
             tunnels_terminated=report.tunnels_terminated)
    counters.inc("evacuations_completed", tag=region_name)
    return report


def release_all_pops(deployment, batch_fraction: float,
                     post_batch_wait: float):
    """Release every PoP's proxy fleet concurrently (the paper's global
    roll-out, §6.1.1); returns the per-PoP :class:`RollingRelease`
    objects and the completion event."""
    config = RollingReleaseConfig(batch_fraction=batch_fraction,
                                  post_batch_wait=post_batch_wait)
    releases = [RollingRelease(deployment.env, pop.servers, config,
                               name=f"release-{pop.name}")
                for region in deployment.regions for pop in region.pops]
    tasks = [deployment.env.process(release.execute())
             for release in releases]
    return releases, deployment.env.all_of(tasks)
