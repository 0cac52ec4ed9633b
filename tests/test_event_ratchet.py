"""Events per client op, and what a run keeps: ratchets over one whole
(small) deployment.

``tests/netsim/test_event_budget.py`` prices the primitives one by one;
this prices what they add up to on the request path — web GET/POSTs and
MQTT publishes through Edge → Origin → app/broker, across one Edge
release — the way ``python -m bench`` reports ``events_per_op``, small
enough for tier-1.  Same spirit as ``tests/test_config_surface.py``: it
only moves on purpose.  The same run then says what it still holds: an
HTTP/2 connection keeps only its open streams, and the per-connection
objects carry no ``__dict__``.  A second run prices bulk uploads per
relayed body chunk across an app server restart, checks that its
window leaves the collector nothing to find, and that it resolves each
route once, not per send.  A third run releases every Origin with DCR
on, the re-home dials and broker re-attaches the other two never make;
its window too leaves the collector nothing: a finished connection, a
broken HTTP/2 session, a takeover channel and an exited proxy instance
are all freed by refcount.  A fourth, regional run (two regions of two
PoPs, one evacuated) pins what the anycast resolvers, the PoPs' Katrans
and the cross-region re-home observe.
"""

import gc
from collections import Counter

import pytest

from repro import (
    Deployment,
    DeploymentSpec,
    RollingRelease,
    RollingReleaseConfig,
)
from repro.appserver.config import AppServerConfig
from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.netsim.sockets import TcpEndpoint
from repro.protocols.http2 import H2Stream
from repro.proxygen.config import ProxygenConfig
from repro.regions import RegionalDeployment, RegionalSpec, evacuate_region
from repro.simkernel.resources import Store
from tests import golden

#: Measured when the ceiling was last set: 16,442 events over 1,786 ops
#: = 9.21 (9.58 while an expired wait, an accept and a connect result
#: each woke their waiter by a scheduled event; 10.22 while a queued CPU
#: execution was granted its core by an event of its own and each
#: process's deadline timer sat in the schedule; 11.18 while every
#: receive under a deadline pushed its own timeout; 13.16 before the H2
#: demux moved into the delivery callback).  The ceiling sits 2 % above
#: it.
CEILING = 9.39

#: Bulk uploads: ``CHUNKS`` chunks of ``CHUNK_SIZE`` bytes each.
#: Measured when the ceiling was last set: 24,524 events over 95
#: uploads = 6.45 per chunk (6.49 with a scheduled wake-up per expired
#: wait, accept and connect result; 6.52 with a grant event per queued
#: CPU execution and a deadline timer per process in the schedule; 6.54
#: with a timeout per receive under a deadline; 7.54 while the Origin's
#: POST relay raced its two sources per chunk).  The ceiling sits 2 %
#: above it.
CHUNKS, CHUNK_SIZE = 40, 16_000
CHUNK_CEILING = 6.58

OPS = (("web-clients", "get_ok"), ("web-clients", "post_ok"),
       ("mqtt-clients", "publishes_sent"),
       ("mqtt-clients", "publishes_received"))


def _ops(deployment) -> float:
    return sum(deployment.metrics.aggregate(name, scope_prefix=prefix)
               for prefix, name in OPS)


def _window_garbage(deployment, until: float) -> Counter:
    """Run ``deployment`` to ``until`` and say what the collector found
    unreachable in that window, by type."""
    while gc.collect():  # what earlier tests left; a finalizer run in
        pass             # one pass can leave more for the next
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep the window's cycles to count
    try:
        deployment.run(until=until)
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.fixture(scope="module")
def released():
    """The deployment run to t = 30 across one Edge release, with the
    events and client ops of the release window and what the collector
    found unreachable in it, by type."""
    deployment = Deployment(DeploymentSpec(
        seed=0, edge_proxies=3, origin_proxies=2, app_servers=2,
        web_client_hosts=1, mqtt_client_hosts=1, quic_client_hosts=0,
        edge_config=ProxygenConfig(mode="edge", drain_duration=5.0,
                                   enable_takeover=True, enable_dcr=True,
                                   spawn_delay=1.0),
        web_workload=WebWorkloadConfig(clients_per_host=60, think_time=0.8),
        mqtt_workload=MqttWorkloadConfig(users_per_host=30,
                                         publish_interval=2.0),
        quic_workload=None))
    deployment.start()
    deployment.run(until=10.0)  # every client connected
    env = deployment.env
    events, ops = env.stats()["events"], _ops(deployment)
    release = RollingRelease(env, deployment.edge_servers[:1],
                             RollingReleaseConfig(batch_fraction=1.0))
    env.process(release.execute())
    garbage = _window_garbage(deployment, 30.0)
    return (deployment, env.stats()["events"] - events,
            _ops(deployment) - ops, garbage)


def _instances(servers):
    return [instance for server in servers
            for instance in (server.active_instance, server.draining_instance)
            if instance is not None]


def test_events_per_client_op_stay_under_the_ceiling(released):
    deployment, events, ops, _ = released
    assert deployment.metrics.aggregate("takeover_completed") == 1
    assert ops > 1_500
    assert events / ops <= CEILING, (
        f"{events} events / {ops:g} ops = {events / ops:.2f} > {CEILING}: "
        "a request got a new event: name who waits on it, or raise the "
        "ceiling on purpose")


def test_an_h2_connection_keeps_only_its_open_streams(released):
    """Every request the run carried ended, yet each connection that
    carried them is still up: what it holds must be what is open now
    (up to 347 streams per connection, nearly all closed, before closed
    streams were forgotten), and none of the per-connection objects has
    a ``__dict__``."""
    deployment, *_ = released
    connections = [instance.upstream.current
                   for instance in _instances(deployment.edge_servers)
                   if instance.upstream.current is not None]
    connections += [h2 for instance in _instances(deployment.origin_servers)
                    for h2 in instance.edge_h2_conns]
    assert len(connections) >= 5
    for h2 in connections:
        assert len(h2.streams) == h2.open_stream_count()
    stream = next(stream for h2 in connections
                  for stream in h2.streams.values())
    endpoint = connections[0].endpoint
    for obj, cls in ((stream, H2Stream), (endpoint, TcpEndpoint),
                     (endpoint.inbox, Store), (stream.inbox, Store)):
        assert type(obj) is cls and not hasattr(obj, "__dict__")


@pytest.fixture(scope="module")
def bulk_posts():
    """Uploads of ``CHUNKS`` chunks each through one app server restart
    (the uploads outlast its drain, so the Origin replays at least one),
    t = 10..25.  Returns the deployment, the window's events, its
    completed uploads, its 379s and what the collector found
    unreachable in the window, by type.  Route resolutions are counted
    per (source host, destination IP) over the whole run, with the
    number of times the network's profile version moved."""
    deployment = Deployment(DeploymentSpec(
        seed=0, edge_proxies=2, origin_proxies=2, app_servers=2,
        web_client_hosts=1, mqtt_client_hosts=0, quic_client_hosts=0,
        app_config=AppServerConfig(drain_duration=0.5, restart_downtime=3.0,
                                   enable_ppr=True),
        web_workload=WebWorkloadConfig(
            clients_per_host=8, think_time=0.2, post_fraction=1.0,
            post_size_min=CHUNKS * CHUNK_SIZE,
            post_size_cap=CHUNKS * CHUNK_SIZE,
            post_chunk_size=CHUNK_SIZE, upload_bandwidth=750_000.0),
        mqtt_workload=None, quic_workload=None, splice=None))
    network = deployment.network
    resolved, version = Counter(), network.version
    resolve = network._route

    def counted(src, dst_ip):
        resolved[src.ip, dst_ip] += 1
        return resolve(src, dst_ip)

    network._route = counted
    deployment.start()
    deployment.run(until=10.0)
    env = deployment.env
    events = env.stats()["events"]
    uploads = deployment.metrics.aggregate("post_ok",
                                           scope_prefix="web-clients")
    env.process(deployment.app_servers[0].restart())
    try:
        garbage = _window_garbage(deployment, 25.0)
    finally:
        del network._route
    uploads = deployment.metrics.aggregate(
        "post_ok", scope_prefix="web-clients") - uploads
    return (deployment, env.stats()["events"] - events, uploads,
            deployment.metrics.aggregate("ppr_379_received"),
            (resolved, network.version - version), garbage)


def test_events_per_relayed_chunk_stay_under_the_ceiling(bulk_posts):
    _, events, uploads, replays, *_ = bulk_posts
    assert uploads > 50 and replays >= 1
    per_chunk = events / (uploads * CHUNKS)
    assert per_chunk <= CHUNK_CEILING, (
        f"{events} events / {uploads:g} uploads of {CHUNKS} chunks = "
        f"{per_chunk:.2f} > {CHUNK_CEILING}: a body chunk got a new "
        "event: name who waits on it, or raise the ceiling on purpose")


@pytest.fixture(scope="module")
def evacuated():
    """Two regions of two PoPs each, every PoP behind its one Katran;
    region r1 evacuated from t = 8 under web and MQTT load, run to
    t = 30.  Returns the deployment and what the collector found
    unreachable in the evacuation window, by type."""
    edge = ProxygenConfig(mode="edge", drain_duration=2.0, spawn_delay=0.5)
    origin = ProxygenConfig(mode="origin", drain_duration=2.0,
                            spawn_delay=0.5)
    deployment = RegionalDeployment(RegionalSpec(
        seed=0, regions=2, pops_per_region=2, proxies_per_pop=2,
        origin_proxies=2, app_servers=2, brokers=1,
        web_clients_per_pop=20, mqtt_users_per_pop=20,
        edge_config=edge, origin_config=origin))
    deployment.start()
    deployment.run(until=8.0)
    evacuation = deployment.env.process(evacuate_region(deployment, "r1"))
    garbage = _window_garbage(deployment, 30.0)
    assert evacuation.triggered, "the evacuation never finished"
    return (deployment, garbage)


def test_what_both_runs_observed_is_pinned(released, bulk_posts,
                                          origin_released, evacuated):
    """The runs' digests equal their golden cases (``tests/golden``,
    built by these fixtures' builders): the ceilings above may only fall
    by scheduling less, and a send may only get cheaper, never by
    observing something else (the Origin release's snapshot catches a
    stale route on a re-home dial or a broker re-attach; the regional
    one, a change in how a client flow reaches a PoP's Katran)."""
    for name, run in (("released", released), ("bulk_posts", bulk_posts),
                      ("origin_released", origin_released),
                      ("evacuated", evacuated)):
        golden.assert_recorded(f"ratchet {name}", golden.run_digest(run[0]))


def test_a_route_is_resolved_once_per_host_pair(bulk_posts):
    """Sends reuse the source host's route memo: over the run each
    (host, peer IP) pair is resolved at most once, plus once per move of
    the network's profile version (none here: no link fault).  The
    event ceilings cannot see host work, so per-send resolution would
    come back unseen without this."""
    (resolved, bumps), _ = bulk_posts[4:]
    assert bumps == 0
    assert resolved and max(resolved.values()) <= 1 + bumps, (
        resolved.most_common(4))


def test_the_post_relay_leaves_no_race_for_the_collector(bulk_posts):
    """A race per chunk left an ``AnyOf`` and its two gets in a cycle
    (31,842 unreachable objects in this window, 3,783 of them
    ``AnyOf``); the relay now reads one inbox, and a decided race lets
    go of its children."""
    *_, garbage = bulk_posts
    assert garbage["AnyOf"] == 0 and garbage["StoreGetEvent"] == 0, (
        garbage.most_common(8))


def test_a_bulk_window_leaves_the_collector_nothing(bulk_posts):
    """Every connection the window finishes is freed by refcount: a
    closed pair unlinks and a broken HTTP/2 session lets go of its
    socket (960 unreachable objects here while each closed pair was a
    cycle of its endpoints, their connection object and inboxes)."""
    *_, garbage = bulk_posts
    assert not garbage, garbage.most_common(8)


def test_a_health_probe_connection_is_closed_by_the_proxy(released):
    """Katran probes by connecting and closing; the proxy closes its end
    on the probe's FIN, so no probe endpoint stays in its process, counts
    in ``connection_count()`` or is aborted at drain end."""
    deployment, *_ = released
    katran_ips = {katran.host.ip for katran in deployment.all_katrans()}
    instances = _instances(deployment.edge_servers + deployment.origin_servers)
    left_open = [endpoint for instance in instances
                 for endpoint in instance.process.connections()
                 if endpoint.remote_host_ip in katran_ips
                 and endpoint.fin_received]
    assert left_open == []


@pytest.fixture(scope="module")
def origin_released():
    """``mqtt_dcr``'s shape at about 1/10 scale: every Origin released,
    a quarter at a time, with DCR on, t = 10..60.  Returns the
    deployment, the Edges' upstream dials in the release window and
    what the collector found unreachable in it, by type."""
    deployment = Deployment(DeploymentSpec(
        seed=0, edge_proxies=6, origin_proxies=4, app_servers=2, brokers=4,
        web_client_hosts=0, mqtt_client_hosts=2, quic_client_hosts=0,
        origin_config=ProxygenConfig(mode="origin", drain_duration=8.0,
                                     enable_takeover=True, enable_dcr=True,
                                     spawn_delay=2.0),
        web_workload=None, quic_workload=None,
        mqtt_workload=MqttWorkloadConfig(users_per_host=38,
                                         publish_interval=2.0)))
    deployment.start()
    deployment.run(until=10.0)
    dialed = deployment.metrics.aggregate("upstream_dialed")
    release = RollingRelease(deployment.env, deployment.origin_servers,
                             RollingReleaseConfig(batch_fraction=0.25))
    deployment.env.process(release.execute())
    garbage = _window_garbage(deployment, 60.0)
    return (deployment,
            deployment.metrics.aggregate("upstream_dialed") - dialed, garbage)


def test_an_origin_release_rehomes_tunnels_and_breaks_no_session(
        origin_released):
    deployment, *_ = origin_released
    metrics = deployment.metrics
    assert metrics.aggregate("takeover_completed") == 4
    assert metrics.aggregate("dcr_rehomed") >= 100
    assert metrics.aggregate("mqtt_session_broken") == 0
    assert metrics.aggregate("mqtt_reconnects") == 0


def test_an_uncaught_interrupt_leaves_no_cycle(origin_released):
    """Each released Origin's exit interrupts its tunnels' tasks; a task
    that lets the ``Interrupt`` end it quietly must not keep its
    traceback, which holds the resume frame and, through it, the
    interrupt: the task, its generator frames and their locals would
    then wait for the collector (669 interrupts and 1,338 tracebacks
    per ``mqtt_dcr`` window at seed 0 while it did)."""
    *_, garbage = origin_released
    assert garbage["Interrupt"] == 0 and garbage["traceback"] == 0, (
        garbage.most_common(8))


def test_an_origin_release_leaves_the_collector_nothing(origin_released):
    """Four Origin releases: the connections they finish, the sessions
    that break, the takeover channels and the four exited instances are
    all freed by refcount (7,920 unreachable objects here while they
    were cycles: 1,000 ``TcpEndpoint``, 200 ``H2Connection``, 8
    ``UnixChannelEnd``, 4 ``ProxygenInstance`` held by their
    ``QuicService``)."""
    *_, garbage = origin_released
    assert not garbage, garbage.most_common(8)


def test_an_edge_takeover_leaves_the_collector_nothing(released):
    """The old Edge instance exits with its upstream sessions up: its
    exit breaks them and drops their open streams, so neither a session
    and its socket nor a session and its streams stay a cycle (64
    unreachable objects here while they did)."""
    *_, garbage = released
    assert not garbage, garbage.most_common(8)


def test_a_region_evacuation_leaves_the_collector_nothing(evacuated):
    """Every proxy the evacuation drains exits with sessions up, the
    same cycles as an Edge takeover's (368 unreachable objects
    here while they stayed)."""
    _, garbage = evacuated
    assert not garbage, garbage.most_common(8)


def test_an_edge_dials_one_connection_per_origin_goaway(origin_released):
    """Each Origin drains once, so an Edge's pool gets at most one GOAWAY
    per Origin, and it dials at most one connection per GOAWAY: the
    re-homes it solicits wait for the one dial in flight (93 dials for
    118 re-homes here while each dialed its own; 748 for 923 on
    ``mqtt_dcr``)."""
    deployment, dialed, _ = origin_released
    most = len(deployment.edge_servers) * len(deployment.origin_servers)
    assert dialed <= most, f"{dialed:g} upstream dials > {most}"


def test_a_relay_connection_is_closed_once_its_peer_is_gone(
        origin_released):
    """A broker connection whose Origin sent FIN, and an Edge client
    connection that was reset, leave their live process, the way a
    probe connection does: the broker and the Edge's MQTT serve task
    close their end.  118 broker endpoints stayed here while they did
    not; the Edge half shows only at figure scale, where clients reset
    during the connect storm (1,076 and 393 on ``mqtt_dcr`` at
    t = 60)."""
    deployment, *_ = origin_released
    at_brokers = [endpoint for broker in deployment.brokers
                  if broker.process.alive
                  for endpoint in broker.process.connections()
                  if endpoint.fin_received]
    at_edges = [endpoint for instance in _instances(deployment.edge_servers)
                if instance.process.alive
                for endpoint in instance.process.connections()
                if endpoint.reset
                and endpoint.remote != instance.upstream.origin_vip]
    assert (len(at_brokers), len(at_edges)) == (0, 0)
