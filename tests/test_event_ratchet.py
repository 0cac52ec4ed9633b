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
relayed body chunk across an app server restart, and checks that its
window leaves the collector no race to find.
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
from repro.simkernel.resources import Store

#: Measured when the ceiling was last set: 18,111 events over 1,792 ops
#: = 10.11 (11.18 while every receive under a deadline pushed its own
#: timeout; 13.16 before the H2 demux moved into the delivery
#: callback).  The ceiling sits 2 % above it.
CEILING = 10.31

#: Bulk uploads: ``CHUNKS`` chunks of ``CHUNK_SIZE`` bytes each.
#: Measured when the ceiling was last set: 24,673 events over 95
#: uploads = 6.49 per chunk (6.54 with a timeout per receive under a
#: deadline; 7.54 while the Origin's POST relay raced its two sources
#: per chunk).  The ceiling sits 2 % above it.
CHUNKS, CHUNK_SIZE = 40, 16_000
CHUNK_CEILING = 6.62

OPS = (("web-clients", "get_ok"), ("web-clients", "post_ok"),
       ("mqtt-clients", "publishes_sent"),
       ("mqtt-clients", "publishes_received"))


def _ops(deployment) -> float:
    return sum(deployment.metrics.aggregate(name, scope_prefix=prefix)
               for prefix, name in OPS)


@pytest.fixture(scope="module")
def released():
    """The deployment run to t = 30 across one Edge release, with the
    events and client ops of the release window."""
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
    events, ops = env._eid, _ops(deployment)
    release = RollingRelease(env, deployment.edge_servers[:1],
                             RollingReleaseConfig(batch_fraction=1.0))
    env.process(release.execute())
    deployment.run(until=30.0)
    return deployment, env._eid - events, _ops(deployment) - ops


def _instances(servers):
    return [instance for server in servers
            for instance in (server.active_instance, server.draining_instance)
            if instance is not None]


def test_events_per_client_op_stay_under_the_ceiling(released):
    deployment, events, ops = released
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
    deployment, _, _ = released
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
    t = 10..25.  Returns the window's events, its completed uploads, its
    379s and what the collector found unreachable in it, by type."""
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
    deployment.start()
    deployment.run(until=10.0)
    env = deployment.env
    events = env._eid
    uploads = deployment.metrics.aggregate("post_ok",
                                           scope_prefix="web-clients")
    env.process(deployment.app_servers[0].restart())
    while gc.collect():  # what earlier tests left; a finalizer run in
        pass             # one pass can leave more for the next
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep the window's cycles to count
    try:
        deployment.run(until=25.0)
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    uploads = deployment.metrics.aggregate(
        "post_ok", scope_prefix="web-clients") - uploads
    return (env._eid - events, uploads,
            deployment.metrics.aggregate("ppr_379_received"), garbage)


def test_events_per_relayed_chunk_stay_under_the_ceiling(bulk_posts):
    events, uploads, replays, _ = bulk_posts
    assert uploads > 50 and replays >= 1
    per_chunk = events / (uploads * CHUNKS)
    assert per_chunk <= CHUNK_CEILING, (
        f"{events} events / {uploads:g} uploads of {CHUNKS} chunks = "
        f"{per_chunk:.2f} > {CHUNK_CEILING}: a body chunk got a new "
        "event: name who waits on it, or raise the ceiling on purpose")


def test_the_post_relay_leaves_no_race_for_the_collector(bulk_posts):
    """A race per chunk left an ``AnyOf`` and its two gets in a cycle
    (31,842 unreachable objects in this window, 3,783 of them
    ``AnyOf``); the relay now reads one inbox, and a decided race lets
    go of its children."""
    *_, garbage = bulk_posts
    assert garbage["AnyOf"] == 0 and garbage["StoreGetEvent"] == 0, (
        garbage.most_common(8))


def test_a_health_probe_connection_is_closed_by_the_proxy(released):
    """Katran probes by connecting and closing; the proxy closes its end
    on the probe's FIN, so no probe endpoint stays in its process, counts
    in ``connection_count()`` or is aborted at drain end."""
    deployment, _, _ = released
    katran_ips = {katran.host.ip for katran in deployment.all_katrans()}
    instances = _instances(deployment.edge_servers + deployment.origin_servers)
    left_open = [endpoint for instance in instances
                 for endpoint in instance.process.connections()
                 if endpoint.remote_host_ip in katran_ips
                 and endpoint.fin_received]
    assert left_open == []
