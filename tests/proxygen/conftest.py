"""Hand-wired mini-stack fixtures for proxygen unit tests.

Avoids the full Deployment: one origin proxy (backed by real app servers
and a broker) plus one edge proxy routed straight at it — or, for the
Origin's POST relay, one origin proxy between a hand-played Edge and a
hand-played app server.
"""

from types import SimpleNamespace

import pytest

from repro.appserver import (
    AppServer,
    AppServerConfig,
    AppServerPool,
    MqttBroker,
)
from repro.lb import ConsistentHashRing
from repro.netsim import Endpoint, Protocol, VIP
from repro.protocols import BodyChunk, FrameType, H2Connection, HttpRequest
from repro.proxygen import ProxygenConfig, ProxygenServer, ProxyTierContext


@pytest.fixture(autouse=True)
def _quiet_mini_stack_brokers(quiet_brokers):
    """A :class:`MiniStack`'s broker sends no notifications of its own."""


class MiniStack:
    """client-host → edge proxy → origin proxy → apps/broker.

    Its broker publishes downstream unless the test uses the
    ``quiet_brokers`` fixture, as every test in this package does.
    """

    def __init__(self, world, edge_config=None, origin_config=None,
                 app_servers=2, app_config=None):
        self.world = world
        self.env = world.env

        self.app_pool = AppServerPool()
        self.app_servers = []
        for i in range(app_servers):
            host = world.host(f"app-{i}")
            server = AppServer(host, app_config or AppServerConfig())
            server.start()
            self.app_pool.add(server)
            self.app_servers.append(server)

        broker_host = world.host("broker")
        self.broker = MqttBroker(broker_host)
        self.broker.start()
        ring = ConsistentHashRing(replicas=30)
        ring.add(broker_host.ip)

        self.origin_host = world.host("origin-proxy")
        origin_vip = Endpoint("100.64.9.1", 443)
        self.origin = ProxygenServer(
            self.origin_host,
            origin_config or ProxygenConfig(mode="origin",
                                            drain_duration=5.0,
                                            spawn_delay=0.5),
            ProxyTierContext(app_pool=self.app_pool, broker_ring=ring,
                             broker_port=self.broker.endpoint.port),
            vips=[VIP("https", origin_vip, Protocol.TCP)])

        self.edge_host = world.host("edge-proxy")
        edge_vip_ip = "100.64.8.1"
        self.edge_vips = [
            VIP("https", Endpoint(edge_vip_ip, 443), Protocol.TCP),
            VIP("quic", Endpoint(edge_vip_ip, 443), Protocol.UDP),
            VIP("mqtt", Endpoint(edge_vip_ip, 8883), Protocol.TCP),
        ]
        self.edge = ProxygenServer(
            self.edge_host,
            edge_config or ProxygenConfig(mode="edge", drain_duration=5.0,
                                          spawn_delay=0.5),
            ProxyTierContext(origin_vip=origin_vip,
                             origin_router=lambda flow: self.origin_host.ip),
            vips=self.edge_vips)

    def start(self):
        done_origin = self.env.process(self.origin.start())
        self.env.run(until=done_origin)
        done_edge = self.env.process(self.edge.start())
        self.env.run(until=done_edge)
        return self

    @property
    def edge_https(self):
        return self.edge_vips[0].endpoint

    @property
    def edge_mqtt(self):
        return self.edge_vips[2].endpoint

    def client(self, name="client"):
        host = self.world.host(name)
        return host, host.spawn(name)


@pytest.fixture
def stack(world):
    return MiniStack(world).start()


class OriginRelay:
    """One Origin proxy whose neighbours the test plays by hand.

    The test holds the Edge's end of one streaming POST (``stream``) and
    the app server's accepted socket (``app_conn``), so it picks the
    instant of every chunk and every reply.  The world's links have one
    latency and no jitter: two messages sent at one instant arrive at
    one instant, in the order they were sent.  ``upstream`` is what the
    app server has read, in order.
    """

    def __init__(self, world):
        self.env = env = world.env
        app_host = world.host("app")
        origin_host = world.host("origin-proxy")
        edge_host = world.host("edge-proxy")
        app = SimpleNamespace(host=app_host, accepting=True,
                              endpoint=Endpoint(app_host.ip, 8080))
        vip = Endpoint("100.64.9.1", 443)
        app_pool = AppServerPool()
        app_pool.add(app)
        self.origin = ProxygenServer(
            origin_host,
            ProxygenConfig(mode="origin", drain_duration=5.0,
                           spawn_delay=0.5),
            ProxyTierContext(app_pool=app_pool),
            vips=[VIP("https", vip, Protocol.TCP)])
        env.run(until=env.process(self.origin.start()))
        app_proc, edge_proc = app_host.spawn("app"), edge_host.spawn("edge")
        _, listener = app_host.kernel.tcp_listen(app_proc, app.endpoint)
        self.request = HttpRequest("POST", "/upload", body_size=10_000,
                                   streaming=True, id=1)
        self.upstream = []

        def app_server():
            self.app_conn = yield listener.accept(app_proc)
            while True:
                self.upstream.append((yield self.app_conn.recv()))

        def edge():
            conn = yield edge_host.kernel.tcp_connect(
                edge_proc, vip, via_ip=origin_host.ip)
            h2 = H2Connection(conn, role="client")
            h2.start(edge_proc)
            self.stream = h2.open_stream()
            self.stream.send(self.request, size=400,
                             frame_type=FrameType.HEADERS)

        app_proc.run(app_server())
        edge_proc.run(edge())
        env.run(until=env.now + 1.0)
        assert [item.payload.method for item in self.upstream] == ["POST"]

    def chunk(self, sequence: int, is_last: bool = False) -> None:
        self.stream.send(BodyChunk(self.request.id, 1_000, sequence,
                                   is_last=is_last),
                         size=1_000, end_stream=is_last)

    def reply(self, response) -> None:
        self.app_conn.send(response, size=600)

    def replies(self) -> list:
        """What the Edge's stream has received."""
        return [frame.payload for frame in self.stream.inbox.items]
