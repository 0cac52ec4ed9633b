"""Links: latency, bandwidth, jitter, loss, in-order stream delivery."""

import pytest

from repro.metrics import MetricsRegistry
from repro.netsim import Host, LinkProfile, Network
from repro.simkernel import Environment, RandomStreams


def make_world(profile=None, **profiles):
    env = Environment()
    streams = RandomStreams(3)
    metrics = MetricsRegistry()
    network = Network(env, streams,
                      default_profile=profile or LinkProfile(latency=0.01))
    return env, streams, metrics, network


def _clock(env, log):
    """A ``transmit`` receiver that logs when its message arrived."""
    return lambda _arrival: log.append(env.now)


def test_transmit_applies_latency():
    env, streams, metrics, network = make_world(LinkProfile(latency=0.5))
    a = Host(env, network, "a", "10.0.0.1", "x", metrics)
    b = Host(env, network, "b", "10.0.0.2", "y", metrics)
    arrivals = []
    network.transmit(a, b.ip, _clock(env, arrivals), None, size=100)
    env.run(until=1)
    assert arrivals == [0.5]


def test_transmit_bandwidth_serialization():
    env, streams, metrics, network = make_world(
        LinkProfile(latency=0.1, bandwidth=1000))
    a = Host(env, network, "a", "10.0.0.1", "x", metrics)
    b = Host(env, network, "b", "10.0.0.2", "y", metrics)
    arrivals = []
    network.transmit(a, b.ip, _clock(env, arrivals), None, size=500)
    env.run(until=2)
    assert arrivals == [pytest.approx(0.6)]  # 0.1 + 500/1000


def test_loopback_fast_path():
    env, streams, metrics, network = make_world(LinkProfile(latency=1.0))
    a = Host(env, network, "a", "10.0.0.1", "x", metrics)
    arrivals = []
    network.transmit(a, a.ip, _clock(env, arrivals), None)
    env.run(until=1)
    assert arrivals and arrivals[0] < 0.01


def test_site_profiles_override_default():
    env, streams, metrics, network = make_world(LinkProfile(latency=0.001))
    network.add_profile("edge", "origin", LinkProfile(latency=0.25))
    a = Host(env, network, "a", "10.0.0.1", "edge", metrics)
    b = Host(env, network, "b", "10.0.0.2", "origin", metrics)
    arrivals = []
    network.transmit(a, b.ip, _clock(env, arrivals), None)
    env.run(until=1)
    assert arrivals == [0.25]
    # Symmetric by default.
    assert network.get_profile(b.site, a.site).latency == 0.25


def test_unknown_destination_counts_drop():
    env, streams, metrics, network = make_world()
    a = Host(env, network, "a", "10.0.0.1", "x", metrics)
    network.transmit(a, "10.9.9.9",
                     lambda _arrival: pytest.fail("delivered"), None)
    env.run(until=1)
    assert network.dropped == 1


def test_lossy_link_drops_fraction():
    env, streams, metrics, network = make_world(
        LinkProfile(latency=0.001, loss=0.5))
    a = Host(env, network, "a", "10.0.0.1", "x", metrics)
    b = Host(env, network, "b", "10.0.0.2", "y", metrics)
    delivered = []
    for _ in range(400):
        network.transmit(a, b.ip, _clock(env, delivered), None)
    env.run(until=1)
    assert 120 < len(delivered) < 280
    assert network.dropped == 400 - len(delivered)


def test_not_before_enforces_order():
    env, streams, metrics, network = make_world(
        LinkProfile(latency=0.01, bandwidth=100))
    a = Host(env, network, "a", "10.0.0.1", "x", metrics)
    b = Host(env, network, "b", "10.0.0.2", "y", metrics)
    order = []

    def receiver(item):
        order.append(item)

    # Big message first (slow: 10s serialization), small one after.
    t1 = network.transmit(a, b.ip, receiver, "big", size=1000)
    t2 = network.transmit(a, b.ip, receiver, "small", size=10,
                          not_before=t1 + 1e-9)
    env.run(until=20)
    assert order == ["big", "small"]
    assert t2 > t1


def test_duplicate_host_ip_rejected():
    env, streams, metrics, network = make_world()
    Host(env, network, "a", "10.0.0.1", "x", metrics)
    with pytest.raises(ValueError):
        Host(env, network, "b", "10.0.0.1", "x", metrics)


def test_tcp_stream_delivery_is_in_order(world):
    """A small message sent right after a huge one must not overtake it
    on a bandwidth-limited link (the 379-vs-FIN regression)."""
    from repro.netsim import Endpoint, LinkProfile as LP
    world.network.add_profile("s", "s", LP(latency=0.01, bandwidth=10_000))
    a = world.host("a", site="s")
    b = world.host("b", site="s")
    pa, pb = a.spawn("pa"), b.spawn("pb")
    endpoint = Endpoint(b.ip, 80)
    _, listener = b.kernel.tcp_listen(pb, endpoint)
    got = []

    def server():
        conn = yield listener.accept(pb)
        while len(got) < 3:
            item = yield conn.recv()
            got.append(getattr(item, "payload", getattr(item, "kind", None)))

    def client():
        conn = yield a.kernel.tcp_connect(pa, endpoint)
        conn.send("huge", size=50_000)   # 5s of serialization
        conn.send("tiny", size=10)
        conn.close()                      # FIN

    pb.run(server())
    pa.run(client())
    world.env.run(until=20)
    assert got == ["huge", "tiny", "FIN"]


def test_tcp_connect_event_cost_and_arrival_times_are_unchanged(world):
    """The SYN-ACK's receiver is the connect result's ``deliver``, and
    the accept hand-off comes after the SYN-ACK's jitter draw, where the
    scheduled accept loop ran: for a fixed seed, bit-equal arrival times
    as before the delivery event carried its item, and the accept and
    the connect result wake their waiters in place."""
    from repro.netsim import Endpoint, LinkProfile as LP
    world.network.add_profile("s", "s", LP(latency=0.01, jitter=0.005))
    a = world.host("a", site="s")
    b = world.host("b", site="s")
    pa, pb = a.spawn("pa"), b.spawn("pb")
    endpoint = Endpoint(b.ip, 80)
    _, listener = b.kernel.tcp_listen(pb, endpoint)
    env = world.env
    log = []

    def server():
        yield listener.accept(pb)
        log.append(("accepted", env.now.hex(), env._eid))

    def client():
        yield a.kernel.tcp_connect(pa, endpoint)
        log.append(("connected", env.now.hex(), env._eid))

    pb.run(server())
    pa.run(client())
    env.run(until=1)
    # Two process starts, SYN, SYN-ACK; the accept get and the connect
    # result are handed off in place (6 while both were scheduled), and
    # nobody waits on either process, so neither finish is scheduled.
    assert env._eid == 4
    assert env.stats()["handoffs"] == 2
    assert log == [("accepted", "0x1.863fba9149fd2p-7", 4),
                   ("connected", "0x1.69b500f417524p-6", 4)]


# -- the route memo, through the socket path -----------------------------------

BASE = LinkProfile(latency=0.01, jitter=0.004)


def _slow(profile):
    return LinkProfile(latency=profile.latency * 20, jitter=profile.jitter)


def _unmemoized(network):
    """Make ``network`` resolve every transmission's route afresh."""
    transmit = network.transmit

    def fresh(src, *args, **kwargs):
        src.routes.clear()
        return transmit(src, *args, **kwargs)

    network.transmit = fresh


def _arrivals(setup, change, memoized=True):
    """Delay of each message on an established connection from site x
    to site y: ``setup(network)`` runs before the first send,
    ``change(network, state)`` between the first and the second."""
    from repro.netsim import Endpoint
    env, _, metrics, network = make_world()
    if not memoized:
        _unmemoized(network)
    network.add_profile("x", "y", BASE)
    a = Host(env, network, "a", "10.0.0.1", "x", metrics)
    b = Host(env, network, "b", "10.0.0.2", "y", metrics)
    pa, pb = a.spawn("pa"), b.spawn("pb")
    endpoint = Endpoint(b.ip, 80)
    _, listener = b.kernel.tcp_listen(pb, endpoint)
    sent, got = {}, []

    def server():
        conn = yield listener.accept(pb)
        while len(got) < 2:
            item = yield conn.recv()
            got.append(env.now - sent[item.payload])

    def client():
        conn = yield a.kernel.tcp_connect(pa, endpoint)
        yield env.timeout(1)
        state = setup(network)
        sent["first"] = env.now
        conn.send("first")
        yield env.timeout(1)
        change(network, state)
        sent["second"] = env.now
        conn.send("second")

    pb.run(server())
    pa.run(client())
    env.run(until=5)
    return got


def _same_as_unmemoized(setup, change):
    got = _arrivals(setup, change)
    assert got == _arrivals(setup, change, memoized=False)
    return got


def test_an_override_applies_to_the_very_next_send():
    first, second = _same_as_unmemoized(
        lambda network: None,
        lambda network, _: network.push_link_override("x", "y", _slow))
    assert first < 0.014 and second >= 0.2


def test_popping_an_override_restores_the_base_route():
    first, second = _same_as_unmemoized(
        lambda network: network.push_link_override("x", "y", _slow),
        lambda network, token: network.pop_link_override(token))
    assert first >= 0.2 and second < 0.014


def test_a_new_profile_on_the_pair_applies_to_the_next_send():
    first, second = _same_as_unmemoized(
        lambda network: None,
        lambda network, _: network.add_profile(
            "x", "y", LinkProfile(latency=0.05, jitter=0.004)))
    assert first < 0.014 and 0.05 <= second < 0.054
