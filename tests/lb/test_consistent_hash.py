"""Consistent-hash ring: balance, stability, fallback chains."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lb import ConsistentHashRing


def _ring(nodes, replicas=100):
    ring = ConsistentHashRing(replicas=replicas)
    for node in nodes:
        ring.add(node)
    return ring


def test_empty_ring_returns_none():
    ring = ConsistentHashRing()
    assert ring.lookup("anything") is None


def test_single_node_gets_everything():
    ring = _ring(["only"])
    assert all(ring.lookup(i) == "only" for i in range(50))


def test_lookup_deterministic():
    ring = _ring([f"n{i}" for i in range(8)])
    assert [ring.lookup(k) for k in range(100)] == \
           [ring.lookup(k) for k in range(100)]


def test_load_roughly_balanced():
    nodes = [f"proxy-{i}" for i in range(10)]
    ring = _ring(nodes, replicas=200)
    counts = Counter(ring.lookup(f"flow-{i}") for i in range(20_000))
    assert set(counts) == set(nodes)
    expected = 20_000 / 10
    for node, count in counts.items():
        assert 0.5 * expected < count < 1.6 * expected, (node, count)


def test_remove_only_remaps_removed_nodes_keys():
    """The consistent-hashing property: removing one node moves only the
    keys that were on it."""
    nodes = [f"n{i}" for i in range(10)]
    ring = _ring(nodes)
    before = {k: ring.lookup(k) for k in range(5000)}
    ring.remove("n3")
    after = {k: ring.lookup(k) for k in range(5000)}
    for key in before:
        if before[key] != "n3":
            assert after[key] == before[key]
        else:
            assert after[key] != "n3"


def test_add_then_remove_restores_mapping():
    ring = _ring([f"n{i}" for i in range(6)])
    before = {k: ring.lookup(k) for k in range(2000)}
    ring.add("newcomer")
    ring.remove("newcomer")
    after = {k: ring.lookup(k) for k in range(2000)}
    assert before == after


def test_duplicate_add_is_idempotent():
    ring = _ring(["a", "b"])
    before = {k: ring.lookup(k) for k in range(500)}
    ring.add("a")
    assert {k: ring.lookup(k) for k in range(500)} == before
    assert len(ring) == 2


def test_remove_absent_node_noop():
    ring = _ring(["a"])
    ring.remove("ghost")
    assert len(ring) == 1


def test_replicas_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(replicas=0)


def test_remove_reassigns_collided_point_to_next_claimant():
    """Regression: a point where two nodes' replicas collided used to be
    dropped from the ring when the owning node left, instead of being
    re-assigned to the surviving claimant."""
    # A 5-slot point space with 4 replicas per node forces collisions.
    ring = ConsistentHashRing(replicas=4, point_space=5)
    ring.add("a")
    ring.add("b")
    ring.remove("a")
    solo_b = ConsistentHashRing(replicas=4, point_space=5)
    solo_b.add("b")
    # After a's removal the ring must be indistinguishable from one that
    # only ever contained b — no points lost to the collision.
    assert ring.point_count == solo_b.point_count
    assert all(ring.lookup(k) == "b" for k in range(20))


def test_point_count_survives_membership_churn():
    """Regression: collided points eroded permanently across add/remove
    cycles (each cycle could lose ring share for surviving nodes)."""
    ring = ConsistentHashRing(replicas=8, point_space=17)
    for node in ("a", "b", "c"):
        ring.add(node)
    total = ring.point_count
    for _ in range(5):
        ring.remove("b")
        ring.add("b")
    assert ring.point_count == total
    # Churn down to a single member: its full point set must be intact.
    ring.remove("b")
    ring.remove("c")
    solo_a = ConsistentHashRing(replicas=8, point_space=17)
    solo_a.add("a")
    assert ring.point_count == solo_a.point_count
    assert all(ring.lookup(k) == "a" for k in range(20))


def test_self_colliding_replicas_fully_removed():
    """A node whose own replicas collide holds several claims on one
    point; removing the node must release all of them."""
    ring = ConsistentHashRing(replicas=8, point_space=3)
    ring.add("a")
    assert 0 < ring.point_count <= 3
    ring.remove("a")
    assert ring.point_count == 0
    assert ring.lookup("k") is None


def test_lookup_reduces_key_into_point_space():
    """Regression: lookup hashed keys at full 32-bit width while ring
    points were reduced mod point_space, so almost every key hash
    exceeded every point and bisect wrapped every lookup to index 0 —
    the whole keyspace landed on one point's owner."""
    ring = ConsistentHashRing(replicas=8, point_space=97)
    for node in ("a", "b", "c", "d"):
        ring.add(node)
    owners = {ring.lookup(f"key-{i}") for i in range(300)}
    assert len(owners) > 1
    # The pick must be exactly the clockwise owner of the *reduced* key
    # (bisect_right semantics: the first point strictly after it).
    points = sorted(ring._point_node)
    for i in range(50):
        key = ring._hash("chash-key", ring.salt, f"key-{i}")
        clockwise = next((p for p in points if p > key), points[0])
        assert ring.lookup(f"key-{i}") == ring._point_node[clockwise]


def test_point_space_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(point_space=0)


@given(st.sets(st.text(min_size=1, max_size=8), min_size=2, max_size=12),
       st.text(min_size=1, max_size=16))
@settings(max_examples=40)
def test_stability_property(nodes, key):
    """Removing a node never remaps keys that were not on it."""
    ring = ConsistentHashRing(replicas=30)
    nodes = sorted(nodes)
    for node in nodes:
        ring.add(node)
    owner = ring.lookup(key)
    victim = next(n for n in nodes if n != owner)
    ring.remove(victim)
    assert ring.lookup(key) == owner
