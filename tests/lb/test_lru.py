"""Regression tests for the LRU connection table (§5.1 remediation).

The latent bug fixed here: ``put`` inserted *before* checking capacity,
so the table transiently held ``capacity + 1`` entries and the eviction
counter could be read mid-insert with the hit bookkeeping out of step.
"""

import pytest

from repro.lb.lru import LruConnectionTable


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LruConnectionTable(capacity=0)


def test_never_exceeds_capacity():
    table = LruConnectionTable(capacity=3)
    for i in range(10):
        table.put(i, f"b{i}")
        assert len(table) <= 3
    assert len(table) == 3
    assert table.evictions == 7


def test_put_refresh_never_evicts():
    """Re-putting a resident key at exact capacity must not evict."""
    table = LruConnectionTable(capacity=3)
    for i in range(3):
        table.put(i, f"b{i}")
    assert len(table) == 3 and table.evictions == 0
    for _ in range(5):
        table.put(1, "b1-refreshed")
    assert table.evictions == 0
    assert len(table) == 3
    assert table.get(1) == "b1-refreshed"


def test_refresh_updates_recency():
    table = LruConnectionTable(capacity=2)
    table.put("a", 1)
    table.put("b", 2)
    table.put("a", 11)     # refresh: "b" is now LRU
    table.put("c", 3)      # evicts "b", not "a"
    assert "a" in table and "c" in table and "b" not in table
    assert table.evictions == 1


def test_eviction_counter_accuracy_at_exact_capacity():
    """Insert exactly `capacity` keys: zero evictions; the next new key
    evicts exactly one — hits/misses stay independent of evictions."""
    capacity = 50
    table = LruConnectionTable(capacity=capacity)
    for i in range(capacity):
        table.put(i, i)
        assert table.evictions == 0
    table.put("extra", 99)
    assert table.evictions == 1
    assert len(table) == capacity
    # Counter arithmetic: every get() below is a hit except key 0
    # (the LRU victim of the "extra" insert).
    hits_before, misses_before = table.hits, table.misses
    for i in range(capacity):
        table.get(i)
    assert table.hits == hits_before + capacity - 1
    assert table.misses == misses_before + 1


def test_get_moves_to_front_and_counts():
    table = LruConnectionTable(capacity=2)
    assert table.get("nope") is None
    assert table.misses == 1
    table.put("a", 1)
    assert table.get("a") == 1
    assert table.hits == 1
    table.put("b", 2)
    table.get("a")              # refresh recency via get
    table.put("c", 3)           # evicts "b"
    assert "a" in table and "b" not in table


def test_invalidate_value_drops_all_pinned_flows():
    table = LruConnectionTable(capacity=10)
    for i in range(6):
        table.put(i, "backend-a" if i % 2 == 0 else "backend-b")
    dropped = table.invalidate_value("backend-a")
    assert dropped == 3
    assert len(table) == 3
    assert all(table.get(i) == "backend-b" for i in (1, 3, 5))
    # Idempotent: nothing left to drop.
    assert table.invalidate_value("backend-a") == 0
    # Invalidation is not an eviction.
    assert table.evictions == 0
