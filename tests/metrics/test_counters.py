"""Tests for counters and counter sets."""

import pytest

from repro.metrics import Counter, CounterSet


def test_counter_increments():
    c = Counter("requests")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_decrease():
    c = Counter("requests")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counterset_basic():
    counters = CounterSet()
    counters.inc("tcp_rst")
    counters.inc("tcp_rst")
    assert counters.get("tcp_rst") == 2
    assert counters.get("never_touched") == 0


def test_counterset_tags():
    counters = CounterSet()
    counters.inc("http_status", tag="200", amount=10)
    counters.inc("http_status", tag="500", amount=3)
    counters.inc("http_status", tag="379")
    assert counters.get("http_status", tag="500") == 3
    assert counters.with_tag_prefix("http_status") == {
        "200": 10.0, "500": 3.0, "379": 1.0}


def test_get_missing_allocates_nothing():
    """``get`` on a never-incremented counter returns 0.0 without
    creating the counter (the old implementation allocated a throwaway
    Counter per miss — a leak under per-request cardinality)."""
    counters = CounterSet()
    assert counters.get("never", tag="seen") == 0.0
    assert counters.snapshot() == {}
    assert counters._by_pair == {}
    # And the result type is a float, not an int or Counter.
    assert isinstance(counters.get("never"), float)


def test_bound_handle_is_the_live_counter():
    counters = CounterSet()
    bound = counters.bound("rps")
    bound.inc()
    counters.inc("rps", 2)
    assert counters.get("rps") == 3.0
    assert bound.value == 3.0
    # Same pair → the very same object, not a per-call wrapper.
    assert counters.bound("rps") is bound
    assert counters.counter("rps") is bound


def test_tag_key_collision_aliases_one_counter():
    """Pinned flattening caveat: keys are ``prefix + name[:tag]``, so
    ``("a", tag="b:c")`` and ``("a:b", tag="c")`` (and the untagged
    ``"a:b:c"``) all alias the *same* counter."""
    counters = CounterSet()
    counters.inc("a", tag="b:c")
    counters.inc("a:b", tag="c")
    counters.inc("a:b:c")
    assert counters.snapshot() == {"a:b:c": 3.0}
    assert counters.get("a", tag="b:c") == 3.0
    assert counters.get("a:b", tag="c") == 3.0
    assert counters.get("a:b:c") == 3.0
    # The pair cache keeps distinct (name, tag) entries but they share
    # one underlying Counter object.
    assert (counters.counter("a", tag="b:c")
            is counters.counter("a:b", tag="c"))


def test_pair_cache_does_not_bypass_validation():
    """The cached-pair fast path in ``inc`` must still reject negative
    amounts, same as the slow path."""
    counters = CounterSet()
    counters.inc("rps")  # populate the pair cache
    with pytest.raises(ValueError):
        counters.inc("rps", amount=-1)
    assert counters.get("rps") == 1.0
