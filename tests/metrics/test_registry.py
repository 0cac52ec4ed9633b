"""MetricsRegistry: scoping, aggregation, series management."""

import json
import pickle

import pytest

from repro.metrics import MetricsRegistry
from repro.shard import counters_snapshot, merge_counters


def test_scoped_counters_are_cached():
    registry = MetricsRegistry()
    a = registry.scoped_counters("edge-1")
    b = registry.scoped_counters("edge-1")
    assert a is b


def test_aggregate_sums_across_scopes():
    registry = MetricsRegistry()
    registry.scoped_counters("edge-1").inc("rps", 10)
    registry.scoped_counters("edge-2").inc("rps", 5)
    registry.scoped_counters("origin-1").inc("rps", 99)
    assert registry.aggregate("rps", scope_prefix="edge-") == 15
    assert registry.aggregate("rps") == 114


def test_aggregate_with_tags():
    registry = MetricsRegistry()
    registry.scoped_counters("edge-1").inc("http_status", tag="500")
    registry.scoped_counters("edge-2").inc("http_status", 2, tag="500")
    registry.scoped_counters("edge-2").inc("http_status", 7, tag="200")
    assert registry.aggregate("http_status", "edge-", tag="500") == 3


def test_scopes_listing():
    registry = MetricsRegistry()
    registry.scoped_counters("b")
    registry.scoped_counters("a")
    registry.scoped_counters("ab")
    assert registry.scopes() == ["a", "ab", "b"]
    assert registry.scopes(prefix="a") == ["a", "ab"]


def test_series_created_on_first_use():
    registry = MetricsRegistry(bucket_width=2.0)
    assert not registry.has_series("x")
    series = registry.series("x")
    assert registry.has_series("x")
    assert series.bucket_width == 2.0
    assert registry.series("x") is series


def test_series_names_sorted():
    registry = MetricsRegistry()
    registry.series("rps/b")
    registry.series("rps/a")
    registry.series("errors")
    assert registry.series_names() == ["errors", "rps/a", "rps/b"]


def test_quantiles_accessor():
    registry = MetricsRegistry()
    registry.quantiles("latency").add(1.0)
    registry.quantiles("latency").add(3.0)
    assert registry.quantiles("latency").median == 2.0


def test_snapshot_is_plain_data_copied_out():
    registry = MetricsRegistry()
    registry.scoped_counters("edge-2").inc("rps", 5)
    registry.scoped_counters("edge-1").inc("http_status", 2, tag="500")
    registry.series("errors").record(3.5, 2.0)
    for sample in (3.0, 1.0, 2.0):
        registry.quantiles("latency").add(sample)
    snap = registry.snapshot()
    assert snap == {
        "global": {},
        "scoped": {"edge-1": {"http_status:500": 2.0},
                   "edge-2": {"rps": 5.0}},
        "series": {"errors": ({3: 2.0}, {3: 1})},
        "quantiles": {"latency": [3.0, 1.0, 2.0]},
    }
    assert list(snap["scoped"]) == ["edge-1", "edge-2"]
    assert pickle.loads(pickle.dumps(snap)) == snap
    # JSON has no tuples and no integer keys; counters have neither.
    assert json.loads(json.dumps(snap))["scoped"] == snap["scoped"]

    # The shard merge's form of the same counters; ``<global>`` only
    # once the unscoped set is non-empty (shardscale hashes this dict).
    counters = counters_snapshot(registry)
    assert counters == snap["scoped"]
    assert merge_counters([counters]) == counters

    # Copies, not views: later recording leaves a taken snapshot alone.
    taken = pickle.dumps(snap)
    registry.global_counters.inc("releases")
    registry.scoped_counters("edge-1").inc("http_status", tag="500")
    registry.series("errors").record(3.6)
    registry.quantiles("latency").add(0.5)
    assert registry.quantiles("latency").median == 1.5  # sorts in place
    assert snap == pickle.loads(taken)
    later = registry.snapshot()
    assert later["quantiles"] == {"latency": [0.5, 1.0, 2.0, 3.0]}
    assert counters_snapshot(registry) == {
        **later["scoped"], "<global>": {"releases": 1.0}}
