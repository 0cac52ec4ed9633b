"""Sharded parallel simulation: independent regions across workers.

Drives :func:`repro.shard.run_sharded` with the shard-independent spec
shape (``failover=False``, ``local_broker_homing=True``,
``partition_network_rng=True`` — see :mod:`repro.shard`): every region
serves from home-region brokers only, clients never re-resolve across
regions, and each source site draws jitter/loss from its own RNG
stream.  Under that shape the merged counter snapshot is a pure
function of the spec — **not** of the shard count — so running this
experiment with ``--shards 1`` and ``--shards 2`` must print
byte-identical results (the CI shard-smoke job diffs exactly that; the
differential suite in ``tests/shard`` asserts the same identity on the
raw snapshots).

The printed scalars are all derived from the merged counters: totals
would drift on any nondeterminism, and the ``counters_sha256`` param
pins the *entire* snapshot, so a single flipped counter anywhere in
either region fails the byte-diff.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from ..options import RunOptions
from ..regions import RegionalSpec
from ..shard import run_sharded
from .common import ExperimentResult

__all__ = ["run"]

REGIONS = 2
HORIZON = 30.0


def _sum(counters: dict, scope_prefix: str, key: str) -> float:
    """Sum one counter family (untagged plus every ``key:tag``) over all
    scopes starting with ``scope_prefix`` in a merged snapshot."""
    total = 0.0
    tagged = key + ":"
    for scope, values in counters.items():
        if not scope.startswith(scope_prefix):
            continue
        for name, value in values.items():
            if name == key or name.startswith(tagged):
                total += value
    return total


def _digest(counters: dict) -> str:
    """A stable fingerprint of the full merged snapshot."""
    canonical = repr(sorted(
        (scope, sorted(values.items()))
        for scope, values in counters.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run(seed: int = 0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    shards = options.shards or 1
    spec = RegionalSpec(
        seed=seed,
        regions=REGIONS,
        failover=False,
        local_broker_homing=True,
        partition_network_rng=True,
    )
    # Fault plans do not shard (run_sharded rejects them, so a
    # `--faults` chaos sweep over `all` must not abort here): run
    # without the plan and label the skip.
    outcome = run_sharded(spec, until=HORIZON, shards=shards,
                          options=replace(options, fault_plan=None))
    counters = outcome.counters

    result = ExperimentResult(
        name="shardscale: sharded regions merge bit-identically",
        params={"seed": seed, "regions": REGIONS, "horizon": HORIZON,
                "shards": shards,
                "counters_sha256": _digest(counters)},
        runs=outcome.runs)
    if options.fault_plan is not None:
        result.params["faults"] = "skipped (fault plans do not shard)"

    web_ok = {
        region: (_sum(counters, f"web-clients-{region}", "get_ok")
                 + _sum(counters, f"web-clients-{region}", "post_ok"))
        for region in (f"r{i}" for i in range(REGIONS))
    }
    result.scalars["web.ok"] = sum(web_ok.values())
    for region, ok in sorted(web_ok.items()):
        result.scalars[f"web.ok[{region}]"] = ok
    result.scalars["web.get_ok"] = _sum(counters, "web-clients", "get_ok")
    result.scalars["web.post_ok"] = _sum(counters, "web-clients", "post_ok")
    result.scalars["mqtt.sessions"] = _sum(
        counters, "mqtt-clients", "sessions_established")
    result.scalars["mqtt.publishes_received"] = _sum(
        counters, "mqtt-clients", "publishes_received")
    result.scalars["counter.scopes"] = len(counters)
    result.scalars["counter.keys"] = sum(
        len(values) for values in counters.values())
    result.scalars["invariant.violations"] = len(outcome.violations)

    result.claims["no_invariant_violations"] = not outcome.violations
    result.claims["every_region_serves"] = all(
        ok > 0 for ok in web_ok.values())
    result.claims["mqtt_sessions_in_every_region"] = all(
        _sum(counters, f"mqtt-clients-{region}", "sessions_established") > 0
        for region in web_ok)
    # failover=False: the resolvers must never route cross-region.
    result.claims["no_cross_region_failover"] = (
        _sum(counters, "anycast", "failover_route") == 0)
    return result
