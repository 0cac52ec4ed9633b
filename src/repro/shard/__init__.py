"""Sharded parallel simulation of independent regions.

A multi-region deployment (:mod:`repro.regions`) whose regions share no
runtime edges — ``failover=False`` pins clients and PoPs to their home
region, ``shardable=True`` keeps MQTT sessions on home-region brokers
and gives every source site its own jitter/loss stream — factors into per-region simulations that can run
in parallel worker processes.  The runner here exploits that:

* Every worker builds the **full** topology (so IP assignment, host
  names, rings and salts are bit-identical to a combined run) but
  *starts* only its own regions — nothing else spawns a process, so
  the unstarted remainder is inert scaffolding.
* The merge is a **conservative deterministic sum**: workers are merged
  in shard order, and each counter key is summed across workers.  With
  independent regions every scope is live in exactly one worker, so the
  sum *is* the union — the differential suite (``tests/shard``) proves
  the merged snapshot of an N-shard run equals the 1-shard run
  bit-for-bit, invariant verdicts included.

What does **not** shard (yet): fault plans and release drivers — both
are deployment-global mechanisms, so :func:`repro.shard.runner.run_sharded`
rejects run options that carry a fault plan outright rather than let
every worker inject the same fault once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShardPlan", "ShardResult", "counters_snapshot",
           "merge_counters", "run_sharded"]

@dataclass(frozen=True)
class ShardPlan:
    """Deterministic assignment of region names to shard workers.

    Regions are dealt round-robin by index (shard ``i`` gets regions
    ``i, i+N, i+2N, ...``) — a pure function of (region count, shard
    count), so every worker derives the same plan independently.
    """

    region_names: tuple
    shards: int

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.shards > len(self.region_names):
            raise ValueError(
                f"{self.shards} shards for {len(self.region_names)} "
                f"regions: shards must not exceed regions")

    @classmethod
    def for_spec(cls, spec, shards: int) -> "ShardPlan":
        """Plan for a :class:`repro.regions.RegionalSpec` (regions are
        named ``r0..r{n-1}`` by the builder)."""
        return cls(tuple(f"r{i}" for i in range(spec.regions)), shards)

    def regions_for(self, shard: int) -> list:
        return list(self.region_names[shard::self.shards])


@dataclass
class ShardResult:
    """The merged outcome of a (possibly sharded) regional run."""

    #: ``{scope: {counter_key: value}}`` summed across shards; the
    #: pseudo-scope ``<global>`` carries the unscoped counters.
    counters: dict
    #: ``(checker, message)`` pairs from every shard's invariant suite,
    #: sorted — empty on a healthy run.
    violations: list
    #: Per-shard kernel stats (``Environment.stats()``), in shard
    #: order (informational; event ids are per-worker, not comparable
    #: across shard counts).
    shard_stats: list
    #: The record (``repro.run.RunRecord``) of the in-process run of a
    #: 1-shard call; a forked worker's record stays in the worker.
    runs: list = field(default_factory=list)


def counters_snapshot(metrics) -> dict:
    """Every counter of a run as ``{scope: {key: value}}``.

    The unscoped (deployment-global) counter set lands under the
    pseudo-scope ``<global>`` — chosen because ``<`` cannot appear in a
    component scope name.
    """
    snap = metrics.snapshot()
    counters = snap["scoped"]
    if snap["global"]:
        counters["<global>"] = snap["global"]
    return counters


def merge_counters(snapshots: list) -> dict:
    """Sum counter snapshots in shard order (see module docstring)."""
    merged: dict = {}
    for snap in snapshots:
        for scope, counters in snap.items():
            dest = merged.setdefault(scope, {})
            for key, value in counters.items():
                dest[key] = dest.get(key, 0) + value
    return merged


def run_sharded(*args, **kwargs):
    """See :func:`repro.shard.runner.run_sharded` (lazy import: the
    runner pulls in multiprocessing and the full topology stack)."""
    from .runner import run_sharded as _run
    return _run(*args, **kwargs)
