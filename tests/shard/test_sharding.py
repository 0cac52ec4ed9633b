"""The sharded runner's headline proof: N-shard == 1-shard, bit for bit.

A shard-independent regional spec (``failover=False``,
``shardable=True``) factors into per-region simulations.  Running it through
:func:`repro.shard.run_sharded` with 1 worker (in-process) and with 2
forked workers must merge to the *same* counter snapshot — every scope,
every key, every value — and the same invariant verdicts.  Identical,
not statistically close: that is what licenses using the sharded runner
for figure-scale sweeps at all.
"""

import pytest

from repro.faults import builtin_plan
from repro.options import RunOptions
from repro.regions import RegionalSpec
from repro.shard import ShardPlan, run_sharded

HORIZON = 30.0


def _spec(seed: int, regions: int = 2) -> RegionalSpec:
    return RegionalSpec(
        seed=seed,
        regions=regions,
        failover=False,
        shardable=True,
    )


# -- plan mechanics -----------------------------------------------------------


def test_plan_deals_regions_round_robin():
    plan = ShardPlan(("r0", "r1", "r2", "r3", "r4"), shards=2)
    assert plan.regions_for(0) == ["r0", "r2", "r4"]
    assert plan.regions_for(1) == ["r1", "r3"]
    # Every region lands in exactly one shard.
    dealt = plan.regions_for(0) + plan.regions_for(1)
    assert sorted(dealt) == sorted(plan.region_names)


def test_plan_for_spec_uses_builder_names():
    plan = ShardPlan.for_spec(_spec(0, regions=3), shards=3)
    assert plan.region_names == ("r0", "r1", "r2")
    assert [plan.regions_for(i) for i in range(3)] == \
        [["r0"], ["r1"], ["r2"]]


def test_plan_rejects_bad_shard_counts():
    with pytest.raises(ValueError):
        ShardPlan(("r0",), shards=0)
    with pytest.raises(ValueError):
        ShardPlan(("r0",), shards=2)


def test_starting_an_unknown_region_fails_loudly():
    from repro.regions import RegionalDeployment

    deployment = RegionalDeployment(_spec(0))
    deployment.start(only_regions=["nowhere"])
    with pytest.raises(KeyError):
        deployment.env.run(until=1.0)


# -- the differential ---------------------------------------------------------


@pytest.mark.parametrize("seed", (0, 5))
def test_two_shards_merge_bit_identical_to_one(seed):
    base = run_sharded(_spec(seed), until=HORIZON, shards=1)
    sharded = run_sharded(_spec(seed), until=HORIZON, shards=2)

    assert base.violations == []
    assert sharded.violations == []
    assert base.counters == sharded.counters, (
        f"seed {seed}: merged counter snapshots diverged between "
        f"1-shard and 2-shard runs")


def test_differential_is_not_vacuous():
    """The merged snapshot genuinely carries both regions' work."""
    outcome = run_sharded(_spec(0), until=HORIZON, shards=2)
    scopes = set(outcome.counters)
    for region in ("r0", "r1"):
        web = [s for s in scopes if s.startswith(f"web-clients-{region}")]
        assert web, f"no web client scope for {region}"
        assert any(outcome.counters[s].get("get_ok", 0) > 0 for s in web)
    assert len(outcome.shard_stats) == 2
    assert all(stats["events"] > 0 for stats in outcome.shard_stats)


def test_run_options_fault_plan_is_rejected():
    options = RunOptions(
        fault_plan=builtin_plan("hc-flap-storm", at=1.0, duration=5.0))
    with pytest.raises(ValueError, match="do not shard"):
        run_sharded(_spec(0), until=5.0, shards=2, options=options)
