"""CohortPolicy / CohortSpec: the ladder, compilation, run-options knob."""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.cohorts import (
    COHORT_FIDELITIES,
    CohortPolicy,
    CohortSpec,
    compile_cohorts,
)
from repro.options import RunOptions, current, use


# -- policy ------------------------------------------------------------------


def test_policy_validation():
    CohortPolicy().validate()
    for bad in (dict(fidelity="exact"), dict(scale=0),
                dict(flows_per_representative=0),
                dict(min_representatives=0), dict(condense_below=0),
                dict(condense_per_event=-1)):
        with pytest.raises(ValueError):
            CohortPolicy(**bad).validate()


def test_policy_dict_round_trip():
    policy = CohortPolicy(fidelity="aggregate", scale=100,
                          flows_per_representative=25)
    assert CohortPolicy.from_dict(policy.to_dict()) == policy
    # Partial dicts (fuzz scenarios) fill in the defaults.
    assert CohortPolicy.from_dict({"scale": 4}).scale == 4


# -- the fidelity ladder ------------------------------------------------------


def test_auto_resolves_by_size():
    policy = CohortPolicy(fidelity="auto", condense_below=256)
    small = CohortSpec(name="c0", protocol="web", size=255)
    large = CohortSpec(name="c1", protocol="web", size=256)
    assert small.resolved_fidelity(policy) == "condensed"
    assert large.resolved_fidelity(policy) == "aggregate"


def test_forced_fidelity_wins_over_size():
    spec = CohortSpec(name="c0", protocol="web", size=4)
    for fidelity in ("condensed", "aggregate"):
        assert spec.resolved_fidelity(
            CohortPolicy(fidelity=fidelity)) == fidelity
    assert set(COHORT_FIDELITIES) == {"auto", "condensed", "aggregate"}


def test_representatives_floor_and_cap():
    policy = CohortPolicy(flows_per_representative=50,
                          min_representatives=4)
    # ceil(4000 / 50) = 80 representatives.
    assert CohortSpec("c0", "web", 4000).representatives(policy) == 80
    # The floor kicks in for small cohorts ...
    assert CohortSpec("c0", "web", 100).representatives(policy) == 4
    # ... but never exceeds the cohort itself.
    assert CohortSpec("c0", "web", 3).representatives(policy) == 3


# -- compilation --------------------------------------------------------------


def test_compile_cohorts_one_per_host_scaled():
    policy = CohortPolicy(scale=100)
    cohorts = compile_cohorts(policy, "web", per_host_count=40,
                              host_count=2)
    assert [c.name for c in cohorts] == ["c0", "c1"]
    assert all(c.size == 4000 and c.protocol == "web" for c in cohorts)


def test_compile_cohorts_skips_empty_workloads():
    assert compile_cohorts(CohortPolicy(), "quic", 0, 3) == []


# -- run-options knob (the CLI's --cohorts) ----------------------------------


def test_run_options_policy_applies_and_clears():
    with use(RunOptions(cohorts=CohortPolicy(scale=2))):
        assert current().cohorts == CohortPolicy(scale=2)
        deployment = Deployment(DeploymentSpec(
            seed=0, quic_workload=None, quic_client_hosts=0))
        assert deployment.cohort_set is not None
    assert current().cohorts is None
    assert Deployment(DeploymentSpec(seed=1)).cohort_set is None
