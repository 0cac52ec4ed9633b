"""FaultPlan/FaultSpec validation and the built-in incident plans."""

import pytest

from repro.faults import (
    BUILTIN_PLANS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    builtin_plan,
)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor_strike").validate()


def test_schedule_validated():
    with pytest.raises(ValueError, match="non-negative"):
        FaultSpec("hc_flap", at=-1.0).validate()
    with pytest.raises(ValueError, match="duration"):
        FaultSpec("hc_flap", duration=0.0).validate()
    # None duration = persists to the end of the run.
    FaultSpec("hc_flap", duration=None).validate()


def test_link_degradation_needs_site_pair():
    with pytest.raises(ValueError, match="src_site:dst_site"):
        FaultSpec("link_degradation", where="edge-proxy-*").validate()
    FaultSpec("link_degradation", where="client:edge").validate()


def test_sample_param_bounds():
    with pytest.raises(ValueError, match="sample"):
        FaultSpec("hc_flap", params={"sample": 0.0}).validate()
    with pytest.raises(ValueError, match="sample"):
        FaultSpec("hc_flap", params={"sample": 1.5}).validate()
    FaultSpec("hc_flap", params={"sample": 0.5}).validate()


def test_plan_validates_all_specs():
    plan = FaultPlan("mixed", [FaultSpec("hc_flap"),
                               FaultSpec("bogus")])
    with pytest.raises(ValueError):
        plan.validate()
    with pytest.raises(ValueError, match="name"):
        FaultPlan("", [FaultSpec("hc_flap")]).validate()


def test_builtin_plans_all_valid():
    for name in BUILTIN_PLANS:
        plan = builtin_plan(name, at=3.0, duration=10.0)
        assert plan.name == name
        assert plan.description
        assert len(plan.specs) >= 1
        for spec in plan.specs:
            assert spec.kind in FAULT_KINDS
            assert spec.at == 3.0


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown fault plan"):
        builtin_plan("nope")
