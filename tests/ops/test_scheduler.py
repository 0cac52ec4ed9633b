"""Wave planning: quiet-window picking, load-aware batch sizing, budget.

The planner's policy is module constants (``repro.ops.scheduler``); a
test that needs another value patches the constant.
"""

import pytest

from repro.ops import scheduler
from repro.ops.load import LoadShape, LoadShapeConfig
from repro.ops.scheduler import plan_release_waves
from repro.release.schedule import batch_fraction_for_load


def _diurnal_shape(day_length=100.0):
    return LoadShape(LoadShapeConfig(
        kind="diurnal", day_length=day_length, peak_scale=1.6,
        resolution=1.0))


@pytest.fixture
def plan(monkeypatch):
    """Four waves; ``plan(base_batch_fraction=0.3)`` patches the named
    constants on top of these."""

    def patch(**overrides):
        values = dict(waves=4, base_batch_fraction=0.25,
                      min_batch_fraction=0.05, max_batch_fraction=0.5)
        values.update(overrides)
        for name, value in values.items():
            monkeypatch.setattr(scheduler, name.upper(), value)

    patch()
    return patch


def test_batch_fraction_shrinks_with_load():
    # Full fraction at the trough, clamped smaller as load rises.
    at_trough = batch_fraction_for_load(0.4, 0.3, 0.4, 0.05, 0.5)
    at_peak = batch_fraction_for_load(1.6, 0.3, 0.4, 0.05, 0.5)
    assert at_trough == pytest.approx(0.3)
    assert at_peak == pytest.approx(0.3 * 0.4 / 1.6)
    assert at_peak < at_trough
    # Clamps hold at both ends.
    assert batch_fraction_for_load(100.0, 0.3, 0.4, 0.05, 0.5) == 0.05
    assert batch_fraction_for_load(0.001, 0.3, 0.4, 0.05, 0.5) == 0.5


def test_batch_fraction_for_load_validates():
    with pytest.raises(ValueError):
        batch_fraction_for_load(1.0, 0.0, 0.4, 0.05, 0.5)
    with pytest.raises(ValueError):
        batch_fraction_for_load(1.0, 0.3, 0.4, 0.6, 0.5)


def test_waves_land_in_their_slots_in_order(plan):
    shape = _diurnal_shape()
    waves = plan_release_waves(shape, start=0.0, horizon=100.0, targets=12)
    assert len(waves) == 4
    for index, wave in enumerate(waves):
        assert 0.0 + index * 25.0 <= wave.start < (index + 1) * 25.0
        assert wave.load_scale == pytest.approx(
            shape.scale_at(wave.start))


def test_peak_slot_gets_smaller_batches_than_trough_slot(plan):
    # Slot 0 contains the trough (day start), slot 1/2 the mid-day peak.
    plan(base_batch_fraction=0.3)
    waves = plan_release_waves(_diurnal_shape(), 0.0, 100.0, 12)
    trough_wave = waves[0]
    peak_wave = max(waves, key=lambda w: w.load_scale)
    assert peak_wave.batch_fraction < trough_wave.batch_fraction
    # Each wave also starts at the quietest moment of its own slot.
    shape = _diurnal_shape()
    for index, wave in enumerate(waves):
        slot = [shape.scale_at(t / 10.0)
                for t in range(int(index * 250), int((index + 1) * 250))]
        assert wave.load_scale <= min(slot) + 1e-9


def test_plans_are_deterministic(plan):
    a = plan_release_waves(_diurnal_shape(), 0.0, 100.0, 12)
    b = plan_release_waves(_diurnal_shape(), 0.0, 100.0, 12)
    assert a == b


def test_error_budget_shrinks_the_costliest_waves(plan):
    plan(base_batch_fraction=0.5)
    unfit = plan_release_waves(_diurnal_shape(), 0.0, 100.0, 12)
    fit = plan_release_waves(_diurnal_shape(), 0.0, 100.0, 12,
                             disruption_per_target=10.0, error_budget=30.0)
    assert sum(w.batch_fraction for w in fit) < \
        sum(w.batch_fraction for w in unfit)
    assert all(w.batch_fraction >= 0.05 for w in fit)
    # Start times are untouched by the budget pass — only sizes shrink.
    assert [w.start for w in fit] == [w.start for w in unfit]


def test_budget_fitting_stops_at_the_floor(plan):
    plan(waves=2, base_batch_fraction=0.4, min_batch_fraction=0.1)
    waves = plan_release_waves(_diurnal_shape(), 0.0, 100.0, 8,
                               disruption_per_target=1000.0,
                               error_budget=1.0)  # unsatisfiable
    assert all(w.batch_fraction == pytest.approx(0.1) for w in waves)


def test_planner_input_validation():
    shape = _diurnal_shape()
    with pytest.raises(ValueError):
        plan_release_waves(shape, 0.0, 100.0, 0)
    with pytest.raises(ValueError):
        plan_release_waves(shape, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        plan_release_waves(shape, 0.0, 100.0, 4, disruption_per_target=-1.0)
