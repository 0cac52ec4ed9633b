"""Release schedule model: cadences, causes, hours, completion model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.release import (
    L7LB_ROOT_CAUSES,
    ReleaseScheduleModel,
    ReleaseTraceConfig,
    completion_time_model,
)
from repro.simkernel import RandomStreams


def small_trace(seed=0, weeks=4, clusters=3):
    return ReleaseScheduleModel(
        ReleaseTraceConfig(weeks=weeks, clusters=clusters),
        seed=seed).generate()


def test_trace_deterministic_per_seed():
    a = small_trace(seed=5)
    b = small_trace(seed=5)
    assert len(a.events) == len(b.events)
    assert a.cause_histogram() == b.cause_histogram()


def test_different_seeds_differ():
    assert len(small_trace(seed=1).events) != len(small_trace(seed=2).events)


def test_event_fields_valid():
    trace = small_trace()
    for event in trace.events:
        assert event.tier in ("l7lb", "appserver")
        assert 0 <= event.hour_of_day < 24
        assert 10 <= event.commits <= 100
        assert 0 <= event.cluster < 3
        assert 0 <= event.week < 4


def test_l7lb_causes_are_known():
    trace = small_trace(weeks=13, clusters=10)
    known = {cause for cause, _ in L7LB_ROOT_CAUSES}
    assert set(trace.cause_histogram()) <= known


def test_releases_per_week_includes_zero_cells():
    trace = small_trace(weeks=2, clusters=2)
    weekly = trace.releases_per_week("l7lb")
    assert len(weekly) == 4  # clusters × weeks cells, zero-filled


def test_hour_pdf_sums_to_one():
    trace = small_trace(weeks=13, clusters=10)
    for tier in ("l7lb", "appserver"):
        pdf = trace.hour_of_day_pdf(tier)
        assert sum(pdf) == pytest.approx(1.0)
        assert len(pdf) == 24


def test_completion_model_basic():
    # 5 batches × (drain 100 + overhead 10) = 550.
    assert completion_time_model(
        machines=50, batch_fraction=0.2, drain_duration=100,
        restart_overhead=10) == pytest.approx(550)


def test_completion_model_fewer_machines_than_batches():
    # 3 machines at 10% batches: capped at 3 batches.
    assert completion_time_model(
        machines=3, batch_fraction=0.1, drain_duration=10,
        restart_overhead=0) == pytest.approx(30)


def test_completion_model_jitter_increases_time():
    rng = RandomStreams(3).stream("jitter")
    base = completion_time_model(10, 0.5, 100, 10)
    jittered = completion_time_model(10, 0.5, 100, 10, rng=rng)
    assert base < jittered < base * 1.5


@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0, max_value=10_000),
       st.floats(min_value=0, max_value=1_000))
@settings(max_examples=50)
def test_completion_model_monotone_in_drain(machines, fraction, drain,
                                            overhead):
    shorter = completion_time_model(machines, fraction, drain, overhead)
    longer = completion_time_model(machines, fraction, drain + 1, overhead)
    assert longer >= shorter
    assert shorter >= 0
