"""Canary judgment: the pure verdict and the windowed gate protocol."""

import pytest

from repro.metrics import CounterSet
from repro.ops.canary import (
    ERROR_STATUS_TAGS,
    CanaryConfig,
    CanaryController,
    judge_window,
)
from repro.release import RollingRelease, RollingReleaseConfig
from repro.simkernel import Environment


def _config(**overrides):
    defaults = dict(judgment_window=5.0, hold_window=2.0, min_requests=5.0)
    defaults.update(overrides)
    return CanaryConfig(**defaults)


# -- judge_window: the pure comparison ----------------------------------------


def test_bad_canary_against_clean_control_aborts():
    verdict, canary_ratio, control_ratio = judge_window(
        80.0, 20.0, 100.0, 0.0)
    assert verdict == "abort"
    assert canary_ratio == pytest.approx(0.2)
    assert control_ratio == 0.0


def test_fleet_wide_burn_does_not_scapegoat_the_canary():
    # Both groups at 20% errors: a shared dependency is down, not the
    # canary binary — REGRESSION_FACTOR × control sets the bar at 60%.
    verdict, _, _ = judge_window(80.0, 20.0, 80.0, 20.0)
    assert verdict == "proceed"


def test_errors_below_absolute_threshold_never_abort():
    verdict, _, _ = judge_window(99.0, 1.0, 100.0, 0.0)
    assert verdict == "proceed"  # 1% < 5% floor


def test_zero_traffic_ratios_are_zero_not_nan():
    verdict, canary_ratio, control_ratio = judge_window(
        0.0, 0.0, 0.0, 0.0)
    assert verdict == "proceed"
    assert canary_ratio == control_ratio == 0.0


def test_503_is_not_a_canary_error_tag():
    # Backpressure is a load signal the control group shares; only
    # binary-badness statuses may trip the gate.
    assert "503" not in ERROR_STATUS_TAGS
    assert set(ERROR_STATUS_TAGS) == {"500", "400", "rogue"}


def test_config_validation():
    for bad in (dict(judgment_window=0.0), dict(hold_window=-1.0),
                dict(min_requests=-1.0)):
        with pytest.raises(ValueError):
            _config(**bad).validate()


# -- the gate protocol over sim time ------------------------------------------


class CountedTarget:
    """A release target whose request counters tick at a scripted rate.

    ``error_rate`` may be swapped mid-run (the ticker re-reads it), which
    is how tests flip a target bad after its "release".  It counts
    them as HTTP 200s and 500s, which the gate's probe reads."""

    def __init__(self, env, name, ok_rate=10.0, error_rate=0.0):
        self.env = env
        self.name = name
        self.ok_rate = ok_rate
        self.error_rate = error_rate
        self.counters = CounterSet()
        env.process(self._tick())

    def _tick(self):
        while True:
            yield self.env.timeout(1.0)
            self.counters.inc("http_status", self.ok_rate, tag="200")
            self.counters.inc("http_status", self.error_rate, tag="500")

    def release(self):
        yield self.env.timeout(0.5)


class FakeRecord:
    def __init__(self, index=0):
        self.index = index


class FakeRelease:
    def __init__(self, targets):
        self.targets = targets
        self.completed_targets = []
        self.failed_targets = []


def _review(env, gate, release, batch, record):
    result = {}

    def run():
        result["verdict"] = yield from gate.review(release, batch, record)

    env.run(until=env.process(run()))
    return result["verdict"]


def test_healthy_canary_proceeds_after_one_window():
    env = Environment()
    targets = [CountedTarget(env, f"t{i}") for i in range(4)]
    gate = CanaryController(env, _config())
    verdict = _review(env, gate, FakeRelease(targets), targets[:1],
                      FakeRecord(0))
    assert verdict == "proceed"
    assert env.now == 5.0  # exactly one judgment window
    decision = gate.decisions[0]
    assert decision["reason"] == "within_threshold"
    # Ticks at t=1..4 land inside the window (the t=5 tick races the
    # window-end timeout and is scheduled behind it).
    assert decision["canary_ok"] == pytest.approx(40.0)


def test_bad_canary_aborts_with_recorded_ratios():
    env = Environment()
    targets = [CountedTarget(env, f"t{i}") for i in range(4)]
    targets[0].error_rate = 5.0  # 33% errors on the canary
    gate = CanaryController(env, _config())
    verdict = _review(env, gate, FakeRelease(targets), targets[:1],
                      FakeRecord(0))
    assert verdict == "abort"
    decision = gate.decisions[0]
    assert decision["reason"] == "error_ratio"
    assert decision["canary_ratio"] == pytest.approx(1 / 3)
    assert decision["control_ratio"] == 0.0


def test_low_traffic_holds_then_gives_benefit_of_the_doubt():
    env = Environment()
    targets = [CountedTarget(env, f"t{i}", ok_rate=0.1) for i in range(4)]
    gate = CanaryController(env, _config())
    verdict = _review(env, gate, FakeRelease(targets), targets[:1],
                      FakeRecord(0))
    assert verdict == "proceed"
    assert gate.decisions[0]["reason"] == "insufficient_samples"
    # 3 judgment windows interleaved with MAX_HOLDS = 2 holds.
    assert env.now == pytest.approx(3 * 5.0 + 2 * 2.0)


def test_batches_past_the_gate_are_waved_through():
    env = Environment()
    targets = [CountedTarget(env, f"t{i}") for i in range(4)]
    gate = CanaryController(env, _config())
    verdict = _review(env, gate, FakeRelease(targets), targets[2:],
                      FakeRecord(1))
    assert verdict == "proceed"
    assert env.now == 0.0  # no window consumed
    assert not gate.decisions


def test_gate_abstains_without_a_control_group():
    env = Environment()
    targets = [CountedTarget(env, f"t{i}") for i in range(2)]
    gate = CanaryController(env, _config())
    verdict = _review(env, gate, FakeRelease(targets), targets,
                      FakeRecord(0))
    assert verdict == "proceed"
    assert gate.decisions[0]["reason"] == "no_comparison"


def test_failed_targets_are_excluded_from_the_canary_group():
    env = Environment()
    targets = [CountedTarget(env, f"t{i}") for i in range(4)]
    targets[0].error_rate = 100.0  # would trip the gate if counted
    release = FakeRelease(targets)
    release.failed_targets = ["t0"]  # but its restart never finished
    gate = CanaryController(env, _config())
    verdict = _review(env, gate, release, targets[:2], FakeRecord(0))
    assert verdict == "proceed"


def test_default_probe_reads_status_counters():
    from repro.ops.canary import _probe

    class Counters:
        def __init__(self, values):
            self.values = values

        def get(self, name, tag=None):
            return self.values.get((name, tag), 0.0)

    class Target:
        def __init__(self, values):
            self.counters = Counters(values)

    target = Target({("http_status", "200"): 90.0,
                     ("http_status", "500"): 4.0,
                     ("http_status", "rogue"): 3.0,
                     ("http_status", "503"): 50.0,
                     ("responses_truncated", None): 2.0})
    ok, err = _probe([target, object()])  # counter-less skipped
    assert ok == 90.0
    assert err == 9.0  # 500 + rogue + truncated; 503 excluded


# -- end to end through the orchestrator's gate hook --------------------------


def test_gate_abort_stops_and_rolls_back_a_real_release():
    env = Environment()
    targets = [CountedTarget(env, f"t{i}") for i in range(4)]

    flipped = []

    class FlippingTarget(CountedTarget):
        def release(self):
            yield self.env.timeout(0.5)
            self.error_rate = 5.0  # the new binary is bad
            flipped.append(self.name)

    targets[0] = FlippingTarget(env, "t0")
    gate = CanaryController(env, _config())
    release = RollingRelease(env, targets, RollingReleaseConfig(
        batch_fraction=0.25, rollback_on_abort=True), gate=gate)
    env.run(until=env.process(release.execute()))
    assert release.aborted and release.abort_reason == "canary"
    assert release.rolled_back == ["t0"]
    assert len(release.batches) == 1  # stopped after the canary batch
    assert flipped == ["t0", "t0"]  # release + rollback restart
