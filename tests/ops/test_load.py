"""Load shapes: compiled tables, O(1) sampling, bounded controllers."""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.ops import load
from repro.ops.load import (
    LOAD_SHAPE_KINDS,
    MIN_SCALE,
    LoadController,
    LoadShape,
    LoadShapeConfig,
    named_load_shape,
)
from repro.options import RunOptions
from repro.simkernel import Environment


def _diurnal(**overrides):
    defaults = dict(kind="diurnal", day_length=20.0, trough_scale=0.5,
                    peak_scale=1.5, peak_at=0.5, resolution=2.0)
    defaults.update(overrides)
    return LoadShapeConfig(**defaults)


# -- compilation and sampling -------------------------------------------------


def test_diurnal_peak_and_trough_match_config():
    shape = LoadShape(_diurnal())
    assert shape.trough() == pytest.approx(0.5, abs=0.1)
    assert shape.peak() == pytest.approx(1.5, abs=0.1)
    # Peak sits mid-day, trough at the day boundary.
    assert shape.scale_at(10.0) > shape.scale_at(0.0)


def test_diurnal_is_periodic():
    shape = LoadShape(_diurnal())
    for t in (0.3, 5.0, 13.7):
        assert shape.scale_at(t) == shape.scale_at(t + 20.0)
        assert shape.scale_at(t) == shape.scale_at(t + 200.0)


def test_flash_crowd_spikes_then_returns_to_baseline():
    config = LoadShapeConfig(kind="flash_crowd", flash_at=10.0,
                             flash_ramp=2.0, flash_hold=5.0,
                             flash_scale=3.0, resolution=1.0)
    shape = LoadShape(config)
    assert shape.scale_at(5.0) == pytest.approx(1.0)
    assert shape.scale_at(14.0) == pytest.approx(3.0)
    # Past the horizon a non-periodic shape clamps to its last value.
    assert shape.scale_at(1000.0) == pytest.approx(1.0)


def test_herd_holds_clients_off_then_reconnects_hot():
    config = LoadShapeConfig(kind="post_outage_herd", outage_at=10.0,
                             outage_duration=5.0, herd_scale=2.5,
                             herd_decay=5.0, resolution=1.0)
    shape = LoadShape(config)
    assert shape.scale_at(12.0) == pytest.approx(MIN_SCALE)
    assert shape.scale_at(15.6) > 2.0
    assert shape.scale_at(1000.0) == pytest.approx(1.0, abs=0.05)


def test_scale_never_below_floor(monkeypatch):
    monkeypatch.setattr(load, "BASE_SCALE", 0.01)
    config = LoadShapeConfig(kind="diurnal", trough_scale=0.001,
                             peak_scale=1.0)
    shape = LoadShape(config)
    assert shape.trough() >= MIN_SCALE


def test_config_validation():
    for bad in (dict(kind="lunar"), dict(resolution=0.0),
                dict(trough_scale=0.0),
                dict(trough_scale=2.0, peak_scale=1.0)):
        with pytest.raises(ValueError):
            LoadShape(_diurnal(**bad))


def test_named_shapes_cover_all_kinds():
    for kind in LOAD_SHAPE_KINDS:
        LoadShape(named_load_shape(kind, 60.0))
    with pytest.raises(ValueError):
        named_load_shape("sawtooth")


# -- next_change: the controller's wake-up contract ---------------------------


def test_next_change_reaches_a_different_value():
    shape = LoadShape(_diurnal())
    now = 0.3
    delay = shape.next_change(now)
    assert delay is not None and delay > 0
    assert shape.scale_at(now + delay) != shape.scale_at(now)


def test_next_change_none_once_constant():
    config = LoadShapeConfig(kind="flash_crowd", flash_at=5.0,
                             flash_ramp=1.0, flash_hold=2.0,
                             flash_scale=2.0, resolution=1.0)
    shape = LoadShape(config)
    assert shape.next_change(100.0) is None
    # A flat (degenerate) diurnal day has no changes either.
    flat = LoadShape(_diurnal(trough_scale=1.0, peak_scale=1.0))
    assert flat.next_change(3.0) is None


def test_next_change_is_always_positive_walking_any_shape():
    """A controller advancing by next_change must always make progress."""
    for kind in LOAD_SHAPE_KINDS:
        for horizon in (31.607, 47.0, 60.0):
            shape = LoadShape(named_load_shape(kind, horizon))
            now, steps = 0.0, 0
            while steps < 5000:
                delay = shape.next_change(now)
                if delay is None:
                    break
                assert delay > 0, (kind, horizon, now)
                now += delay
                steps += 1
            if shape.periodic:
                assert now > 3 * horizon  # walked well past several days
            else:
                assert delay is None  # converged to the constant tail


def test_next_change_float_bucket_edge_regression():
    """now exactly on a bucket edge must not collapse the delay to 0.

    (int(now / res) rounds the edge into the previous bucket, making
    ``edge - now`` exactly 0.0 — this hung the LoadController forever.)
    """
    shape = LoadShape(named_load_shape("diurnal", 31.607))
    delay = shape.next_change(16.33028333333333)
    assert delay is not None and delay > 0


# -- LoadController: bounded update cadence -----------------------------------


class FakePopulation:
    kind = "web"

    def __init__(self, kind=None):
        if kind is not None:
            self.kind = kind
        self.rate_scale = 1.0
        self.applied = []

    def set_rate_scale(self, scale):
        self.rate_scale = max(0.01, scale)
        self.applied.append(scale)


def _table_transitions(shape, start, end):
    """Value changes of the compiled table over (start, end]."""
    res = shape.config.resolution
    changes, t = 0, start
    current = shape.scale_at(start)
    while t < end:
        t += res
        value = shape.scale_at(t)
        if value != current:
            changes += 1
            current = value
    return changes


def test_controller_updates_track_table_changes_exactly():
    env = Environment()
    shape = LoadShape(_diurnal())
    population = FakePopulation()
    controller = LoadController(env, shape, [population])
    controller.start()
    env.run(until=20.0)
    # One initial apply plus one wake per table-value change.
    assert controller.updates == 1 + _table_transitions(shape, 0.0, 19.99)
    assert population.rate_scale == pytest.approx(shape.scale_at(19.99))


def test_controller_cadence_is_independent_of_event_rate():
    """The hot path is one attribute read: a busy sim must not add
    controller updates beyond the table's own transitions."""

    def run(busy):
        env = Environment()
        controller = LoadController(env, LoadShape(_diurnal()),
                                    [FakePopulation()])
        controller.start()
        if busy:
            def churn():
                while True:
                    yield env.timeout(0.01)
            env.process(churn())
        env.run(until=20.0)
        return controller.updates

    assert run(busy=False) == run(busy=True)


def test_controller_stops_when_shape_goes_constant():
    env = Environment()
    config = LoadShapeConfig(kind="flash_crowd", flash_at=3.0,
                             flash_ramp=1.0, flash_hold=2.0,
                             flash_scale=2.0, resolution=1.0)
    controller = LoadController(env, LoadShape(config), [FakePopulation()])
    process = controller.start()
    env.run(until=100.0)
    assert not process.is_alive
    final_updates = controller.updates
    env.run(until=200.0)
    assert controller.updates == final_updates


def test_controller_skips_none_populations():
    env = Environment()
    controller = LoadController(env, LoadShape(_diurnal()),
                                [None, FakePopulation(), None])
    assert len(controller.populations) == 1


# -- APPLIES_TO: rate scales are per-population -------------------------------


def test_controller_scales_only_the_selected_kind(monkeypatch):
    """Regression: a diurnal shape on web traffic must not scale MQTT
    herds — the controller drives only populations whose ``kind``
    matches the ``APPLIES_TO`` selector."""
    monkeypatch.setattr(load, "APPLIES_TO", "web")
    env = Environment()
    web = FakePopulation("web")
    mqtt = FakePopulation("mqtt")
    quic = FakePopulation("quic")
    shape = LoadShape(_diurnal())
    controller = LoadController(env, shape, [web, mqtt, quic])
    controller.start()
    env.run(until=20.0)
    assert web.applied, "selected population never received an update"
    assert mqtt.applied == [] and mqtt.rate_scale == 1.0
    assert quic.applied == [] and quic.rate_scale == 1.0


def test_controller_none_applies_to_keeps_driving_everything():
    env = Environment()
    populations = [FakePopulation("web"), FakePopulation("mqtt")]
    controller = LoadController(env, LoadShape(_diurnal()), populations)
    controller.start()
    env.run(until=20.0)
    assert all(p.applied for p in populations)
    assert populations[0].applied == populations[1].applied


def test_deployment_applies_to_scopes_shape_to_one_population(monkeypatch):
    monkeypatch.setattr(load, "APPLIES_TO", "web")
    config = LoadShapeConfig(kind="flash_crowd", flash_at=2.0,
                             flash_ramp=1.0, flash_hold=4.0,
                             flash_scale=3.0, resolution=1.0)
    deployment = Deployment(_spec(
        mqtt_client_hosts=1,
        mqtt_workload=DeploymentSpec().mqtt_workload,
        load_shape=config))
    deployment.start()
    deployment.run(until=5.0)  # mid-hold: web runs hot, MQTT untouched
    assert deployment.web_clients.rate_scale == pytest.approx(3.0)
    assert deployment.mqtt_clients.rate_scale == pytest.approx(1.0)


# -- deployment wiring --------------------------------------------------------


def _spec(**overrides):
    defaults = dict(seed=0, edge_proxies=1, origin_proxies=1,
                    app_servers=1, brokers=1, web_client_hosts=1,
                    mqtt_client_hosts=0, quic_client_hosts=0,
                    mqtt_workload=None, quic_workload=None)
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def test_deployment_wires_spec_load_shape_into_clients():
    config = LoadShapeConfig(kind="flash_crowd", flash_at=2.0,
                             flash_ramp=1.0, flash_hold=4.0,
                             flash_scale=3.0, resolution=1.0)
    deployment = Deployment(_spec(load_shape=config))
    assert deployment.load_controller is not None
    deployment.start()
    deployment.run(until=5.0)  # mid-hold: clients are running hot
    assert deployment.web_clients.rate_scale == pytest.approx(3.0)
    deployment.run(until=12.0)  # spike over: back to baseline
    assert deployment.web_clients.rate_scale == pytest.approx(1.0)


def test_run_options_load_shape_applies_and_clears():
    deployment = Deployment(_spec(),
                            options=RunOptions(load_shape=_diurnal()))
    assert deployment.load_controller is not None
    assert Deployment(_spec(seed=1)).load_controller is None
