"""Autoscaler policy (fake pool) and deployment membership wiring."""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.ops.autoscale import (
    Autoscaler,
    AutoscalerConfig,
    attach_app_autoscaler,
    attach_edge_autoscaler,
)
from repro.simkernel import Environment


class FakeMember:
    def __init__(self, name, state="active"):
        self.name = name
        self.state = state


class FakeAdapter:
    """Scripted pool: utilization/queue are plain settable numbers."""

    tier = "fake"

    def __init__(self, env, size=2):
        self.env = env
        self.members = [FakeMember(f"m{i}") for i in range(size)]
        self.cpu = 0.5
        self.queue = 0.0
        self.grown = 0
        self.drained = []

    def size(self):
        return len(self.members)

    def utilization(self, window):
        return self.cpu

    def queue_depth(self):
        return self.queue

    def member_state(self, member):
        return member.state

    def pick_scale_in(self):
        for member in reversed(self.members):
            if member.state == "active":
                return member
        return None

    def scale_out(self):
        yield from ()
        member = FakeMember(f"grown{self.grown}")
        self.grown += 1
        self.members.append(member)
        return member

    def scale_in(self, member):
        self.members.remove(member)
        yield self.env.timeout(1.0)  # the drain
        self.drained.append(member.name)


def _scaler(env, adapter, **overrides):
    defaults = dict(min_size=1, max_size=4, evaluate_interval=5.0,
                    scale_out_utilization=0.75, scale_in_utilization=0.30,
                    cooldown_out=10.0, cooldown_in=20.0)
    defaults.update(overrides)
    return Autoscaler(env, adapter, AutoscalerConfig(**defaults))


def _evaluate(env, scaler):
    env.run(until=env.process(scaler.evaluate()))


def test_scales_out_under_cpu_pressure():
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = _scaler(env, adapter)
    adapter.cpu = 0.9
    _evaluate(env, scaler)
    assert adapter.size() == 3
    decision = scaler.decisions[0]
    assert (decision.action, decision.reason) == ("out", "utilization")
    assert decision.size_before == 2 and decision.size_after == 3


def test_queue_depth_trips_scale_out_at_low_cpu():
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = _scaler(env, adapter, queue_depth_high=5.0)
    adapter.cpu = 0.1
    adapter.queue = 9.0
    _evaluate(env, scaler)
    assert adapter.size() == 3
    assert scaler.decisions[0].reason == "queue"
    # The queue signal also vetoes scale-in despite the idle CPU.
    adapter.queue = 9.0
    env.run(until=50.0)
    _evaluate(env, scaler)
    assert all(d.action == "out" for d in scaler.decisions)


def test_scale_out_respects_max_size_and_step():
    env = Environment()
    adapter = FakeAdapter(env, size=3)
    scaler = _scaler(env, adapter, max_size=4, step=5)
    adapter.cpu = 1.0
    _evaluate(env, scaler)
    assert adapter.size() == 4  # step clamped to the bound
    env.run(until=100.0)
    _evaluate(env, scaler)
    assert adapter.size() == 4  # at max: no further growth


def test_scale_in_drains_the_newest_active_member():
    env = Environment()
    adapter = FakeAdapter(env, size=3)
    scaler = _scaler(env, adapter, cooldown_in=0.0)
    adapter.cpu = 0.05
    _evaluate(env, scaler)
    assert adapter.drained == ["m2"]
    decision = scaler.decisions[0]
    assert (decision.action, decision.target) == ("in", "m2")


def test_scale_in_holds_when_no_member_is_active():
    env = Environment()
    adapter = FakeAdapter(env, size=2)
    for member in adapter.members:
        member.state = "draining"
    scaler = _scaler(env, adapter, cooldown_in=0.0)
    adapter.cpu = 0.05
    _evaluate(env, scaler)
    assert adapter.size() == 2 and not scaler.decisions


def test_scale_in_never_breaches_min_size():
    env = Environment()
    adapter = FakeAdapter(env, size=1)
    scaler = _scaler(env, adapter, min_size=1, cooldown_in=0.0)
    adapter.cpu = 0.0
    _evaluate(env, scaler)
    assert adapter.size() == 1 and not scaler.decisions


def test_cooldown_spaces_same_direction_decisions():
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = _scaler(env, adapter, cooldown_out=10.0)
    adapter.cpu = 0.9
    _evaluate(env, scaler)
    _evaluate(env, scaler)  # immediately again: held by cooldown
    assert adapter.size() == 3
    env.run(until=env.now + 10.0)
    _evaluate(env, scaler)
    assert adapter.size() == 4


def test_recent_scale_out_also_blocks_scale_in():
    """Flap guard: shrinking right after growing would thrash drains."""
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = _scaler(env, adapter, cooldown_in=20.0)
    adapter.cpu = 0.9
    _evaluate(env, scaler)
    adapter.cpu = 0.05
    env.run(until=env.now + 5.0)  # > nothing; still inside cooldown_in
    _evaluate(env, scaler)
    assert adapter.size() == 3  # held
    env.run(until=env.now + 20.0)
    _evaluate(env, scaler)
    assert adapter.size() == 2


def test_control_loop_runs_on_the_configured_cadence():
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = _scaler(env, adapter, evaluate_interval=5.0).start()
    env.run(until=26.0)
    assert [at for at, _ in scaler.size_series] == [5.0, 10.0, 15.0,
                                                    20.0, 25.0]


def test_config_validation():
    for bad in (dict(min_size=0), dict(min_size=3, max_size=2),
                dict(evaluate_interval=0.0), dict(step=0),
                dict(scale_in_utilization=0.9,
                     scale_out_utilization=0.5)):
        with pytest.raises(ValueError):
            AutoscalerConfig(**bad).validate()


def test_decisions_tap_the_invariant_suite():
    """Every decision is announced on the run's channel, which is where
    a suite listens: no deployment attribute is consulted."""
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = _scaler(env, adapter, cooldown_in=0.0)
    events = []
    scaler.run_record.subscribe(
        lambda event, **fields: events.append((event, fields)))
    adapter.cpu = 0.9
    _evaluate(env, scaler)
    event, fields = events[0]
    assert event == "autoscale_out"
    assert fields["pool"] == "fake"
    assert fields["size_after"] == 3
    adapter.cpu = 0.05
    env.run(until=100.0)
    _evaluate(env, scaler)
    event, fields = events[-1]
    assert event == "autoscale_in"
    assert fields["target_state"] == "active"


# -- deployment membership wiring ---------------------------------------------


def _spec(**overrides):
    defaults = dict(seed=0, edge_proxies=2, origin_proxies=1,
                    app_servers=2, brokers=1, web_client_hosts=0,
                    mqtt_client_hosts=0, quic_client_hosts=0,
                    web_workload=None, mqtt_workload=None,
                    quic_workload=None)
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def test_grow_and_retire_app_server_round_trip():
    deployment = Deployment(_spec())
    deployment.start()
    deployment.run(until=2.0)
    server = deployment.grow_app_server()
    assert server in deployment.app_pool.servers
    assert len(deployment.app_servers) == 3
    deployment.run(until=3.0)
    done = deployment.env.process(deployment.retire_app_server(server))
    deployment.env.run(until=done)
    assert server not in deployment.app_pool.servers
    assert len(deployment.app_servers) == 2
    assert server.state == server.STATE_DOWN


def test_grow_edge_proxy_joins_katran_only_once_serving():
    deployment = Deployment(_spec())
    deployment.start()
    deployment.run(until=2.0)
    before = set(deployment.edge_katran.backends)
    grown = deployment.env.process(deployment.grow_edge_proxy())
    deployment.env.run(until=grown)
    after = set(deployment.edge_katran.backends)
    server = deployment.edge_servers[-1]
    assert after - before == {server.host.ip}
    # Retire pulls it back out of the ring before draining.
    done = deployment.env.process(deployment.retire_edge_proxy(server))
    deployment.env.run(until=done)
    assert set(deployment.edge_katran.backends) == before
    assert server not in deployment.edge_servers


def test_attach_helpers_register_and_start():
    deployment = Deployment(_spec())
    # min_size pinned to the current fleet so the idle pools hold still.
    app = attach_app_autoscaler(deployment,
                                AutoscalerConfig(min_size=2, max_size=3))
    edge = attach_edge_autoscaler(deployment,
                                  AutoscalerConfig(min_size=2, max_size=3))
    assert deployment.autoscalers == [app, edge]
    assert app.process is not None and edge.process is not None
    assert (app.adapter.tier, edge.adapter.tier) == ("app", "edge")
    deployment.start()
    deployment.run(until=12.0)  # idle loops tick but hold at the floor
    assert len(app.size_series) >= 2
    assert len(deployment.app_servers) == 2  # bounded: nothing flapped
