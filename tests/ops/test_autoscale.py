"""Autoscaler policy (fake pool) and deployment membership wiring.

The policy is module constants (``repro.ops.autoscale``); a test that
needs another value patches the constant.
"""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.ops import autoscale
from repro.ops.autoscale import Autoscaler, attach_app_autoscaler
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
        self.grown = 0
        self.drained = []

    def size(self):
        return len(self.members)

    def utilization(self, window):
        return self.cpu

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


@pytest.fixture
def policy(monkeypatch):
    """The fake pool's policy: ``policy(cooldown_in=0.0)`` patches the
    named constants on top of these."""

    def patch(**overrides):
        values = dict(min_size=1, max_size=4, evaluate_interval=5.0,
                      scale_out_utilization=0.75,
                      scale_in_utilization=0.30, cooldown_out=10.0,
                      cooldown_in=20.0)
        values.update(overrides)
        for name, value in values.items():
            monkeypatch.setattr(autoscale, name.upper(), value)

    patch()
    return patch


def _evaluate(env, scaler):
    env.run(until=env.process(scaler.evaluate()))


def test_scales_out_under_cpu_pressure(policy):
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = Autoscaler(env, adapter)
    adapter.cpu = 0.9
    _evaluate(env, scaler)
    assert adapter.size() == 3
    decision = scaler.decisions[0]
    assert (decision.action, decision.reason) == ("out", "utilization")
    assert decision.size_before == 2 and decision.size_after == 3


def test_scale_out_respects_max_size_and_step(monkeypatch, policy):
    monkeypatch.setattr(autoscale, "SCALE_OUT_STEP", 5)
    policy(max_size=4)
    env = Environment()
    adapter = FakeAdapter(env, size=3)
    scaler = Autoscaler(env, adapter)
    adapter.cpu = 1.0
    _evaluate(env, scaler)
    assert adapter.size() == 4  # step clamped to the bound
    env.run(until=100.0)
    _evaluate(env, scaler)
    assert adapter.size() == 4  # at max: no further growth


def test_scale_in_drains_the_newest_active_member(policy):
    policy(cooldown_in=0.0)
    env = Environment()
    adapter = FakeAdapter(env, size=3)
    scaler = Autoscaler(env, adapter)
    adapter.cpu = 0.05
    _evaluate(env, scaler)
    assert adapter.drained == ["m2"]
    decision = scaler.decisions[0]
    assert (decision.action, decision.target) == ("in", "m2")


def test_scale_in_holds_when_no_member_is_active(policy):
    policy(cooldown_in=0.0)
    env = Environment()
    adapter = FakeAdapter(env, size=2)
    for member in adapter.members:
        member.state = "draining"
    scaler = Autoscaler(env, adapter)
    adapter.cpu = 0.05
    _evaluate(env, scaler)
    assert adapter.size() == 2 and not scaler.decisions


def test_scale_in_never_breaches_min_size(policy):
    policy(cooldown_in=0.0)
    env = Environment()
    adapter = FakeAdapter(env, size=1)
    scaler = Autoscaler(env, adapter)
    adapter.cpu = 0.0
    _evaluate(env, scaler)
    assert adapter.size() == 1 and not scaler.decisions


def test_cooldown_spaces_same_direction_decisions(policy):
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = Autoscaler(env, adapter)
    adapter.cpu = 0.9
    _evaluate(env, scaler)
    _evaluate(env, scaler)  # immediately again: held by cooldown
    assert adapter.size() == 3
    env.run(until=env.now + 10.0)
    _evaluate(env, scaler)
    assert adapter.size() == 4


def test_recent_scale_out_also_blocks_scale_in(policy):
    """Flap guard: shrinking right after growing would thrash drains."""
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = Autoscaler(env, adapter)
    adapter.cpu = 0.9
    _evaluate(env, scaler)
    adapter.cpu = 0.05
    env.run(until=env.now + 5.0)  # > nothing; still inside COOLDOWN_IN
    _evaluate(env, scaler)
    assert adapter.size() == 3  # held
    env.run(until=env.now + 20.0)
    _evaluate(env, scaler)
    assert adapter.size() == 2


def test_control_loop_runs_on_the_configured_cadence(policy):
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = Autoscaler(env, adapter).start()
    env.run(until=26.0)
    assert [at for at, _ in scaler.size_series] == [5.0, 10.0, 15.0,
                                                    20.0, 25.0]


def test_decisions_tap_the_invariant_suite(policy):
    """Every decision is announced on the run's channel, which is where
    a suite listens: no deployment attribute is consulted."""
    policy(cooldown_in=0.0)
    env = Environment()
    adapter = FakeAdapter(env)
    scaler = Autoscaler(env, adapter)
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


def test_attach_helpers_register_and_start(policy):
    # MIN_SIZE pinned to the current fleet so the idle pool holds still.
    policy(min_size=2, max_size=3)
    deployment = Deployment(_spec())
    app = attach_app_autoscaler(deployment)
    assert deployment.autoscalers == [app]
    assert app.process is not None
    assert app.adapter.tier == "app"
    deployment.start()
    deployment.run(until=12.0)  # idle loops tick but hold at the floor
    assert len(app.size_series) >= 2
    assert len(deployment.app_servers) == 2  # bounded: nothing flapped
