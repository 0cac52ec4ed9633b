"""Shared fixtures for netsim tests: a two-host world."""

import pytest

from repro.appserver import brokers
from repro.metrics import MetricsRegistry
from repro.netsim import Host, LinkProfile, Network
from repro.experiments import ALL_EXPERIMENTS
from repro.simkernel import Environment, RandomStreams
from tests.differential import topology_hook


class World:
    """A small test world: environment, network, and helper factories."""

    def __init__(self, seed: int = 0):
        self.env = Environment()
        self.streams = RandomStreams(seed)
        self.metrics = MetricsRegistry()
        self.network = Network(self.env, self.streams,
                               default_profile=LinkProfile(latency=0.001))
        self._ip = 0

    def host(self, name: str, site: str = "dc") -> Host:
        self._ip += 1
        return Host(self.env, self.network, name, f"10.0.0.{self._ip}",
                    site, self.metrics, streams=self.streams.fork(name))


@pytest.fixture
def world():
    return World()


@pytest.fixture
def quiet_brokers(monkeypatch):
    """Brokers publish nothing downstream on their own (what the
    hand-wired mini-stacks of ``tests/proxygen`` run with)."""
    monkeypatch.setattr(brokers, "DOWNSTREAM_PUBLISH_RATE", 0.0)


@pytest.fixture
def built_runs():
    """The records of every topology the test builds, in build order:
    ``Topology.__init__`` is hooked for the test's duration."""
    runs = []
    with topology_hook(lambda topology: runs.append(topology.run_record)):
        yield runs


@pytest.fixture
def handed_back(monkeypatch):
    """Every run the test's harness calls hand back on ``result.runs``,
    in call order (each ``ALL_EXPERIMENTS`` module's ``run`` is wrapped,
    so a CLI ``main`` call counts too)."""
    runs = []
    for module in ALL_EXPERIMENTS.values():
        def run(*args, _run=module.run, **kwargs):
            result = _run(*args, **kwargs)
            runs.extend(result.runs)
            return result
        monkeypatch.setattr(module, "run", run)
    return runs


@pytest.fixture(autouse=True)
def _invariant_guard(built_runs):
    """Always-on invariant checking for harness-built deployments.

    Any test that builds a deployment through the experiment harness
    (``experiments.common.build_deployment``) silently runs under the
    full invariant suite; a violation fails the test here even if its
    own assertions passed.
    """
    yield
    violations = [v for run in built_runs if run.suite is not None
                  for v in run.suite.finalize()]
    assert not violations, (
        "invariant violations during test: "
        + "; ".join(str(v) for v in violations[:5]))
