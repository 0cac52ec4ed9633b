"""Shared fixtures for netsim tests: a two-host world."""

import pytest

from repro.metrics import MetricsRegistry
from repro.netsim import Host, LinkProfile, Network
from repro.options import current, use
from repro.simkernel import Environment, RandomStreams


class World:
    """A small test world: environment, network, and helper factories."""

    def __init__(self, seed: int = 0, environment=Environment):
        self.env = environment()
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


@pytest.fixture(autouse=True)
def _invariant_guard():
    """Always-on invariant checking for harness-built deployments.

    Any test that builds a deployment through the experiment harness
    (``experiments.common.build_deployment``) silently runs under the
    full invariant suite; a violation fails the test here even if its
    own assertions passed.  The test runs in one ``use()`` block, which
    hands back every run built in it.
    """
    with use(current()) as runs:
        yield
    violations = [v for run in runs if run.suite is not None
                  for v in run.suite.finalize()]
    assert not violations, (
        "invariant violations during test: "
        + "; ".join(str(v) for v in violations[:5]))
