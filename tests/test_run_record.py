"""``repro.run``: one record per environment, one channel per record.

What happens in a run is announced once and heard once; nobody wires a
component to a listener, and no two runs can hear each other.
"""

import gc
import weakref

from repro import Deployment, DeploymentSpec, options
from repro.clients.quic import QuicWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.invariants import InvariantChecker, InvariantSuite
from repro.metrics.registry import MetricsRegistry
from repro.netsim.host import Host
from repro.netsim.network import Network
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.run import RunRecord, run_of
from repro.simkernel.core import Environment
from repro.simkernel.reference import Environment as ReferenceEnvironment
from repro.simkernel.rng import RandomStreams


def _tiny_spec(**overrides):
    defaults = dict(seed=0, edge_proxies=2, origin_proxies=1,
                    app_servers=2, brokers=1, web_client_hosts=0,
                    mqtt_client_hosts=0, quic_client_hosts=0,
                    web_workload=None, mqtt_workload=None,
                    quic_workload=None)
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


class _Recorder(InvariantChecker):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.events = []

    def on_event(self, event, **fields):
        self.events.append((event, fields))


def test_one_record_per_environment_on_either_kernel():
    for env in (Environment(), ReferenceEnvironment()):
        record = run_of(env)
        assert isinstance(record, RunRecord)
        assert run_of(env) is record
        assert record.options is record.tracer is record.splice is None
        # Nobody listening: what a per-connection announcer tests.
        assert not record.listeners


def test_every_component_of_a_run_finds_the_same_record():
    dep = Deployment(_tiny_spec())
    record = dep.run_record
    assert record is run_of(dep.env) and record.options is dep.options
    assert all(host.run_record is record for host in dep.network.hosts())
    assert all(s.run_record is record for s in dep.app_servers)
    release = RollingRelease(dep.env, dep.edge_servers)
    assert release.run_record is record


def test_a_bare_world_gets_its_record_on_demand():
    env = Environment()
    metrics = MetricsRegistry()
    network = Network(env, RandomStreams(0), metrics=metrics)
    host = Host(env, network, "h", ip="10.0.0.1", site="s", metrics=metrics)
    assert host.run_record is run_of(env)
    assert host.run_record.options is None


def test_two_environments_never_hear_each_other():
    run_a, run_b = run_of(Environment()), run_of(Environment())
    heard_a, heard_b = [], []
    run_a.subscribe(lambda name, **fields: heard_a.append((name, fields)))
    run_b.subscribe(lambda name, **fields: heard_b.append((name, fields)))
    run_a.announce("fault_begin", kind="slow_host")
    assert heard_a == [("fault_begin", {"kind": "slow_host"})]
    assert heard_b == []


def test_an_entry_dies_with_its_run():
    """No strong reference from the table to the environment, a listener
    or the record: dropping the run's own objects frees all three."""

    class Listener:
        def __init__(self, env):
            self.env = env       # as the suite, governor, collector do
            self.heard = []

        def __call__(self, name, **_fields):
            self.heard.append(name)

    env = Environment()
    record = run_of(env)
    listener = Listener(env)
    record.subscribe(listener)
    record.announce("evacuation_begin")
    assert listener.heard == ["evacuation_begin"]
    refs = [weakref.ref(env), weakref.ref(record), weakref.ref(listener)]
    del env, record, listener
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_a_whole_deployment_dies_with_its_run(monkeypatch):
    """Outside every ``use()`` block, as the bench runs: nothing but the
    run's own objects holds it.  (Inside one, the block's run list does
    — that is what the block is for — so the test steps out of the
    guard's.)"""
    monkeypatch.setattr(options, "_current", (options.current(), ()))
    dep = Deployment(_tiny_spec())
    InvariantSuite(dep, checkers=[_Recorder()]).attach()
    dep.start()
    dep.run(until=2.0)
    refs = [weakref.ref(dep), weakref.ref(dep.env),
            weakref.ref(dep.run_record)]
    del dep
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_subscription_order_is_call_order():
    record = run_of(Environment())
    calls = []
    for tag in "abc":
        record.subscribe(lambda name, tag=tag, **_f: calls.append(tag))
    record.announce("release_begin")
    record.announce("release_end")
    assert calls == list("abcabc")


def test_a_listener_subscribed_after_the_build_is_heard():
    """The suite attaches once the topology exists — and, here, once it
    is already running: components look the listeners up when they
    announce, not when they are built."""
    dep = Deployment(_tiny_spec())
    dep.start()
    dep.run(until=2.0)
    recorder = _Recorder()
    InvariantSuite(dep, checkers=[recorder]).attach()
    release = RollingRelease(dep.env, dep.edge_servers[:1],
                             RollingReleaseConfig(batch_fraction=1.0))
    dep.env.run(until=dep.env.process(release.execute()))
    names = [event for event, _ in recorder.events]
    assert names[0] == "release_begin" and names[-1] == "release_end"
    assert "takeover_begin" in names and "takeover_end" in names
    assert "drain_begin" in names


def _ids_a_run_draws():
    """Request ids of the POSTs the app tier applied and the QUIC
    connection ids the edge tier owns, after a short run."""
    dep = Deployment(_tiny_spec(
        web_client_hosts=1, quic_client_hosts=1,
        web_workload=WebWorkloadConfig(clients_per_host=4, think_time=0.5,
                                       post_fraction=1.0,
                                       post_size_min=1000,
                                       post_size_cap=2000),
        quic_workload=QuicWorkloadConfig(flows_per_host=4)))
    posts = []

    def note_post(name, **fields):
        if name == "post_applied":
            posts.append(fields["request_id"])

    dep.run_record.subscribe(note_post)
    dep.start()
    dep.run(until=8.0)
    cids = sorted(cid for server in dep.edge_servers
                  for cid in server.active_instance.quic_states
                  .connection_ids())
    return posts, cids


def test_a_runs_ids_are_its_own():
    """Two runs in one process, nothing rewound in between: each draws
    request ids from 1 and connection ids from 0x1000."""
    first = _ids_a_run_draws()
    second = _ids_a_run_draws()
    posts, cids = first
    assert posts and cids
    assert min(posts) == 1 and min(cids) == 0x1000
    assert second == first


def test_a_grown_edge_proxy_is_heard_with_no_wiring():
    dep = Deployment(_tiny_spec())
    recorder = _Recorder()
    InvariantSuite(dep, checkers=[recorder]).attach()
    dep.start()
    dep.run(until=2.0)
    grown = dep.env.process(dep.grow_edge_proxy())
    dep.env.run(until=grown)
    server = grown.value
    assert server.host.run_record is dep.run_record
    dep.env.run(until=dep.env.process(server.release()))
    takeovers = [(event, fields) for event, fields in recorder.events
                 if event.startswith("takeover_")]
    assert [event for event, _ in takeovers] == ["takeover_begin",
                                                 "takeover_end"]
    assert all(fields["server"] is server for _, fields in takeovers)
    assert takeovers[-1][1]["ok"] is True
