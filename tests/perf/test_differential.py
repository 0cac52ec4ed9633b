"""The kernel's behaviour, held to its committed record (tier-1).

The three kernel scenarios here are ``tests/golden`` cases whose runs
turn on the kernel's order: same-instant ties, hand-offs in place,
deadlines fired or beaten, cores handed on.  Each test reruns a case of
``golden.TIER1`` (these, the 25 fuzz scenarios at a 12 s horizon and
the two bench runs whose traffic is relayed POST bodies and MQTT
messages) and holds what it observed to ``tests/golden/record.json``,
field for field, or seeded repro files stop replaying across a kernel
change.
"""

import random

import pytest

from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.experiments.common import build_deployment
from repro.netsim import CpuModel, Endpoint, LinkProfile
from repro.netsim.errors import ConnectionRefusedSim
from repro.proxygen.config import ProxygenConfig
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.simkernel import Environment, events
from repro.simkernel.events import TIMED_OUT, Interrupt
from tests import golden
from tests.conftest import World
from tests.differential import full_snapshot


def figure_shaped():
    """A miniature fig13-shaped run: full client mix plus a mid-run ZDR
    batch restart, built through the experiment harness plumbing."""
    deployment = build_deployment(
        seed=5, edge_proxies=4, origin_proxies=2, app_servers=2,
        edge_config=ProxygenConfig(mode="edge", drain_duration=4.0,
                                   enable_takeover=True, spawn_delay=0.5),
        web=WebWorkloadConfig(clients_per_host=8, think_time=0.8),
        mqtt=MqttWorkloadConfig(users_per_host=6, publish_interval=3.0))
    deployment.run(until=6.0)
    deployment.env.process(RollingRelease(
        deployment.env, deployment.edge_servers[:2],
        RollingReleaseConfig(batch_fraction=1.0)).execute())
    deployment.run(until=20.0)
    return deployment


def saturated_host():
    """Work arriving faster than two cores serve it, so most executions
    queue for a core; waiters interrupted while queued, at their
    hand-off or mid-work; beside each, one wait under a deadline,
    answered in time or not.  Returns what the run observed."""
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=10.0, bucket_width=0.5)
    rng = random.Random(11)
    workers, log = [], []

    def interrupt_one(candidates, why):
        alive = [p for p in candidates
                 if p.is_alive and p is not env.active_process]
        if alive:
            rng.choice(alive).interrupt(why)

    def work(name, units):
        try:
            yield from cpu.execute(units)
        except Interrupt as interrupt:
            log.append(("interrupted", name, interrupt.cause, env.now,
                        cpu.busy, cpu.queue_length))
            return
        log.append(("done", name, env.now, cpu.queue_length))
        if rng.random() < 0.15:
            # Whoever was just handed this core, or another waiter.
            interrupt_one(workers[-8:], "at-release")

    def exchange(name, deadline, answer_after):
        store = env.make_store()
        if answer_after is not None:
            env.timeout(answer_after).callbacks.append(
                lambda _event: store.put(name))
        outcome = yield store.get(timeout=deadline)
        log.append(("exchange", name, outcome is TIMED_OUT, env.now))

    def driver():
        for name in range(240):
            yield env.timeout(rng.expovariate(14.0))
            workers.append(env.process(work(name, rng.uniform(0.5, 3.0))))
            deadline = rng.uniform(0.05, 0.3)
            answer_after = rng.choice((None, rng.uniform(0.01, 0.4)))
            env.process(exchange(name, deadline, answer_after))
            if rng.random() < 0.1:
                interrupt_one(workers[-6:], "queued")
            if rng.random() < 0.1:
                interrupt_one(workers[:-6], "mid-work")

    env.process(driver())
    env.run()
    stats = env.stats()
    return {"log": log, "buckets": dict(cpu.tracker.busy._buckets),
            "busy_s": cpu.total_busy_seconds,
            **{key: stats[key] for key in ("now", "events", "handoffs")}}


def probe_storm():
    """Health checks in a storm: three probers check four backends at
    the same instants, two over links without jitter, so SYNs, accepts
    and deadlines tie at exact float times (the jittered third's
    hand-offs run in place).  Probes connect, ping or stay silent and
    wait for the reply under deadlines; sessions wait for the ping under
    longer ones, so deadlines expire in bunches.  One backend refuses,
    one address has no host.  Returns what the run observed."""
    world = World()
    env = world.env
    world.network.add_profile("far", "dc", LinkProfile(
        latency=0.002, jitter=0.001))
    backends = [world.host(f"b{i}") for i in range(4)]
    log = []

    def session(name, conn):
        got = yield conn.recv(0.2)
        if got is TIMED_OUT:
            log.append(("session timed out", name, env.now))
        else:
            log.append(("session got", name,
                        getattr(got, "payload", None), env.now))
            if conn.alive:
                conn.send("pong", size=40)
        conn.close()

    def serve(host, process, listener):
        while True:
            conn = yield listener.accept(process)
            # The backlog sees whether tied SYNs were handled first.
            log.append(("accepted", host.name, listener.pending, env.now))
            process.run(session(host.name, conn))

    for host in backends[:3]:
        process = host.spawn("hc-target")
        _, listener = host.kernel.tcp_listen(process, Endpoint(host.ip, 80))
        process.run(serve(host, process, listener))

    def probe(host, process, target_ip, ping):
        try:
            conn = yield from host.kernel.tcp_connect_within(
                process, Endpoint(target_ip, 80), 0.05)
        except ConnectionRefusedSim:
            log.append(("refused", host.name, target_ip, env.now))
            return
        if conn is TIMED_OUT:
            log.append(("connect timed out", host.name, env.now))
            return
        log.append(("connected", host.name, target_ip, env.now))
        if ping:
            conn.send("ping", size=40)
        reply = yield conn.recv(0.1)
        log.append(("reply", host.name, reply is TIMED_OUT, env.now))
        if reply is TIMED_OUT:  # until the session gives up
            closed = yield conn.recv(0.3)
            log.append(("closed", host.name, closed is TIMED_OUT, env.now))
        conn.close()

    def prober(host, process):
        targets = [backend.ip for backend in backends] + ["10.9.9.9"]
        for round_ in range(6):
            for target_ip in targets:
                process.run(probe(host, process, target_ip,
                                  ping=round_ % 2 == 0))
            yield env.timeout(0.5)

    for i, site in enumerate(("dc", "dc", "far")):
        host = world.host(f"katran{i}", site=site)
        process = host.spawn("katran")
        process.run(prober(host, process))
    env.run(until=4.0)
    return {**full_snapshot(world), "log": log}


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_scenario_bit_identical(seed):
    name = f"fuzz {seed} @12s"
    golden.assert_recorded(name, golden.CASES[name]())


@pytest.mark.parametrize("name", [name for name in golden.TIER1
                                  if name.startswith("bench ")])
def test_relayed_bench_traffic_bit_identical(name):
    """The relays as callbacks: every POST chunk and MQTT message of a
    bench run, relayed as recorded."""
    golden.assert_recorded(name, golden.CASES[name]())


def test_fuzz_corpus_is_not_vacuous():
    """Every run schedules thousands of events, and seeds differ."""
    counts = {golden.load()[f"fuzz {seed} @12s"]["events"]
              for seed in range(6)}
    assert len(counts) == 6 and min(counts) > 1000


def test_figure_experiment_bit_identical():
    golden.assert_recorded("kernel figure-shaped",
                           golden.CASES["kernel figure-shaped"]())


def test_figure_experiment_counts_real_traffic():
    snap = figure_shaped().metrics.snapshot()
    assert sum(value for counters in snap["scoped"].values()
               for key, value in counters.items()
               if key.endswith(("get_ok", "served"))) > 0


def test_saturated_cores_and_one_shot_deadlines_bit_identical():
    """Queued executions, interrupts landing in every way, deadlines
    fired and beaten: observed as recorded."""
    observed = saturated_host()
    golden.assert_recorded("kernel saturated-host", golden.digest(observed))
    log = observed["log"]
    assert max(entry[3] for entry in log if entry[0] == "done") >= 5
    assert {entry[2] for entry in log if entry[0] == "interrupted"} == {
        "queued", "at-release", "mid-work"}
    assert {entry[2] for entry in log if entry[0] == "exchange"} == {
        True, False}


def test_closing_a_discarded_runs_executions_builds_no_event():
    """The collector closes a discarded run's generators whenever it
    runs, in the middle of another run, say.  An execution closed after
    its hand-off passes the core on with a grant, building no event."""
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    works = [cpu.execute(5.0) for _ in range(3)]
    for work in works:
        env.process(work)
    env.run(until=1.0)  # one holds the core, two queue

    def trap(*_args, **_kwargs):
        raise AssertionError("closing an execution built an event")

    with pytest.MonkeyPatch.context() as patch:
        for cls in (events.Event, events.Condition, events.Process):
            patch.setattr(cls, "__init__", trap)
        patch.setattr(Environment, "timeout", trap)
        patch.setattr(events, "_push", trap)
        for work in works:
            work.close()
    assert cpu.busy == 0 and cpu.queue_length == 0


def test_a_probe_storm_bit_identical():
    """Same-instant deadline expiries, connects and accepts, handed off
    in place or scheduled: observed as recorded."""
    observed = probe_storm()
    golden.assert_recorded("kernel probe-storm", golden.digest(observed))
    log = observed["log"]
    assert {"accepted", "connected", "refused", "session got",
            "session timed out", "reply"} <= {entry[0] for entry in log}
    assert {entry[2] for entry in log if entry[0] == "reply"} == {
        True, False}
    # SYNs tied: some accepts found a sibling already queued.
    assert any(entry[2] for entry in log if entry[0] == "accepted")
