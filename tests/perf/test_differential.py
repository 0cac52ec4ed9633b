"""Differential tests: the optimized kernel vs the frozen reference.

The optimized kernel in :mod:`repro.simkernel` (two-lane deque
scheduler, slotted events, store hand-off, race-free
``with_timeout``, in-place delivery wake-ups) must be
*observably identical* to the pre-optimization implementation frozen
in :mod:`repro.simkernel.reference` — not statistically close: the
same seeds must produce the same counters, the same event orderings
and the same final clock, or seeded repro files stop replaying across
the optimization boundary.

These tests run whole fuzz scenarios (cluster + faults + rolling
releases) and figure-shaped experiment deployments on both kernels and
compare:

* the full metrics snapshot — every counter in every scope, series,
  quantile sample sequences, utilization buckets and the final clock;
* the invariant-tap event trace — a timestamped ordering of release /
  takeover / drain transitions, which pins the *order* callbacks ran
  in, not just their aggregate effect.

The one field that must differ is the number of scheduled events
(``env._eid``): the reference kernel schedules every store put, a
race event per ``with_timeout`` and the get each network delivery
satisfies, and races a timeout per wait under a deadline; the live
kernel schedules only the events some process waits on, and its
deadlines wait in one heap with one schedule entry.  A host's cores are
not kernel code: ``CpuModel`` keeps them as a counter and a FIFO of
waiters, whose work a freed core starts with one ``env.timeout``, the
same way on both kernels.  Everything else
staying equal *is* the proof that the elided events were never
observed.

Each arm runs with the *other* kernel's event constructors and
scheduler entry point booby-trapped (:func:`only_kernel`), so the
comparison is between two whole kernels: a model call site that builds
an event class by name instead of through its environment would put
the same ``Condition`` in both arms, and fails here.
"""

import contextlib
import dataclasses
import random

import pytest

from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import generate_scenario
from repro.invariants import checkers as checkers_mod
from repro.invariants.base import InvariantChecker
from repro.netsim import CpuModel
from repro.simkernel import Environment
from repro.simkernel.events import TIMED_OUT, Interrupt
from tests.differential import full_snapshot
from repro.simkernel import events as live_kernel
from repro.simkernel import reference as reference_kernel
from repro.simkernel.reference import Environment as ReferenceEnvironment

#: ≥25 seeded scenarios, as the differential-coverage floor requires.
FUZZ_SEEDS = list(range(25))

#: Truncated run horizon: scenario generation draws 25–45 s durations,
#: but the schedules front-load activity (releases/faults start between
#: 2 s and ~40% of the horizon), so 12 s already exercises takeover,
#: drain and fault paths while keeping 50 runs affordable.
DURATION = 12.0


@contextlib.contextmanager
def only_kernel(env):
    """Run one arm with the foreign kernel unusable.

    ``env`` is the arm's environment argument (``None`` = live).  While
    the block runs, building a ``Condition``/``Timeout``/``Process``/
    plain ``Event`` of the other hierarchy, or scheduling through the
    other kernel's entry point (``events._push`` / the reference
    ``Environment.schedule``), records the offence and raises; the
    record is asserted empty afterwards because model code may swallow
    an exception raised inside a simulation process.
    """
    if env is None:
        foreign, entry = reference_kernel, (ReferenceEnvironment, "schedule")
    else:
        foreign, entry = live_kernel, (live_kernel, "_push")
    offences = []

    def trap(subject, *_args, **_kwargs):
        offences.append(type(subject).__name__)
        raise AssertionError(
            f"{offences[-1]} of the foreign kernel used in this arm")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("Event", "Condition", "Timeout", "Process"):
            patch.setattr(getattr(foreign, name), "__init__", trap)
        patch.setattr(*entry, trap)
        yield
    assert not offences, (
        f"foreign-kernel events in this arm: {sorted(set(offences))} "
        f"x{len(offences)}")


class TraceChecker(InvariantChecker):
    """Records every invariant-tap event as ``(time, name, fields)``.

    Installed under a private name for the duration of this module (see
    :func:`_register_trace_checker`); each run resets the class-level
    ``trace`` list, and ``finalize`` captures the deployment's complete
    metrics snapshot so the comparison needs nothing beyond the
    :class:`~repro.fuzz.runner.FuzzRunResult`.
    """

    name = "_trace"
    trace: list = []
    snapshot: dict = {}

    def on_event(self, event, **fields):
        scalars = tuple(sorted(
            (key, value) for key, value in fields.items()
            if isinstance(value, (bool, int, float, str))))
        type(self).trace.append((round(self.now, 9), event, scalars))

    def finalize(self):
        type(self).snapshot = full_snapshot(self.deployment)


@pytest.fixture(autouse=True, scope="module")
def _register_trace_checker():
    checkers_mod.CHECKERS["_trace"] = TraceChecker
    yield
    del checkers_mod.CHECKERS["_trace"]


def run_fuzz(seed: int, env=None):
    scenario = dataclasses.replace(generate_scenario(seed),
                                   duration=DURATION)
    TraceChecker.trace = []
    TraceChecker.snapshot = {}
    with only_kernel(env):
        result = run_scenario(scenario, checkers=["_trace"], env=env)
    return result, TraceChecker.trace, TraceChecker.snapshot


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_scenario_bit_identical(seed):
    live_result, live_trace, live_snap = run_fuzz(seed, env=None)
    ref_result, ref_trace, ref_snap = run_fuzz(
        seed, env=ReferenceEnvironment())

    assert live_snap.pop("eid") < ref_snap.pop("eid"), (
        f"seed {seed}: the live kernel scheduled no fewer events")
    assert live_snap == ref_snap, (
        f"seed {seed}: metrics snapshots diverged between kernels")
    assert live_trace == ref_trace, (
        f"seed {seed}: invariant-tap event ordering diverged")
    assert live_result.stats == ref_result.stats


def test_reference_arm_exercises_the_reference_condition():
    """The oracle covers ``Condition``: under the reference environment
    every race and barrier the model builds (``with_timeout``, the
    origin POST select, the H2 accept loop, release batches) is a
    *reference* condition — :func:`only_kernel` inside ``run_fuzz``
    rules out a live one — and there are hundreds of them."""
    built = []
    original = reference_kernel.Condition.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_kernel.Condition, "__init__", counting)
        run_fuzz(3, env=ReferenceEnvironment())
    assert len(built) > 100 and {"AnyOf", "AllOf"} <= set(built)


def test_fuzz_corpus_is_not_vacuous():
    """The corpus genuinely exercises the kernels: traces fire, clients
    complete requests, and the runs differ across seeds."""
    eids, activity = set(), 0
    for seed in FUZZ_SEEDS[:6]:
        _, trace, snap = run_fuzz(seed)
        eids.add(snap["eid"])
        assert snap["eid"] > 1000, f"seed {seed} barely simulated"
        activity += len(trace)
    assert len(eids) == len(FUZZ_SEEDS[:6]), "seeds collapsed to one run"
    assert activity > 0, "no tap events recorded across the corpus"


# -- figure-experiment differential -------------------------------------------


def _figure_deployment(env=None):
    """A miniature fig13-shaped run: full client mix plus a mid-run ZDR
    batch restart, built through the experiment harness plumbing."""
    from repro.clients.mqtt import MqttWorkloadConfig
    from repro.clients.web import WebWorkloadConfig
    from repro.experiments.common import build_deployment
    from repro.proxygen.config import ProxygenConfig
    from repro.release.orchestrator import (RollingRelease,
                                            RollingReleaseConfig)

    with only_kernel(env):
        deployment = build_deployment(
            seed=5,
            edge_proxies=4,
            origin_proxies=2,
            app_servers=2,
            edge_config=ProxygenConfig(mode="edge", drain_duration=4.0,
                                       enable_takeover=True,
                                       spawn_delay=0.5),
            web=WebWorkloadConfig(clients_per_host=8, think_time=0.8),
            mqtt=MqttWorkloadConfig(users_per_host=6, publish_interval=3.0),
            env=env)
        deployment.run(until=6.0)
        release = RollingRelease(
            deployment.env, deployment.edge_servers[:2],
            RollingReleaseConfig(batch_fraction=1.0))
        deployment.env.process(release.execute())
        deployment.run(until=20.0)
    return full_snapshot(deployment)


def test_figure_experiment_bit_identical():
    live = _figure_deployment(env=None)
    ref = _figure_deployment(env=ReferenceEnvironment())
    assert live.pop("eid") < ref.pop("eid")
    assert live == ref


def test_figure_experiment_counts_real_traffic():
    snap = _figure_deployment()
    served = sum(value
                 for scope, counters in snap["scoped"].items()
                 for key, value in counters.items()
                 if key.endswith("get_ok") or key.endswith("served"))
    assert served > 0, "differential deployment carried no traffic"


# -- saturated cores and one-shot deadlines -----------------------------------


def _saturated_host(env=None):
    """Work arriving faster than two cores serve it, so most executions
    queue and are handed a core when another ends; waiters interrupted
    while queued, at the instant of their hand-off (by the execution that
    just ended) or mid-work; and beside each execution a short-lived
    process that waits once under a deadline, answered in time or not.
    Returns everything the run observed."""
    with only_kernel(env):
        env = Environment() if env is None else env
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
    return {"log": log, "buckets": dict(cpu.tracker.busy._buckets),
            "busy_s": cpu.total_busy_seconds, "now": env.now,
            "eid": env._eid}


def test_saturated_cores_and_one_shot_deadlines_bit_identical():
    """Both kernels run the same ``CpuModel``, whose hand-off gives a
    waiter's callbacks to the timeout of its work and leaves an
    interrupt to remove the waiter from them; the live kernel keeps the
    deadlines in one heap, the reference races a timeout per wait.
    Everything the run observed is equal; only the event count
    differs."""
    live = _saturated_host()
    ref = _saturated_host(env=ReferenceEnvironment())
    assert live.pop("eid") < ref.pop("eid")
    assert live == ref
    log = live["log"]
    # Not vacuous: executions queued, interrupts landed in every way,
    # and deadlines both fired and were beaten.
    assert max(entry[3] for entry in log if entry[0] == "done") >= 5
    causes = {entry[2] for entry in log if entry[0] == "interrupted"}
    assert causes == {"queued", "at-release", "mid-work"}
    assert {entry[2] for entry in log if entry[0] == "exchange"} == {
        True, False}


def test_closing_a_discarded_runs_executions_builds_no_event():
    """The collector closes a discarded run's generators whenever it
    runs — during the other kernel's arm, say.  An execution closed
    after its hand-off passes the core on with a grant, so that builds
    no event of either kernel."""
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    works = [cpu.execute(5.0) for _ in range(3)]
    for work in works:
        env.process(work)
    env.run(until=1.0)  # one holds the core, two queue
    with only_kernel(ReferenceEnvironment()):  # the live kernel is foreign
        for work in works:
            work.close()
    assert cpu.busy == 0 and cpu.queue_length == 0


# -- a probe storm: ties where the hand-off acts ---------------------------------


def _probe_storm(env=None):
    """Katran-style health checks in a storm: three probers check four
    backends at the same instants, two of them over links without
    jitter, so SYNs, SYN-ACKs, accepts and deadlines tie at exact float
    times (the third prober's link has jitter, so its hand-offs run in
    place).  Each probe connects under a deadline, sends a ping or
    nothing, and waits for the reply under a deadline; each backend
    session waits for the ping under a longer one, so both sides'
    deadlines expire in bunches (a silent probe then waits for the
    session's FIN).  One backend has no listener
    (refused), one address has no host (unreachable).  Returns
    everything the run observed."""
    from repro.netsim import Endpoint, LinkProfile
    from repro.netsim.errors import ConnectionRefusedSim
    from tests.conftest import World

    with only_kernel(env):
        world = World(environment=(lambda: env) if env is not None
                      else Environment)
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
                log.append(("accepted", host.name, listener.pending,
                            env.now))
                process.run(session(host.name, conn))

        for host in backends[:3]:
            process = host.spawn("hc-target")
            _, listener = host.kernel.tcp_listen(process,
                                                 Endpoint(host.ip, 80))
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
                log.append(("closed", host.name, closed is TIMED_OUT,
                            env.now))
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
    return {"log": log, "snapshot": world.metrics.snapshot(),
            "now": env.now, "eid": env._eid}


def test_a_probe_storm_bit_identical():
    """Same-instant deadline expiries, connects and accepts: where the
    live kernel hands a waiter off in place and where it must schedule
    it, the frozen kernel (which schedules every one) agrees."""
    live = _probe_storm()
    ref = _probe_storm(env=ReferenceEnvironment())
    assert live.pop("eid") < ref.pop("eid")
    assert live == ref
    kinds = {entry[0] for entry in live["log"]}
    assert {"accepted", "connected", "refused", "session got",
            "session timed out", "reply"} <= kinds
    replies = {entry[2] for entry in live["log"] if entry[0] == "reply"}
    assert replies == {True, False}
    # SYNs tied: some accepts found a sibling already queued.
    assert any(entry[2] for entry in live["log"] if entry[0] == "accepted")
