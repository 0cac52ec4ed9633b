"""CPU model, host plumbing and OS-process lifecycle."""

import random

import pytest

from repro.metrics.timeline import UtilizationTracker
from repro.netsim import CpuCosts, CpuModel, ProcessDeadError
from repro.simkernel import Environment, Interrupt


def test_cpu_execute_takes_work_over_speed():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=10.0)
    done = []

    def worker():
        yield from cpu.execute(5.0)   # 0.5s at 10 units/s
        done.append(env.now)

    env.process(worker())
    env.run()
    assert done == [0.5]


def test_cpu_cores_limit_parallelism():
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=1.0)
    done = []

    def worker(label):
        yield from cpu.execute(1.0)
        done.append((label, env.now))

    for label in "abc":
        env.process(worker(label))
    env.run()
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_cpu_zero_work_is_free():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []

    def worker():
        yield from cpu.execute(0)
        done.append(env.now)
        yield env.timeout(0)

    env.process(worker())
    env.run()
    assert done == [0.0]


def test_cpu_tracks_busy_time_and_utilization():
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=1.0, bucket_width=1.0)

    def worker():
        yield from cpu.execute(2.0)

    env.process(worker())
    env.process(worker())
    env.run()
    assert cpu.total_busy_seconds == pytest.approx(4.0)
    utilization = dict(cpu.utilization(0, 2))
    assert utilization[0.0] == pytest.approx(1.0)  # both cores busy
    idle = dict(cpu.idle(0, 2))
    assert idle[0.0] == pytest.approx(0.0)


def test_cpu_background_runs_detached():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    cpu.background(3.0)
    env.run()
    assert cpu.total_busy_seconds == pytest.approx(3.0)


def test_cpu_validation():
    env = Environment()
    with pytest.raises(ValueError):
        CpuModel(env, cores=0)
    with pytest.raises(ValueError):
        CpuModel(env, cores=1, speed=0)


def test_cpu_costs_defaults_sane():
    costs = CpuCosts
    assert costs.tls_handshake > costs.tcp_handshake
    assert costs.cache_priming > costs.process_spawn
    assert costs.relay_message < costs.http_request


# -- the core pool: a counter and a FIFO of waiters --------------------------


def test_cpu_serializes_executions():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    spans = []

    def worker(label):
        start = env.now
        yield from cpu.execute(10.0)
        spans.append((label, start, env.now))

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert spans == [("a", 0.0, 10.0), ("b", 0.0, 20.0)]


def test_cpu_capacity_two_runs_parallel():
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=1.0)
    finished = []

    def worker(label):
        yield from cpu.execute(10.0)
        finished.append((label, env.now))

    for label in "abc":
        env.process(worker(label))
    env.run(until=5)
    assert (cpu.busy, cpu.queue_length) == (2, 1)
    env.run()
    assert finished == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_cpu_interrupted_waiter_leaves_the_queue():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    env.process(cpu.execute(100.0))
    impatient = env.process(cpu.execute(1.0))

    def interrupter():
        yield env.timeout(1)
        impatient.interrupt("gives up")  # while still queued

    env.process(interrupter())
    env.run(until=5)
    assert cpu.queue_length == 0
    assert cpu.busy == 1


def test_cpu_counts():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    cpu.background(1.0)
    env.run(until=0.5)
    assert cpu.busy == 1 and cpu.queue_length == 0
    env.run()
    assert cpu.busy == 0 and cpu.queue_length == 0


def _queued_trio(env, cpu, done):
    """A holder of the only core for 10 s, then two waiters of 1 s."""
    def worker(label, work):
        yield from cpu.execute(work)
        done.append((label, env.now))

    return [env.process(worker(label, work))
            for label, work in (("holder", 10.0), ("first", 1.0),
                                ("second", 1.0))]


def test_cpu_waiter_interrupted_before_its_grant_is_withdrawn():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []
    _, first, _ = _queued_trio(env, cpu, done)

    def interrupter():
        yield env.timeout(2.0)
        first.interrupt("killed")

    env.process(interrupter())
    env.run(until=5)
    assert (cpu.busy, cpu.queue_length) == (1, 1)
    env.run()
    # The next waiter gets the core when the holder frees it.
    assert done == [("holder", 10.0), ("second", 11.0)]
    assert cpu.total_busy_seconds == 11.0
    assert cpu.busy == 0 and cpu.queue_length == 0


def test_cpu_waiter_interrupted_after_its_grant_passes_the_core_on():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []
    waiters = []

    def holder():
        yield from cpu.execute(10.0)
        # The release just handed the first waiter the core: its work's
        # timeout is scheduled, and the waiter holds the core without
        # having run.
        assert (cpu.busy, cpu.queue_length) == (1, 1)
        waiters[0].interrupt("killed")

    def worker(label):
        yield from cpu.execute(1.0)
        done.append((label, env.now))

    env.process(holder())
    waiters.extend(env.process(worker(label)) for label in ("first", "second"))
    env.run()
    assert done == [("second", 11.0)]
    assert cpu.total_busy_seconds == 11.0
    assert cpu.busy == 0 and cpu.queue_length == 0


def test_cpu_execution_interrupted_after_its_hand_off_formats_no_event(
        monkeypatch):
    """A waiter interrupted after the hand-off is no longer queued; it
    is looked for by identity, so no error message is built from the
    queue entry, whose event would be formatted by ``Event.__repr__``."""
    from repro.simkernel.events import Event

    def no_repr(event):
        raise AssertionError("Event.__repr__ called")

    monkeypatch.setattr(Event, "__repr__", no_repr)
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []
    waiters = []

    def holder():
        yield from cpu.execute(10.0)
        waiters[0].interrupt("killed")  # just handed the core

    def worker(label):
        try:
            yield from cpu.execute(1.0)
        except Interrupt:
            done.append((label, "interrupted"))
            return
        done.append((label, env.now))

    env.process(holder())
    waiters.extend(env.process(worker(label)) for label in ("first", "second"))
    env.run()
    assert done == [("first", "interrupted"), ("second", 11.0)]
    assert cpu.busy == 0 and cpu.queue_length == 0


def test_cpu_busy_buckets_equal_add_busy_exactly():
    """The inlined one-bucket accounting builds the very dict
    ``UtilizationTracker.add_busy`` builds from the same intervals."""
    rng = random.Random(7)
    width = 0.5
    intervals = []
    for _ in range(400):
        kind = rng.randrange(4)
        if kind == 0:       # inside one bucket
            start = rng.uniform(0, 50)
            duration = rng.uniform(0, 0.3) * width
        elif kind == 1:     # across one or more bucket edges
            start = rng.uniform(0, 50)
            duration = rng.uniform(width, 3 * width)
        elif kind == 2:     # ends exactly on a bucket edge
            duration = rng.choice((0.125, 0.25, 0.375, 0.5)) * width
            start = rng.randrange(1, 100) * width - duration
        else:               # starts exactly on a bucket edge
            start = rng.randrange(0, 100) * width
            duration = rng.choice((0.125, 0.25, 1.5)) * width
        intervals.append((start, duration))

    env = Environment()
    cpu = CpuModel(env, cores=len(intervals), speed=1.0, bucket_width=width)
    finished = []

    def worker(start, duration):
        yield env.timeout(start)
        begun = env.now
        yield from cpu.execute(duration)
        finished.append((begun, env.now))

    for start, duration in intervals:
        env.process(worker(start, duration))
    env.run()

    expected = UtilizationTracker(width, capacity=len(intervals))
    total = 0.0
    for start, end in finished:   # the order the model accounted them
        expected.add_busy(start, end)
        total += end - start
    assert cpu.tracker.busy._buckets == expected.busy._buckets
    assert cpu.total_busy_seconds == total


def test_process_exit_is_idempotent(world):
    host = world.host("h")
    proc = host.spawn("p")
    proc.exit("first")
    proc.exit("second")
    assert proc.exit_reason == "first"


def test_process_cannot_run_after_exit(world):
    host = world.host("h")
    proc = host.spawn("p")
    proc.exit()
    with pytest.raises(ProcessDeadError):
        proc.run(iter(()))


def test_process_exit_interrupts_tasks(world):
    host = world.host("h")
    proc = host.spawn("p")
    progress = []

    def forever():
        while True:
            yield world.env.timeout(1)
            progress.append(world.env.now)

    proc.run(forever())
    world.env.run(until=3.5)
    proc.exit("shutdown")
    world.env.run(until=10)
    assert progress == [1.0, 2.0, 3.0]


def test_finished_tasks_are_forgotten_and_exit_keeps_start_order(world):
    """An origin proxy starts one task per stream it serves: ``run()``
    may not remember every one of them until ``exit()``."""
    env = world.env
    proc = world.host("h").spawn("p")
    interrupted = []

    def short():
        yield env.timeout(0.001)

    def long(label):
        try:
            yield env.timeout(1000.0)
        except Interrupt:
            interrupted.append(label)

    proc.run(long("a"))
    for i in range(10_000):
        proc.run(short())
        if i == 5_000:
            proc.run(long("b"))
        if i % 100 == 0:
            env.run(until=env.now + 0.01)
    proc.run(long("c"))
    env.run(until=env.now + 1)
    assert sum(task.is_alive for task in proc._tasks) == 3
    # Never more than a batch of short tasks and the long ones at once.
    peak_live = 100 + 3
    assert len(proc._tasks) <= 2 * peak_live + 64
    proc.exit("shutdown")
    env.run(until=env.now + 1)
    assert interrupted == ["a", "b", "c"]


def test_process_memory_model(world):
    host = world.host("h")
    proc = host.spawn("p")
    proc.base_memory = 100.0
    proc.memory_per_connection = 2.0
    assert proc.memory_usage() == 100.0
    assert host.memory_usage() == 100.0
    proc.exit()
    assert host.memory_usage() == 0.0


def test_host_spawn_tracks_processes(world):
    host = world.host("h")
    a = host.spawn("a")
    b = host.spawn("b")
    assert set(host.live_processes()) == {a, b}
    a.exit()
    assert host.live_processes() == [b]


def test_host_reuseport_salts_differ(world):
    a = world.host("a")
    b = world.host("b")
    assert a.reuseport_salt != b.reuseport_salt
