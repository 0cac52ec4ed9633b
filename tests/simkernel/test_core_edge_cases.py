"""Environment run-loop edge cases and with_timeout semantics."""

import pytest

from repro.netsim import (
    TIMED_OUT,
    ConnectionRefusedSim,
    Endpoint,
    with_timeout,
)
from repro.simkernel import (
    Environment,
    Interrupt,
    SimulationError,
    Store,
)
from repro.simkernel.core import EmptySchedule


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_failed_event_raises():
    env = Environment()

    def boom():
        yield env.timeout(1)
        raise ValueError("kaput")

    proc = env.process(boom())
    with pytest.raises(ValueError, match="kaput"):
        env.run(until=proc)


def test_run_until_event_never_triggered_raises():
    env = Environment()
    event = env.event()   # nobody ever triggers it
    env.timeout(1)        # some activity, then the queue drains
    with pytest.raises(SimulationError):
        env.run(until=event)


def test_run_until_already_processed_event_returns_value():
    env = Environment()

    def quick():
        yield env.timeout(1)
        return "done"

    proc = env.process(quick())
    env.run(until=10)
    assert env.run(until=proc) == "done"


def test_initial_time_respected():
    env = Environment(initial_time=100.0)
    fired = []

    def proc():
        yield env.timeout(5)
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [105.0]


def test_uncaught_interrupt_cancels_quietly():
    env = Environment()

    def victim():
        yield env.timeout(100)

    def attacker(target):
        yield env.timeout(1)
        target.interrupt("stop")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()              # no exception: cancellation semantics
    assert not target.is_alive


def test_caught_interrupt_lets_process_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append(interrupt.cause)
        yield env.timeout(1)
        log.append(env.now)

    def attacker(target):
        yield env.timeout(2)
        target.interrupt("poke")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == ["poke", 3.0]


def _interrupt_waiter_then_feed(wait):
    """Interrupt a process blocked in ``wait(env, store)`` at t=1, start
    a live consumer, put one item at t=2 → (what the consumer got, store)."""
    env = Environment()
    store = Store(env)
    got = []

    def blocked():
        yield from wait(env, store)
        pytest.fail("should have been interrupted")

    def live_consumer():
        item = yield store.get()
        got.append(item)

    victim = env.process(blocked())

    def orchestrate():
        yield env.timeout(1)
        victim.interrupt("die")
        env.process(live_consumer())
        yield env.timeout(1)
        store.put("precious")

    env.process(orchestrate())
    env.run()
    return got, store


def test_interrupted_getter_does_not_eat_items():
    """The zombie-getter regression: a task interrupted while blocked on
    a store get must not consume items that arrive later."""
    def wait(env, store):
        yield store.get()

    got, _ = _interrupt_waiter_then_feed(wait)
    assert got == ["precious"]


def test_interrupted_with_timeout_getter_does_not_eat_items():
    """The same regression one layer up: the process is parked on the
    get itself, so ``interrupt`` reaches it through ``with_timeout``."""
    def wait(env, store):
        yield from with_timeout(env, store.get(), 10)

    got, store = _interrupt_waiter_then_feed(wait)
    assert got == ["precious"]
    assert not store._get_queue


def test_with_timeout_returns_value_when_event_wins():
    env = Environment()
    results = []

    def proc():
        outcome = yield from with_timeout(env, env.timeout(1, "fast"), 5)
        results.append(outcome)

    env.process(proc())
    env.run()
    assert results == ["fast"]


def test_with_timeout_returns_sentinel_on_deadline():
    env = Environment()
    store = Store(env)
    results = []

    def proc():
        outcome = yield from with_timeout(env, store.get(), 2)
        results.append(outcome)

    env.process(proc())
    env.run(until=10)
    assert results == [TIMED_OUT]


def test_with_timeout_cancels_losing_get():
    env = Environment()
    store = Store(env)
    got = []

    def impatient():
        outcome = yield from with_timeout(env, store.get(), 1)
        assert outcome is TIMED_OUT

    def patient():
        item = yield store.get()
        got.append(item)

    def producer():
        yield env.timeout(2)
        env.process(patient())
        yield env.timeout(1)
        store.put("x")

    env.process(impatient())
    env.process(producer())
    env.run()
    assert got == ["x"]


def test_with_timeout_propagates_event_failure():
    env = Environment()
    caught = []

    def proc():
        event = env.event()
        event.fail(RuntimeError("bad"))
        try:
            yield from with_timeout(env, event, 5)
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["bad"]


def test_with_timeout_failed_event_leaves_no_live_deadline(world):
    """A refused connect propagates through ``with_timeout`` and takes
    its deadline with it: no callback is left waiting in the heap."""
    env = world.env
    server_host, client_host = world.host("server"), world.host("client")
    client_proc = client_host.spawn("cli")
    refused = []

    def client():
        attempt = client_host.kernel.tcp_connect(
            client_proc, Endpoint(server_host.ip, 443))
        try:
            yield from with_timeout(env, attempt, 5.0)
        except ConnectionRefusedSim:
            refused.append(env.now)

    client_proc.run(client())
    env.run(until=1)
    assert refused
    assert all(not entry[3].callbacks for entry in env._queue)
