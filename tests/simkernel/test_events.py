"""Tests for the event primitives and the environment run loop."""

import gc

import pytest

from repro.simkernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5.0, 7.5]


def test_timeout_value_passed_through():
    env = Environment()
    result = []

    def proc():
        value = yield env.timeout(1, value="hello")
        result.append(value)

    env.process(proc())
    env.run()
    assert result == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=35)
    assert env.now == 35


def test_run_until_time_with_empty_queue_sets_now():
    env = Environment()
    env.run(until=100)
    assert env.now == 100


def test_run_until_past_time_raises():
    env = Environment(initial_time=50)
    with pytest.raises(ValueError):
        env.run(until=10)


def test_events_processed_in_time_order():
    env = Environment()
    order = []

    def waiter(delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(waiter(3, "c"))
    env.process(waiter(1, "a"))
    env.process(waiter(2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_fifo_order_at_equal_time():
    env = Environment()
    order = []

    def waiter(label):
        yield env.timeout(1)
        order.append(label)

    for label in "abcd":
        env.process(waiter(label))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(1)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_run_until_event_returns_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return "done"

    proc = env.process(child())
    assert env.run(until=proc) == "done"
    assert env.now == 3


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    caught = []

    def proc():
        event = env.event()
        event.fail(ValueError("boom"))
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates_to_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise RuntimeError("crash")

    env.process(proc())
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def _finish_price(env, body, waited):
    """Events scheduled by the finish of a process running ``body``."""
    marks = []

    def proc():
        yield env.timeout(1)
        marks.append(env._eid)
        return body()

    process = env.process(proc())
    if waited:
        process.callbacks.append(lambda event: event.defused())
    try:
        env.run()
    finally:
        marks.append(env._eid)
    return marks[1] - marks[0], process


def _crash():
    raise RuntimeError("crash")


def test_only_a_finish_somebody_waits_on_is_scheduled():
    env = Environment()
    price, process = _finish_price(env, lambda: "done", waited=False)
    assert price == 0
    assert process.processed and process.value == "done"
    price, process = _finish_price(env, lambda: "done", waited=True)
    assert price == 1 and process.processed
    # A failure is scheduled either way: the run loop is what raises it.
    price, _ = _finish_price(env, _crash, waited=True)
    assert price == 1
    with pytest.raises(RuntimeError, match="crash"):
        _finish_price(env, _crash, waited=False)


def test_an_already_finished_unwaited_process_still_gives_its_value():
    env = Environment()

    def child():
        yield env.timeout(1)
        return 42

    def late_waiter(results):
        yield env.timeout(2)
        results.append((yield finished))
        results.append((yield env.all_of([finished])))
        results.append((yield env.any_of([finished, env.event()])))

    finished = env.process(child())
    results = []
    env.process(late_waiter(results))
    env.run()
    assert results == [42, {finished: 42}, {finished: 42}]
    assert env.run(until=finished) == 42


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_is_delivered():
    env = Environment()
    causes = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            causes.append((env.now, interrupt.cause))

    def attacker(target):
        yield env.timeout(5)
        target.interrupt(cause="restart")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert causes == [(5.0, "restart")]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def victim():
        yield env.timeout(1)

    target = env.process(victim())
    env.run()
    with pytest.raises(SimulationError):
        target.interrupt()


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(10)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_all_of_collects_all_values():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        values = yield AllOf(env, [t1, t2])
        got.append(sorted(values.values()))

    env.process(proc())
    env.run()
    assert got == [["a", "b"]]
    assert env.now == 2


def test_any_of_triggers_on_first():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(50, value="slow")
        values = yield AnyOf(env, [t1, t2])
        got.append(list(values.values()))

    env.process(proc())
    env.run(until=2)
    assert got == [["fast"]]


def test_condition_on_already_processed_event():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(1, value="x")
        yield t1
        # t1 is now processed; waiting on it again must not hang.
        values = yield AllOf(env, [t1])
        got.append(list(values.values()))

    env.process(proc())
    env.run()
    assert got == [["x"]]


def test_empty_condition_triggers_immediately():
    env = Environment()
    done = []

    def proc():
        yield AllOf(env, [])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_a_decided_race_is_freed_by_refcount():
    """A decided condition lets go of its children: the losing get
    still holds the condition's check in its callbacks, so if the
    condition held the loser as well the pair would be a cycle that
    only the collector could free."""
    env = Environment()
    fast, slow = env.make_store(), env.make_store()
    got = []

    def racer():
        loser = slow.get()
        result = yield env.any_of([fast.get(), loser])
        loser.cancel()
        got.extend(result.values())

    while gc.collect():  # what earlier tests left; a finalizer run in
        pass             # one pass can leave more for the next
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        env.process(racer())
        env.timeout(1.0).callbacks.append(lambda _event: fast.put("won"))
        env.run()
        slow.put("later")  # the store drops its withdrawn getter
        gc.collect()
        garbage = sorted(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert got == ["won"] and slow.items == ["later"]
    assert garbage == []
