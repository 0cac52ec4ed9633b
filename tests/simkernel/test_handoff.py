"""Call entries and in-place hand-offs: fewer events, the same order.

``env.call_later(delay, fn, arg)`` is a network delivery's schedule
entry: ``(now + delay, NORMAL, next id, (fn, arg))``, the key a timeout
made then would have, with no event object.  ``Event.deliver`` (and
``Store.deliver``, which hands its getter off through it) runs the
waiters in place only when the run loop would pop that event next — no
process running, both same-instant lanes empty, no heap entry at
``now`` — and schedules it as ``succeed`` otherwise.  These tests pin
that both run a program in the order a timeout with a callback and
``succeed`` would: the order the logs below write in.
"""

import pytest

from repro.simkernel import Environment


def _interleaved():
    """Timeouts with a callback and call entries made at the same
    moments, some due together, some at once; each logs where it ran."""
    env = Environment()
    log = []

    def note(what):
        log.append((what, env.now))

    def burst(tag):
        for delay in (0.5, 0.0, 0.25, 0.5, 0.0):
            env.timeout(delay).callbacks.append(
                lambda _event, tag=tag, delay=delay: note(("t", tag, delay)))
            env.call_later(delay, note, ("c", tag, delay))

    burst("first")
    env.call_later(0.25, burst, "second")
    env.run()
    return log, env._eid


def test_a_call_entry_pops_where_a_timeout_made_then_would():
    live, events = _interleaved()
    assert events == 21  # one event per entry
    # Pop order is (due time, order made): entries due together ran in
    # the order made, the second burst's (made at t = 0.25) after the
    # first's.
    made = [(at + delay, (kind, tag, delay))
            for at, tag in ((0.0, "first"), (0.25, "second"))
            for delay in (0.5, 0.0, 0.25, 0.5, 0.0) for kind in "tc"]
    made.sort(key=lambda entry: entry[0])  # stable: ties keep their order
    assert live == [(what, due) for due, what in made]


def _zero_delay():
    """From a callback at t = 1: a succeeded event, a call, a zero
    timeout and another call, all due now."""
    env = Environment()
    log = []
    event = env.event()
    event.callbacks.append(lambda _event: log.append("succeeded"))

    def at_one(_arg):
        event.succeed()
        env.call_later(0, log.append, "call 1")
        env.timeout(0).callbacks.append(lambda _event: log.append("zero"))
        env.call_later(0, log.append, "call 2")

    env.call_later(1.0, at_one, None)
    env.run()
    return log


def test_a_zero_delay_call_joins_the_ready_lane_in_fifo_order():
    assert _zero_delay() == ["succeeded", "call 1", "zero", "call 2"]


def test_step_runs_one_call_entry():
    env = Environment()
    log = []
    env.call_later(1.0, log.append, "one")
    env.call_later(2.0, log.append, "two")
    env.step()
    assert (log, env.now) == (["one"], 1.0)


def test_compaction_keeps_call_entries():
    env = Environment()
    log = []
    for delay in (3.0, 1.0, 2.0):
        env.call_later(delay, log.append, delay)
    for _ in range(65):
        env.timeout(5.0).cancel()
    # The 65th cancellation compacted the heap; the calls are still in it.
    assert env.stats()["tombstones"] == 0
    assert len(env._queue) == 3
    env.run()
    assert log == [1.0, 2.0, 3.0]


def test_a_negative_delay_is_refused_as_a_timeout_would_be():
    with pytest.raises(ValueError):
        Environment().call_later(-1.0, print, None)


# -- Event.deliver -------------------------------------------------------------


def test_a_handoff_that_is_provably_next_runs_in_place():
    env = Environment()
    event = env.event()
    log = []

    def waiter():
        log.append(("woke", (yield event)))

    def at_one(_arg):
        before = env.stats()
        event.deliver("value")
        after = env.stats()
        log.append(("returned", after["events"] - before["events"],
                    after["handoffs"] - before["handoffs"]))

    env.process(waiter())
    env.call_later(1.0, at_one, None)
    env.run()
    assert log == [("woke", "value"), ("returned", 0, 1)]


def _running_process():
    """A process delivers, then logs: the waiter runs after it."""
    env = Environment()
    event = env.event()
    log = []

    def waiter():
        log.append(("waiter", (yield event), env.now))

    def deliverer():
        yield env.timeout(1.0)
        event.deliver("value")
        log.append(("deliverer", env.now))

    env.process(waiter())
    env.process(deliverer())
    env.run()
    return log, env


def _busy_lane(urgent):
    """A callback at t = 1 makes something due now (a succeeded event,
    or a process start in the urgent lane), then delivers: that runs
    first."""
    env = Environment()
    event, other = env.event(), env.event()
    log = []

    def waiter(name, on):
        log.append((name, (yield on), env.now))

    def starter():
        log.append(("started", env.now))
        yield from ()

    def at_one(_event):
        if urgent:
            env.process(starter())
        else:
            other.succeed("other")
        event.deliver("value")

    env.process(waiter("waiter", event))
    env.process(waiter("other", other))
    env.timeout(1.0).callbacks.append(at_one)
    env.run(until=2.0)
    return log, env


def _heap_entry_at_now():
    """Two timeouts due at t = 1, made in that order: the first
    delivers, so the second's callback is due before the waiter."""
    env = Environment()
    event = env.event()
    log = []

    def waiter():
        log.append(("waiter", (yield event), env.now))

    env.process(waiter())
    env.timeout(1.0).callbacks.append(lambda _event: event.deliver("value"))
    env.timeout(1.0).callbacks.append(
        lambda _event: log.append(("tied timeout", env.now)))
    env.run()
    return log, env


#: Each case, and what ran first: the waiter comes after it.
CASES = {
    "a running process": (_running_process, ("deliverer", 1.0)),
    "a value in the ready lane": (lambda: _busy_lane(False),
                                  ("other", "other", 1.0)),
    "a start in the urgent lane": (lambda: _busy_lane(True),
                                   ("started", 1.0)),
    "a heap entry at now": (_heap_entry_at_now, ("tied timeout", 1.0)),
}


@pytest.mark.parametrize("case", CASES)
def test_a_handoff_that_is_not_provably_next_is_scheduled(case):
    build, first = CASES[case]
    log, env = build()
    assert log == [first, ("waiter", "value", 1.0)]
    assert env.stats()["handoffs"] == 0


def _tied_store_delivery():
    """``Store.deliver`` under an exact float-time tie: two arrivals
    due at t = 1, the first feeds a parked reader; the second arrival's
    callback is due before the reader resumes."""
    env = Environment()
    store = env.make_store()
    log = []

    def reader():
        log.append(("reader", (yield store.get()), env.now))

    env.process(reader())
    env.call_later(1.0, store.deliver, "item")
    env.call_later(1.0, log.append, "tied arrival")
    env.run()
    return log, env


def test_a_store_hand_off_under_a_time_tie_keeps_the_frozen_order():
    log, env = _tied_store_delivery()
    assert log == ["tied arrival", ("reader", "item", 1.0)]
    assert env.stats()["handoffs"] == 0
