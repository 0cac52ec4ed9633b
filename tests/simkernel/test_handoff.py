"""Call entries and in-place hand-offs: fewer events, the same order.

``env.call_later(delay, fn, arg)`` is a network delivery's schedule
entry: ``(now + delay, NORMAL, next id, (fn, arg))``, the key a timeout
made then would have, with no event object.  ``Event.deliver`` (and
``Store.deliver``, which hands its getter off through it) runs the
waiters in place only when the run loop would pop that event next — no
process running, both same-instant lanes empty, no heap entry at
``now`` — and schedules it as ``succeed`` otherwise.  The frozen kernel
has them as a timeout with a callback and as ``succeed``; these tests
pin that both kernels run the same programs in the same order.
"""

import pytest

from repro.simkernel import Environment, reference

KERNELS = (Environment, reference.Environment)


def _interleaved(kernel):
    """Timeouts with a callback and call entries made at the same
    moments, some due together, some at once; each logs where it ran."""
    env = kernel()
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
    live, live_events = _interleaved(Environment)
    ref, ref_events = _interleaved(reference.Environment)
    assert live == ref
    assert live_events == ref_events == 21  # one event per entry
    # The ties are real: entries due together ran in the order made.
    assert live[:2] == [(("t", "first", 0.0), 0.0),
                        (("c", "first", 0.0), 0.0)]


def _zero_delay(kernel):
    """From a callback at t = 1: a succeeded event, a call, a zero
    timeout and another call, all due now."""
    env = kernel()
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
    live = _zero_delay(Environment)
    assert live == ["succeeded", "call 1", "zero", "call 2"]
    assert live == _zero_delay(reference.Environment)


@pytest.mark.parametrize("kernel", KERNELS)
def test_step_runs_one_call_entry(kernel):
    env = kernel()
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


def _running_process(kernel):
    """A process delivers, then logs: the waiter runs after it."""
    env = kernel()
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


def _busy_lane(kernel, urgent):
    """A callback at t = 1 makes something due now (a succeeded event,
    or a process start in the urgent lane), then delivers: that runs
    first."""
    env = kernel()
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


def _heap_entry_at_now(kernel):
    """Two timeouts due at t = 1, made in that order: the first
    delivers, so the second's callback is due before the waiter."""
    env = kernel()
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


CASES = {
    "a running process": _running_process,
    "a value in the ready lane": lambda kernel: _busy_lane(kernel, False),
    "a start in the urgent lane": lambda kernel: _busy_lane(kernel, True),
    "a heap entry at now": _heap_entry_at_now,
}


@pytest.mark.parametrize("case", CASES)
def test_a_handoff_that_is_not_provably_next_is_scheduled(case):
    live, env = CASES[case](Environment)
    ref, _ = CASES[case](reference.Environment)
    assert live == ref
    assert live[-1][0] == "waiter"  # after what was due first
    assert env.stats()["handoffs"] == 0


def _tied_store_delivery(kernel):
    """``Store.deliver`` under an exact float-time tie: two arrivals
    due at t = 1, the first feeds a parked reader; the second arrival's
    callback is due before the reader resumes."""
    env = kernel()
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
    live, env = _tied_store_delivery(Environment)
    ref, _ = _tied_store_delivery(reference.Environment)
    assert live == ref == ["tied arrival", ("reader", "item", 1.0)]
    assert env.stats()["handoffs"] == 0
