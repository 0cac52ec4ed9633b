"""A wait under a deadline: one timer per process, no race, same schedule.

``Store.get(timeout=...)`` and ``env.within`` park a process on its own
event and let the process's one :class:`~repro.simkernel.events.Deadline`
carry the deadline.  The timer is armed at the first deadline and,
when it fires before the current one, re-arms there.  These tests pin
that this reproduces what a fresh timeout per wait did — the frozen
kernel still races one (``reference.Within``) — down to the float the
deadline fires at and the order two deadlines at one instant fire in;
and that a finished process does not stay reachable through its timer.
"""

import gc
import weakref

import pytest

from repro.simkernel import Environment, reference
from repro.simkernel.events import TIMED_OUT

KERNELS = (Environment, reference.Environment)


def _rearmed_deadline(kernel):
    """Receive under 0.2 s, get an item at t = 0.1, then receive under
    0.7 s: the timer armed at 0.2 must re-arm at ``0.1 + 0.7``, which is
    not ``0.2 + ((0.1 + 0.7) - 0.2)``."""
    env = kernel()
    store = env.make_store()
    env.timeout(0.1).callbacks.append(lambda _event: store.put("item"))
    log = []

    def waiter():
        log.append(((yield store.get(timeout=0.2)), env.now))
        log.append(((yield store.get(timeout=0.7)), env.now))

    env.process(waiter())
    env.run()
    return log


def test_a_rearmed_deadline_fires_at_the_float_a_timeout_would():
    deadline = 0.1 + 0.7
    assert 0.2 + (deadline - 0.2) != deadline  # the trap
    live = _rearmed_deadline(Environment)
    assert live == [("item", 0.1), (TIMED_OUT, deadline)]
    assert live == _rearmed_deadline(reference.Environment)


def _same_instant_deadlines(kernel):
    """A's deadline is deferred behind its armed timer (set at t = 1.5,
    due 7.0); B's is set later (t = 2, due 7.0) on a fresh timer.  A
    timeout pushed per wait fires A's first."""
    env = kernel()
    store_a, store_b = env.make_store(), env.make_store()
    env.timeout(1.5).callbacks.append(lambda _event: store_a.put("item"))
    woke = []

    def a():
        yield store_a.get(timeout=3.0)  # arms A's timer at 3.0
        outcome = yield store_a.get(timeout=5.5)
        woke.append(("a", outcome, env.now))

    def b():
        yield env.timeout(2.0)
        outcome = yield store_b.get(timeout=5.0)
        woke.append(("b", outcome, env.now))

    env.process(a())
    env.process(b())
    env.run()
    return woke


def test_two_deadlines_at_one_instant_fire_in_the_order_they_were_set():
    live = _same_instant_deadlines(Environment)
    assert live == [("a", TIMED_OUT, 7.0), ("b", TIMED_OUT, 7.0)]
    assert live == _same_instant_deadlines(reference.Environment)


def test_a_finished_process_with_an_armed_timer_is_freed_at_once():
    """The timer's schedule entry outlives the process (it pops at
    t = 30); the process is tombstoned out of it, so refcounting frees
    the process when it finishes — no collector pass needed."""
    env = Environment()
    store = env.make_store()
    env.timeout(1.0).callbacks.append(lambda _event: store.put("item"))

    def receiver():
        yield store.get(timeout=30.0)

    generator = receiver()
    alive = weakref.ref(generator)
    env.process(generator)
    del generator
    enabled = gc.isenabled()
    gc.disable()
    try:
        env.run(until=2.0)
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
    stats = env.stats()
    assert (stats["heap"], stats["tombstones"]) == (1, 1)
    env.run()
    assert env.now == 30.0  # the tombstone still pops as a no-op


def test_within_bounds_an_event_only_the_caller_waits_on():
    """``env.within`` on a plain event: the deadline succeeds it with
    ``TIMED_OUT``, so a producer that comes late finds it decided."""
    for kernel in KERNELS:
        env = kernel()
        outcomes = []

        def waiter():
            for delay in (1.0, 3.0):
                reply = env.event()

                def answer(_event, reply=reply):
                    if not reply.triggered:
                        reply.succeed("reply")

                env.timeout(2.0).callbacks.append(answer)
                outcomes.append((yield env.within(reply, delay)))

        env.process(waiter())
        env.run()
        assert outcomes == [TIMED_OUT, "reply"], kernel


def test_a_negative_deadline_is_refused_as_a_timeout_would_be():
    for kernel in KERNELS:
        env = kernel()
        store = env.make_store()
        refused = []

        def waiter():
            with pytest.raises(ValueError):
                yield store.get(timeout=-1.0)
            refused.append(env.now)

        env.process(waiter())
        env.run()
        assert refused == [0.0], kernel
