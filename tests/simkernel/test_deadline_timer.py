"""A wait under a deadline: one heap per environment, no race, same schedule.

``Store.get(timeout=...)`` and ``env.within`` park a process on its own
event and put the deadline in the environment's deadline heap, one
:class:`~repro.simkernel.events.Deadline` record per process.  The
schedule holds one entry, for the heap's head; a record whose wait
ended is dropped, and one that carries a later deadline is re-keyed,
when it reaches the head — at no event.  These tests pin that this
reproduces what a fresh timeout per wait did — the frozen kernel still
races one (``reference.Within``) — down to the float the deadline fires
at and the order deadlines at one instant fire in; that deadlines that
do not fire cost O(1) schedule entries, not one each; and that neither
a finished process nor a wait that ended stays reachable through the
heap.
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
    """The deadline's schedule entry outlives the process (it pops at
    t = 30); the heap's record does not hold the process, so
    refcounting frees the process when it finishes — no collector pass
    needed."""
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
    # The heap's entry and the dead record stay (the record counted for
    # the next compaction); no entry was tombstoned.
    assert (stats["heap"], stats["tombstones"], stats["deadlines"]) == (
        1, 1, 1)
    env.run()
    # The entry pops at its time and drops the record.
    assert env.now == 30.0 and env.stats()["deadlines"] == 0


def _short_exchanges(deadline, count=200):
    """``count`` processes started 0.01 s apart, each receiving one item
    (0.005 s after it starts) under ``deadline`` and finishing: the shape
    of a per-stream process that does one exchange."""
    env = Environment()
    got = []

    def exchange():
        store = env.make_store()
        env.timeout(0.005).callbacks.append(lambda _event: store.put("item"))
        got.append((yield store.get(timeout=deadline)))

    def spawner():
        for _ in range(count):
            env.process(exchange())
            yield env.timeout(0.01)

    env.process(spawner())
    env.run()
    assert got == ["item"] * count
    return env.stats()


def test_deadlines_that_do_not_fire_push_o1_schedule_entries():
    """Two hundred one-shot waits under a deadline cost the heap's
    entry (once for the first deadline, once more after the heap has
    been compacted) — not a timer each; every record is dropped, by a
    compaction or at the head, at no event."""
    bounded, unbounded = _short_exchanges(5.0), _short_exchanges(None)
    assert bounded["events"] - unbounded["events"] <= 2
    assert bounded["deadlines"] == 0


def _sessions(deadline, count=200):
    """``count`` sessions started 0.01 s apart, each waiting on its
    inbox, which nothing feeds, under ``deadline`` (or for ever)."""
    env = Environment()
    got = []

    def session():
        got.append((yield env.make_store().get(timeout=deadline)))

    def spawner():
        for _ in range(count):
            env.process(session())
            yield env.timeout(0.01)

    env.process(spawner())
    env.run(until=10.0)
    return got, env.stats()


def test_deadlines_that_all_fire_cost_their_entries_and_no_wake():
    """Each deadline heads the heap once and fires from its own entry,
    which wakes its session in place: 200 schedule entries, no wake
    event (one each while the expired get was scheduled)."""
    got, bounded = _sessions(0.5)
    assert got == [TIMED_OUT] * 200
    _, unbounded = _sessions(None)
    assert bounded["events"] - unbounded["events"] == 200
    assert bounded["handoffs"] - unbounded["handoffs"] == 200
    assert bounded["deadlines"] == 0


def _same_instant_from_processes(kernel):
    """Three processes a, b, c set deadlines due at t = 6 at one instant
    (t = 1), and a timeout due then too is created between b's and c's;
    it notes whose wait is decided when it pops.  A fourth process, d,
    sets a deadline later (t = 2) that is due sooner (t = 5)."""
    env = kernel()
    waits, log = {}, []

    def waiter(name, start, delay):
        yield env.timeout(start)
        waits[name] = env.make_store().get(timeout=delay)
        outcome = yield waits[name]
        log.append((name, outcome, env.now))

    def note(_event):
        log.append(("timeout", [name for name in "abc"
                                if waits[name].triggered], env.now))

    def timeout_maker():
        yield env.timeout(1.0)
        env.timeout(5.0).callbacks.append(note)

    env.process(waiter("a", 1.0, 5.0))
    env.process(waiter("b", 1.0, 5.0))
    env.process(timeout_maker())
    env.process(waiter("c", 1.0, 5.0))
    env.process(waiter("d", 2.0, 3.0))
    env.run()
    return log


def test_deadlines_from_processes_at_one_instant_fire_in_the_order_set():
    """a's and b's deadlines fire before the timeout created after them
    and c's after it: the order timeouts pushed per wait would pop in."""
    live = _same_instant_from_processes(Environment)
    assert live == [("d", TIMED_OUT, 5.0), ("timeout", ["a", "b"], 6.0),
                    ("a", TIMED_OUT, 6.0), ("b", TIMED_OUT, 6.0),
                    ("c", TIMED_OUT, 6.0)]
    assert live == _same_instant_from_processes(reference.Environment)


def test_a_loop_under_one_deadline_instant_pushes_nothing_per_wait():
    """Every wait of the loop ends at the same instant, t = 8; each wait
    after the first costs only the get its item wakes."""
    env = Environment()
    store = env.make_store()
    for t in range(1, 6):
        env.timeout(float(t)).callbacks.append(
            lambda _event, t=t: store.put(t))
    marks, got = [], []

    def loop():
        while True:
            marks.append(env.stats()["events"])
            outcome = yield store.get(timeout=8.0 - env.now)
            got.append((outcome, env.now))
            if outcome is TIMED_OUT:
                return

    env.process(loop())
    env.run()
    assert got == [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0),
                   (TIMED_OUT, 8.0)]
    # The first wait pushed the heap's entry; the next four, nothing.
    assert [b - a for a, b in zip(marks[1:], marks[2:])] == [1, 1, 1, 1]
    assert env.stats()["tombstones"] == 0


def _superseded_head(env, compact):
    """a waits under 10 s at t = 0; b under 4 s at t = 1, due sooner, so
    a's schedule entry is stripped for b's; b's item lands at t = 2.
    With ``compact``, 65 cancelled timeouts at t = 1.5 make the
    environment reclaim its tombstones."""
    stores = env.make_store(), env.make_store()
    log = []

    def waiter(store, start, delay):
        yield env.timeout(start)
        log.append(((yield store.get(timeout=delay)), env.now))

    def canceller():
        yield env.timeout(1.5)
        for _ in range(65):
            env.timeout(50.0).cancel()

    env.timeout(2.0).callbacks.append(lambda _event: stores[1].put("item"))
    env.process(waiter(stores[0], 0.0, 10.0))
    env.process(waiter(stores[1], 1.0, 4.0))
    if compact:
        env.process(canceller())
    return log


@pytest.mark.parametrize("compact", [False, True])
def test_a_superseded_head_entry_is_revived_not_pushed_again(compact):
    """A stripped entry is a no-op while stripped, but it is not a
    tombstone: it is not counted as one, compaction keeps it, and it is
    live again when its record heads the heap once more."""
    env = Environment()
    log = _superseded_head(env, compact)
    env.run(until=3.0)
    # Counted since the last compaction: b's finished record alone.
    assert env.stats()["tombstones"] == 1
    events = env.stats()["events"]
    env.run(until=6.0)
    # b's entry popped at 5 and dropped b's record; a heads the heap
    # again and its entry is live once more — no new event.
    assert env.stats()["events"] == events
    assert (env.stats()["heap"], env.stats()["deadlines"]) == (1, 1)
    env.run()
    assert log == [("item", 2.0), (TIMED_OUT, 10.0)]


def _zero_deadlines(kernel):
    """At t = 1 a feeder schedules a put for this instant, then the
    receiver waits under a deadline due at once, twice: the first wait
    is answered by the put scheduled before it, the second times out."""
    env = kernel()
    store = env.make_store()
    log = []

    def feeder():
        yield env.timeout(1.0)
        env.timeout(0.0).callbacks.append(lambda _event: store.put("item"))

    def receiver():
        yield env.timeout(1.0)
        for _ in range(2):
            log.append(((yield store.get(timeout=0.0)), env.now))

    env.process(feeder())
    env.process(receiver())
    env.run()
    return log


def test_a_deadline_keeps_its_place_where_ids_leave_no_key_between():
    """From 2**29 on, an event id plus the key step rounds back to the
    id; the deadline then takes the next id, so it still sorts after a
    timeout pushed for the same instant just before it."""
    env = Environment()
    env._eid = 2 ** 29
    store = env.make_store()
    log = []

    def waiter():
        env.timeout(5.0).callbacks.append(lambda _event: log.append("timer"))
        log.append((yield store.get(timeout=5.0)))

    env.process(waiter())
    env.run()
    assert log == ["timer", TIMED_OUT]
    assert env.now == 5.0


def test_a_deadline_due_at_once_expires_behind_this_instants_events():
    """Not compared with the frozen kernel: it schedules the get a put
    satisfies, so there the deadline popping after the put still wins."""
    assert _zero_deadlines(Environment) == [("item", 1.0), (TIMED_OUT, 1.0)]


class _Item:
    """Something a weak reference can watch."""


def test_a_wait_that_ended_early_holds_nothing_until_its_deadline():
    """The process got its item at t = 1 and its reply at t = 2, then
    went to sleep; its record is still in the heap (due t = 100), but
    holds neither wait's event nor what the event delivered."""
    env = Environment()
    store = env.make_store()
    watched = []

    def receiver():
        item = _Item()
        watched.append(weakref.ref(item))
        env.timeout(1.0).callbacks.append(
            lambda _event, item=item: store.put(item))
        del item
        yield store.get(timeout=99.0)
        reply, value = env.event(), _Item()
        watched.append(weakref.ref(value))
        env.timeout(1.0).callbacks.append(
            lambda _event, reply=reply, value=value: reply.succeed(value))
        del value
        yield env.within(reply, 99.0)
        del reply
        yield env.timeout(50.0)

    env.process(receiver())
    enabled = gc.isenabled()
    gc.disable()
    try:
        env.run(until=10.0)
        assert len(watched) == 2
        assert [ref() for ref in watched] == [None, None]
    finally:
        if enabled:
            gc.enable()
    assert env.stats()["deadlines"] == 1


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
