"""Timeout tombstoning + with_timeout cancellation hygiene.

The regression pinned here: ``with_timeout`` races an event against a
deadline, and when the event wins, the losing deadline used to stay in
the scheduler heap until its (possibly far-future) expiry.  A relay
loop calling ``with_timeout`` per message therefore grew the heap
without bound — millions of dead timeouts dominating every sift.  The
fix is ``Timeout.cancel`` tombstoning plus bulk compaction in the
environment; these tests pin both the bound and the safety rules
(shared timeouts must never be cancelled out from under other waiters).
"""

from repro.netsim.proc_utils import TIMED_OUT, with_timeout
from repro.simkernel import Environment, Store

#: Far-future deadline: without tombstone compaction every one of these
#: would sit in the heap until t=10000.
DEADLINE = 10_000.0
ROUNDS = 2_000


def test_event_wins_do_not_grow_the_heap():
    env = Environment()
    store = Store(env)
    done = []

    def producer():
        while True:
            store.put("item")
            yield env.timeout(0.001)

    def consumer():
        for _ in range(ROUNDS):
            out = yield from with_timeout(env, store.get(), DEADLINE)
            assert out == "item"
        done.append(env.now)

    env.process(producer())
    env.process(consumer())
    env.run(until=60.0)
    assert done, "consumer did not finish its rounds"
    # 2000 event-wins left at most a bounded residue of tombstones:
    # compaction keeps dead deadlines from dominating the schedule.
    stats = env.stats()
    assert stats["tombstones"] <= stats["heap"] < ROUNDS / 4, (
        f"heap holds {stats['heap']} entries after {ROUNDS} "
        f"event-wins — cancelled deadlines are not being reclaimed")


def test_stats_report_the_kernels_own_counts():
    env = Environment()
    assert env.stats() == {"events": 0, "now": 0.0, "heap": 0,
                           "tombstones": 0, "deadlines": 0, "handoffs": 0}
    env.timeout(5.0)
    env.timeout(7.0).cancel()
    assert env.stats() == {"events": 2, "now": 0.0, "heap": 2,
                           "tombstones": 1, "deadlines": 0, "handoffs": 0}
    env.run(until=6.0)
    assert env.stats() == {"events": 2, "now": 6.0, "heap": 1,
                           "tombstones": 1, "deadlines": 0, "handoffs": 0}
    # A getter woken in place is a hand-off, not an event.
    store = Store(env)
    got = store.get()
    env.call_later(1.0, store.deliver, "item")
    env.run(until=8.0)
    assert got.value == "item"
    assert env.stats() == {"events": 3, "now": 8.0, "heap": 0,
                           "tombstones": 1, "deadlines": 0, "handoffs": 1}


def test_timeout_win_still_returns_sentinel():
    env = Environment()
    store = Store(env)
    results = {}

    def waiter():
        out = yield from with_timeout(env, store.get(), 1.0)
        results["first"] = out
        # The losing get must have been withdrawn: a later put may not
        # be consumed by the stale getter.
        store.put("late")
        results["second"] = yield from with_timeout(env, store.get(), 1.0)

    env.process(waiter())
    env.run(until=10.0)
    assert results["first"] is TIMED_OUT
    assert results["second"] == "late"


def test_cancel_refuses_while_others_wait():
    env = Environment()
    shared = env.timeout(5.0, value="fired")
    seen = []
    shared.callbacks.append(lambda event: seen.append(event.value))
    shared.cancel()  # must refuse: someone still waits on it
    assert not shared._defused
    env.run(until=10.0)
    assert seen == ["fired"]


def test_cancelled_timeout_preserves_schedule_determinism():
    """A tombstone pops as a no-op: clock and event ids match an
    uncancelled run exactly (cancel neither pushes nor reorders)."""

    def drive(cancel: bool):
        env = Environment()
        order = []

        def proc():
            loser = env.timeout(7.0)
            if cancel:
                loser.cancel()
            yield env.timeout(1.0)
            order.append(env.now)
            yield env.timeout(9.0)
            order.append(env.now)

        env.process(proc())
        env.run(until=20.0)
        return order, env.now, env._eid

    assert drive(cancel=True) == drive(cancel=False)
