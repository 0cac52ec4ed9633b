"""A relay as callbacks against the loop it replaces, event for event.

A relay handler's steady state — take the next item from a store, burn
its CPU, hand it on — ran as a generator loop on ``Store.get`` and
``CpuModel.execute``; it runs as steps of a kernel relay
(``env.relay()``, ``Relay.read``) and ``CpuModel.charge``.  One script
runs here twice, once each way: seven relays on a host of two cores,
arrivals handed over in place and scheduled, an item queued before its
relay arms, an item with no work, and an interrupt landing in each
state a relay can be in — armed, its step scheduled, its burst running,
queued for a core, granted a core but not started.  Both runs must
schedule the same events, hand off the same arrivals in place, keep the
same CPU books and log the same items at the same instants; an
interrupted relay runs no later step, and what reaches its store
afterwards stays there.
"""

import pytest

from repro.netsim import CpuModel
from repro.netsim.cpu import _GRANTED, _QUEUED, _RUNNING
from repro.simkernel import Environment, Interrupt, SimulationError

#: Work units per item at ten units a second: a 0.1 s burst.
UNITS = 1.0

#: (time, relay, item, how it arrives): ``deliver`` from a call entry
#: (in place when nothing else is due then), ``put`` (always scheduled).
#: Several arrive at one instant, so some delivers find another entry
#: due and are scheduled.
ARRIVALS = (
    (0.05, 0, "a", "deliver"), (0.05, 1, "a", "deliver"),
    (0.05, 2, "a", "put"), (0.12, 0, "b", "deliver"),
    (0.12, 0, "c", "deliver"), (0.3, 0, "zero", "deliver"),
    (0.6, 1, "late", "deliver"), (0.7, 1, "later", "put"),
    (0.8, 2, "b", "deliver"), (1.2, 2, "late", "deliver"),
    (2.0, 3, "a", "deliver"), (2.3, 3, "late", "deliver"),
    (3.0, 4, "a", "deliver"), (3.0, 5, "a", "deliver"),
    (3.0, 6, "a", "deliver"), (3.3, 6, "late", "put"),
    (3.6, 5, "c", "deliver"),
    (4.0, 4, "b", "deliver"), (4.0, 5, "b", "deliver"),
    (4.0, 0, "d", "deliver"), (4.3, 0, "last", "put"),
    (4.3, 5, "last", "put"), (4.4, 0, "after", "deliver"),
)

#: (time, relays interrupted in one callback, in order).
INTERRUPTS = (
    (0.5, (1,)),     # armed: its store is empty
    (2.05, (3,)),    # its burst is running
    (3.05, (6,)),    # queued: relays 4 and 5 hold both cores
    (4.05, (4, 0)),  # 0 queued behind 4 and 5: 4's core is granted to
                     # 0 when 4's interrupt is thrown, before 0's is
)


def _units(item):
    return 0.0 if item == "zero" else UNITS


def in_flight(charge):
    return charge is not None and charge.state in (_QUEUED, _GRANTED,
                                                   _RUNNING)


def _run(mode):
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=10.0, bucket_width=0.5)
    stores = [env.make_store() for _ in range(7)]
    stores[0].put("queued")  # there before its relay arms
    log, states, handlers, steps = [], {}, [], {}

    def looped(index, store):
        """The loop a relay replaces."""
        try:
            while True:
                item = yield store.get()
                if item == "last":
                    break
                yield from cpu.execute(_units(item))
                log.append(("relayed", index, item, env.now))
        except Interrupt:
            log.append(("interrupted", index, env.now))
            return
        log.append(("done", index, env.now))

    class Steps:
        def __init__(self, index, store, relay):
            self.index, self.store, self.relay = index, store, relay
            steps[index] = self
            relay.read(store, self.item)

        def item(self, item):
            if item == "last":
                self.relay.wake()
                return
            self.relay.charge(cpu, _units(item), self.relayed, item)

        def relayed(self, item):
            assert env.active_process is handlers[self.index]
            log.append(("relayed", self.index, item, env.now))
            self.relay.read(self.store, self.item)

    def stepped(index, store):
        steps = Steps(index, store, env.relay())
        relay = steps.relay
        try:
            try:
                yield relay
            finally:
                # What ``close`` withdraws, as the interrupt is thrown.
                states.setdefault(index, {
                    _RUNNING: "running", _QUEUED: "queued",
                    _GRANTED: "granted"}.get(getattr(relay._work, "state",
                                                     None)))
                relay.close()
        except Interrupt:
            log.append(("interrupted", index, env.now))
            return
        log.append(("done", index, env.now))

    handler = looped if mode == "looped" else stepped
    for index, store in enumerate(stores):
        handlers.append(env.process(handler(index, store)))

    def arrive(arrival):
        _, index, item, how = arrival
        getattr(stores[index], how)(item)

    for arrival in ARRIVALS:
        env.call_later(arrival[0], arrive, arrival)

    def interrupt(victims):
        for index in victims:
            if mode == "stepped" and not in_flight(steps[index].relay._work):
                # A charge's state is read when the interrupt is thrown.
                armed = stores[index]._reader is handlers[index]._target
                states[index] = "armed" if armed else "step scheduled"
            handlers[index].interrupt("stop")

    def put_then_interrupt(_arg):
        stores[2].put("scheduled")  # its step is due, not yet run
        interrupt((2,))

    for at, victims in INTERRUPTS:
        env.call_later(at, interrupt, victims)
    env.call_later(1.0, put_then_interrupt, None)
    env.run(until=6.0)
    stats = env.stats()
    return {"stats": {key: stats[key] for key in ("events", "handoffs",
                                                  "now")},
            "buckets": dict(cpu.tracker.busy._buckets),
            "busy_s": cpu.total_busy_seconds, "cores": cpu.busy,
            "queue": cpu.queue_length, "log": log,
            "items": [list(store.items) for store in stores],
            "states": states}


def test_relay_steps_run_event_for_event_as_the_loop_they_replace():
    looped, stepped = _run("looped"), _run("stepped")
    states = stepped.pop("states")
    assert looped.pop("states") == {}
    assert stepped == looped
    # Every state an interrupt can find a relay in was found.
    assert {states[index] for index in (1, 2, 3, 6, 0)} == {
        "armed", "step scheduled", "running", "queued", "granted"}
    assert looped["stats"]["handoffs"] >= 3
    log = looped["log"]
    interrupted = {entry[1]: entry[2] for entry in log
                   if entry[0] == "interrupted"}
    assert sorted(interrupted) == [0, 1, 2, 3, 4, 6]
    assert ("done", 5, 4.3) in log
    # No step ran after the interrupt, and what came later stayed put.
    assert not [entry for entry in log if entry[0] == "relayed"
                and entry[1] in interrupted
                and entry[3] >= interrupted[entry[1]]]
    items = looped["items"]
    assert items[1] == ["late", "later"] and items[2] == ["late"]
    assert items[3] == ["late"] and items[6] == ["late"]
    assert items[0] == ["last", "after"]
    # The queued item was relayed first; the one with no work took no
    # time, and waited for no core.
    assert log[0] == ("relayed", 0, "queued", 0.1)
    relayed = {entry[2]: entry[3] for entry in log
               if entry[0] == "relayed" and entry[1] == 0}
    assert relayed["zero"] == relayed["c"]
    # Both cores free, nothing queued, at the end.
    assert (looped["cores"], looped["queue"]) == (0, 0)


def test_a_store_has_one_reader_or_getters():
    env = Environment()
    store, other = env.make_store(), env.make_store()
    refused = []

    def getter():
        yield store.get()

    def reader():
        relay = env.relay()
        try:
            relay.read(store, refused.append)
        except SimulationError:
            refused.append("reader")
        relay.read(other, refused.append)
        try:
            other.get()
        except SimulationError:
            refused.append("getter")
        yield relay

    env.process(getter())
    env.process(reader())
    env.run(until=1.0)
    assert refused == ["reader", "getter"]
    with pytest.raises(SimulationError):
        env.relay()  # no process is running
