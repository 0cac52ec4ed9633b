"""Event budget: the hot primitives schedule only what somebody waits on.

A figure-scale run is almost nothing but message hops, so the number of
kernel events one hop costs is the simulator's unit price.  These tests
pin that price by the scheduled-event count (``env._eid``, or
``env.stats()["events"]``) — per primitive, for one whole
request/response round trip, for one datagram and for one POST body
chunk through the Origin relay — so an extra hop (a put event nobody
yields on, a grant for a core, a race event around a single get or
per chunk) cannot quietly come back.  Same spirit as
``tests/test_config_surface.py``: a ratchet, not a behaviour test; what
each primitive *does* is pinned in ``tests/simkernel``.
"""

import pytest

from repro.netsim import CpuModel, Endpoint
from repro.netsim.proc_utils import TIMED_OUT, with_timeout
from repro.simkernel import Environment, Store
from repro.simkernel.events import Interrupt
from tests.proxygen.conftest import OriginRelay

#: What a process nobody waits on schedules for itself: its Initialize.
#: (Its successful finish is not scheduled; a finish somebody waits on,
#: or a failure, is one more — pinned in ``tests/simkernel``.)
PROCESS = 1


def test_round_trip_schedules_four_events(world):
    """One request/response on an established connection, both ends
    receiving under a 30 s deadline, one ``cpu.execute`` at the server
    and one think ``timeout`` at the client:

    client send (delivery timeout, which is also the server's wake-up)
    + server execute (its timeout; the core is free) + server send
    (likewise the client's wake-up) + the think timeout = 4.  Each
    end's first receive armed its process's timer; no deadline fires
    in this run, so no later receive pushes one (a deadline per receive
    made it 6).
    """
    env = world.env
    server_host, client_host = world.host("server"), world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint = Endpoint(server_host.ip, 443)
    _, listener = server_host.kernel.tcp_listen(server_proc, endpoint)
    marks = []

    def server():
        conn = yield listener.accept(server_proc)
        while True:
            request = yield conn.recv(30.0)
            assert request.payload == "ping"
            yield from server_host.cpu.execute(1.0)
            conn.send("pong", size=50)

    def client():
        conn = yield client_host.kernel.tcp_connect(client_proc, endpoint)
        for _ in range(12):
            marks.append(env._eid)
            conn.send("ping", size=50)
            reply = yield conn.recv(30.0)
            assert reply.payload == "pong"
            yield env.timeout(0.5)
        marks.append(env._eid)

    server_proc.run(server())
    client_proc.run(client())
    env.run(until=20)
    trips = [after - before for before, after in zip(marks, marks[1:])]
    # The first trip overlaps connection set-up and arms the client's
    # timer; the other eleven are steady state.
    assert trips[1:] == [4] * 11


def _datagram_prices(world):
    """Two datagrams to a socket whose reader is parked, then two to a
    socket nobody reads.  Returns what each scheduled, how many the
    reader had seen once the delivery timeout's callbacks returned,
    what it saw when, and the unread socket."""
    env = world.env
    server_host, client_host = world.host("server"), world.host("client")
    server_proc = server_host.spawn("srv")
    read_at, unread_at = (Endpoint(server_host.ip, port)
                          for port in (443, 444))
    _, read = server_host.kernel.udp_bind(server_proc, read_at)
    _, unread = server_host.kernel.udp_bind(server_proc, unread_at)
    _, sock = client_host.kernel.udp_bind_ephemeral(client_host.spawn("cli"))
    prices, seen_in_step, seen = [], [], []

    def reader():
        while True:
            seen.append(((yield read.recv()).payload, env.now))

    server_proc.run(reader())
    env.run(until=1.0)  # the reader is parked on its recv
    for payload, dst in enumerate((read_at, read_at, unread_at, unread_at)):
        before = env._eid
        sock.sendto(payload, dst)
        env.step()  # the delivery timeout
        seen_in_step.append(len(seen))
        env.run()
        prices.append(env._eid - before)
    return prices, seen_in_step, seen, unread


def test_datagram_schedules_only_its_delivery_timeout(world):
    prices, seen_in_step, seen, unread = _datagram_prices(world)
    assert prices == [1, 1, 1, 1]
    # The reader ran inside the delivery timeout's callback.
    assert seen_in_step == [1, 2, 2, 2]
    assert [payload for payload, _ in seen] == [0, 1]
    assert [datagram.payload for datagram in unread.inbox.items] == [2, 3]


def test_put_schedules_only_the_get_it_wakes():
    env = Environment()
    store = Store(env)

    store.put("stored")  # nobody parked: stored, nothing scheduled
    assert env._eid == 0
    assert store.try_get() == "stored"

    getter = store.get()  # parks: nothing scheduled either
    assert env._eid == 0
    store.put("handed")  # one event: the get it wakes
    assert env._eid == 1
    env.run()
    assert getter.value == "handed"
    assert not store.items


def _at(env, delay, action):
    """Run ``action()`` from a timeout callback, i.e. in kernel context."""
    env.timeout(delay).callbacks.append(lambda _event: action())


def test_deliver_wakes_a_parked_getter_in_place():
    env = Environment()
    store = Store(env)
    log = []

    def waiter():
        log.append(("got", (yield store.get()), env.now))

    def arrive():
        before = env._eid
        store.deliver("item")
        # The waiter has already run — to completion here — and
        # nothing was scheduled: not the get, not the unwaited finish.
        log.append(("delivered", env._eid - before))

    env.process(waiter())
    _at(env, 1.0, arrive)
    env.run()
    assert log == [("got", "item", 1.0), ("delivered", 0)]
    assert env._eid == PROCESS + 1  # the waiter and the arrival timeout
    assert not store.items and not store._get_queue


def test_deliver_to_an_empty_store_stores_the_item():
    env = Environment()
    store = Store(env)
    _at(env, 1.0, lambda: store.deliver("item"))
    env.run()
    assert store.items == ["item"]
    assert env._eid == 1  # the arrival timeout alone


def test_deliver_skips_and_drops_a_cancelled_getter():
    env = Environment()
    store = Store(env)
    got = []

    def waiter():
        got.append((yield store.get()))

    withdrawn = store.get()
    env.process(waiter())
    env.run()  # the waiter parks behind the getter withdrawn next
    withdrawn.cancel()
    assert len(store._get_queue) == 2
    _at(env, 1.0, lambda: store.deliver("item"))
    env.run()
    assert got == ["item"]
    assert not withdrawn.triggered
    assert not store._get_queue and not store.items

    # Interrupted while parked: withdrawn the same way, so the item
    # that arrives later is stored, not fed to the dead waiter.
    parked = env.process(waiter())
    _at(env, 1.0, lambda: parked.interrupt("killed"))
    _at(env, 2.0, lambda: store.deliver("late"))
    env.run()
    assert got == ["item"] and store.items == ["late"]
    assert not store._get_queue


def test_deliver_from_inside_a_process_is_put():
    env = Environment()
    store = Store(env)
    log = []

    def waiter():
        log.append(("got", (yield store.get())))

    def sender():
        yield env.timeout(1.0)
        before = env._eid
        store.deliver("item")
        # Scheduled, not run: the waiter resumes after this process
        # yields, as with ``put``.
        log.append(("sent", env._eid - before))

    env.process(waiter())
    env.process(sender())
    env.run()
    assert log == [("sent", 1), ("got", "item")]


def test_deliver_runs_every_callback_of_the_getter_in_order():
    env = Environment()
    store = Store(env)
    order = []

    def waiter():
        order.append(("waiter", (yield getter)))

    getter = store.get()
    env.process(waiter())
    env.run()  # parks the waiter on the getter
    getter.callbacks.insert(0, lambda event: order.append(
        ("first", event._value)))
    getter.callbacks.append(lambda event: order.append(
        ("last", event._value)))
    _at(env, 1.0, lambda: store.deliver("item"))
    env.run()
    assert order == [("first", "item"), ("waiter", "item"), ("last", "item")]
    assert getter.processed


def test_run_until_a_get_returns_the_delivered_item():
    """``run(until=get)`` hangs its stop callback on the get, so the
    in-place dispatch raises ``StopSimulation`` from inside the
    delivery timeout's callback; it must reach the run loop as is."""
    env = Environment()
    store = Store(env)
    _at(env, 1.0, lambda: store.deliver("item"))
    env.timeout(5.0)
    assert env.run(until=store.get()) == "item"
    assert env.now == 1.0


def test_with_timeout_get_satisfied_in_place_tombstones_its_deadline():
    env = Environment()
    store = Store(env)
    got = []

    def waiter():
        got.append((yield from with_timeout(env, store.get(), 100.0)))

    env.process(waiter())
    _at(env, 1.0, lambda: store.deliver("item"))
    env.run(until=10.0)
    assert got == ["item"]
    assert env._cancelled == 1
    assert all(not entry[3].callbacks for entry in env._queue)


def _cpu_workers(env, cpu, done, *jobs):
    def worker(label, work):
        yield from cpu.execute(work)
        done.append((label, env.now))

    return [env.process(worker(label, work)) for label, work in jobs]


def _events(env):
    return env.stats()["events"]


def test_execute_on_a_free_core_schedules_one_timeout():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []
    _cpu_workers(env, cpu, done, ("a", 1.0))
    env.run()
    assert _events(env) == PROCESS + 1
    assert done == [("a", 1.0)]


def test_a_queued_execution_costs_one_event():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0, bucket_width=1.0)
    done = []
    _cpu_workers(env, cpu, done, ("a", 1.0), ("b", 1.0), ("c", 1.0))
    env.run()
    # a finds the core free (its timeout); b and c queue, and the core's
    # hand-off starts their work in place: one timeout each, no grant.
    assert _events(env) == 3 * PROCESS + 1 + 1 + 1
    # FIFO hand-off order and busy-time accounting are the queue's, as
    # they always were.
    assert done == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert cpu.total_busy_seconds == pytest.approx(3.0)
    assert cpu.utilization(0, 3) == [
        (0.0, pytest.approx(1.0)), (1.0, pytest.approx(1.0)),
        (2.0, pytest.approx(1.0))]
    assert cpu.busy == 0 and cpu.queue_length == 0


@pytest.mark.parametrize("new_speed, waiter_done", [
    (0.5, 18.0),  # a throttle starts while it waits
    (2.0, 12.0),  # a throttle clears while it waits
])
def test_queued_work_runs_at_the_speed_of_its_hand_off(new_speed,
                                                       waiter_done):
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []
    _cpu_workers(env, cpu, done, ("holder", 10.0), ("waiter", 4.0))
    _at(env, 5.0, lambda: setattr(cpu, "speed", new_speed))
    env.run()
    # The holder's duration was set when it started; the waiter's is
    # set at the hand-off, at 10, from the speed then.
    assert done == [("holder", 10.0), ("waiter", waiter_done)]
    assert cpu.total_busy_seconds == waiter_done
    assert _events(env) == 2 * PROCESS + 1 + 1 + 1  # + the speed change


def test_interrupt_mid_execute_hands_the_core_to_the_queued_waiter():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []
    holder, _ = _cpu_workers(env, cpu, done, ("holder", 10.0),
                             ("waiter", 1.0))

    def interrupter():
        yield env.timeout(2.0)
        holder.interrupt("killed")

    env.process(interrupter())
    env.run()
    assert done == [("waiter", 3.0)]
    # The killed holder's two seconds on the core are not accounted.
    assert cpu.total_busy_seconds == 1.0
    assert cpu.busy == 0 and cpu.queue_length == 0


def _holder_and_two_waiters(env, cpu, done, log):
    """A holder of the only core for 10 s, then waiters of 5 s and 1 s;
    the first notes an interrupt, then sleeps 100 s.  Returns the first
    waiter's process."""
    def first():
        try:
            yield from cpu.execute(5.0)
            done.append(("first", env.now))
        except Interrupt:
            log.append(("interrupted", env.now))
            yield env.timeout(100.0)
            log.append(("slept", env.now))

    _cpu_workers(env, cpu, done, ("holder", 10.0))
    waiter = env.process(first())
    _cpu_workers(env, cpu, done, ("second", 1.0))
    return waiter


def test_a_waiter_interrupted_before_its_hand_off_leaves_the_queue():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done, log = [], []
    first = _holder_and_two_waiters(env, cpu, done, log)
    _at(env, 4.0, lambda: first.interrupt("killed"))
    env.run()
    # The next waiter starts at the holder's end.
    assert done == [("holder", 10.0), ("second", 11.0)]
    assert log == [("interrupted", 4.0), ("slept", 104.0)]
    assert cpu.total_busy_seconds == 11.0
    assert cpu.busy == 0 and cpu.queue_length == 0


def test_a_waiter_interrupted_after_its_hand_off_passes_the_core_on():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done, log = [], []
    first = _holder_and_two_waiters(env, cpu, done, log)
    _at(env, 12.0, lambda: first.interrupt("killed"))
    env.run()
    # Its work began at 10 and ends at 15: the core passes on at 12, its
    # two seconds are not accounted, and the end of its work does not
    # wake it from the sleep it went on to.
    assert done == [("holder", 10.0), ("second", 13.0)]
    assert log == [("interrupted", 12.0), ("slept", 112.0)]
    assert cpu.total_busy_seconds == 11.0
    assert cpu.busy == 0 and cpu.queue_length == 0


@pytest.mark.parametrize("close_at, second_done, busy", [
    (4.0, 11.0, 11.0),   # queued: it leaves the queue
    (12.0, 13.0, 11.0),  # handed its core: it passes it on
])
def test_a_closed_execution_gives_up_its_place_or_its_core(
        close_at, second_done, busy):
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []
    _cpu_workers(env, cpu, done, ("holder", 10.0))
    work = cpu.execute(5.0)
    env.process(work)
    _cpu_workers(env, cpu, done, ("second", 1.0))
    _at(env, close_at, work.close)  # GeneratorExit where it waits
    env.run()
    assert done == [("holder", 10.0), ("second", second_done)]
    assert cpu.total_busy_seconds == busy
    assert cpu.busy == 0 and cpu.queue_length == 0


def test_receives_under_one_deadline_push_one_timer(monkeypatch):
    """Five receives under a deadline that never fires push one timer
    between them, build no race and leave no tombstone; a deadline that
    does fire costs its timer alone: the get it expires wakes the
    waiter in place (it cost one event more while it was scheduled)."""
    def no_race(*_args):
        raise AssertionError("a receive under a deadline built a race")

    monkeypatch.setattr(Environment, "any_of", no_race)
    env = Environment()
    store = Store(env)
    for item in range(5):
        env.timeout(1.0 + item).callbacks.append(
            lambda _event, item=item: store.put(item))
    marks, got = [], []

    def waiter():
        marks.append((env._eid, env._cancelled))
        for _ in range(5):
            got.append((yield store.get(timeout=100.0)))
        marks.append((env._eid, env._cancelled))
        got.append((yield store.get(timeout=1.0)))
        marks.append((env._eid, env._cancelled))

    env.process(waiter())
    env.run(until=10.0)
    assert got == [0, 1, 2, 3, 4, TIMED_OUT]
    (start, _), (received, none), (expired, still_none) = marks
    # One timer, and the five gets the puts woke; nothing tombstoned.
    assert (received - start, none) == (1 + 5, 0)
    # The earlier deadline strips the armed entry (t = 101), which is
    # no tombstone, and gets its own; it fires, and expires the get in
    # place.
    assert (expired - received, still_none) == (1, 0)
    assert all(not entry[3].callbacks for entry in env._queue)
    # The expired get was withdrawn: a later put is stored, not eaten.
    store.put("late")
    assert store.items == ["late"]
    # No put event, and none for the waiter's unwaited completion.
    assert env._eid == expired


def test_a_chunk_through_the_origin_relay_costs_its_deliveries(
        world, monkeypatch):
    """Edge → Origin, then Origin → app: one delivery timeout each.  The
    relay reads the Edge stream and the app socket from one inbox, so
    the first delivery wakes it in place and it builds no race (a race
    per chunk cost one ``AnyOf`` more: 3)."""
    relay = OriginRelay(world)
    env = world.env

    def no_race(*_args):
        raise AssertionError("the POST relay raced its two sources")

    monkeypatch.setattr(Environment, "any_of", no_race)
    prices = []
    for sequence in range(1, 6):
        before = env._eid
        relay.chunk(sequence)
        env.run(until=env.now + 0.1)  # clear of the proxy's own timers
        prices.append(env._eid - before)
    assert prices == [2] * 5
    assert [item.payload.sequence
            for item in relay.upstream[1:]] == [1, 2, 3, 4, 5]


def test_with_timeout_still_races_what_it_cannot_withdraw():
    """``with_timeout`` races whatever it is given against a fresh
    timeout — an already-triggered get, a plain event, a process — for
    the events a deadline may not decide (``env.within`` does that)."""
    env = Environment()
    store = Store(env)
    store.put("ready")
    results = []

    def child():
        yield env.timeout(1.0)
        return "child done"

    def waiter():
        for event, timeout in ((store.get(), 5.0),
                               (env.timeout(1.0, "tick"), 5.0),
                               (env.process(child()), 5.0),
                               (env.event(), 1.0)):
            results.append((yield from with_timeout(env, event, timeout)))

    env.process(waiter())
    env.run()
    assert results == ["ready", "tick", "child done", TIMED_OUT]
