"""Tests for Store / Resource."""

import pytest

from repro.simkernel import Environment, Resource, Store


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [item for _, item in got] == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(5)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(5.0, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(env.now)
        yield store.put("b")  # blocks until consumer takes "a"
        times.append(env.now)

    def consumer():
        yield env.timeout(10)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [0.0, 10.0]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put("x")
    env.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_get_cancel():
    env = Environment()
    store = Store(env)

    get_event = store.get()
    get_event.cancel()
    store.put("never")
    env.run()
    # The cancelled getter must not consume the item.
    assert store.items == ["never"]


def test_resource_serializes_users():
    env = Environment()
    cpu = Resource(env, capacity=1)
    spans = []

    def worker(label):
        with cpu.request() as req:
            yield req
            start = env.now
            yield env.timeout(10)
            spans.append((label, start, env.now))

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]


def test_resource_capacity_two_runs_parallel():
    env = Environment()
    cpu = Resource(env, capacity=2)
    finished = []

    def worker(label):
        with cpu.request() as req:
            yield req
            yield env.timeout(10)
            finished.append((label, env.now))

    for label in "abc":
        env.process(worker(label))
    env.run()
    assert finished == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_resource_release_pending_request():
    env = Environment()
    cpu = Resource(env, capacity=1)

    def holder():
        with cpu.request() as req:
            yield req
            yield env.timeout(100)

    def impatient():
        request = cpu.request()
        yield env.timeout(1)
        request.release()  # gives up while still queued

    env.process(holder())
    env.process(impatient())
    env.run(until=5)
    assert cpu.queue_length == 0
    assert cpu.count == 1


def test_resource_counts():
    env = Environment()
    cpu = Resource(env, capacity=1)

    def holder():
        with cpu.request() as req:
            yield req
            assert cpu.count == 1
            yield env.timeout(1)

    env.process(holder())
    env.run()
    assert cpu.count == 0
