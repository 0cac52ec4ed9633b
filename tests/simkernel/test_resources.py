"""Tests for Store."""

from repro.simkernel import Environment, Store


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            store.put(i)
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
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(5.0, "late")]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put("x")
    env.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_get_cancel():
    env = Environment()
    store = Store(env)

    get_event = store.get()
    get_event.cancel()
    store.put("never")
    env.run()
    # The cancelled getter must not consume the item.
    assert store.items == ["never"]


def test_store_put_serves_parked_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(label):
        item = yield store.get()
        got.append((label, item))

    for label in "abc":
        env.process(consumer(label))

    def producer():
        yield env.timeout(1)
        for item in (1, 2):
            store.put(item)

    env.process(producer())
    env.run()
    # Oldest getter first; the third stays parked, nothing is stored.
    assert got == [("a", 1), ("b", 2)]
    assert len(store._get_queue) == 1 and not store.items


def test_store_put_skips_cancelled_getter_at_head():
    env = Environment()
    store = Store(env)

    withdrawn, live = store.get(), store.get()
    withdrawn.cancel()
    store.put("first")
    store.put("second")
    env.run()
    assert not withdrawn.triggered
    assert live.value == "first"
    # The withdrawn getter was dropped on the way, not left to be
    # skipped again; with nobody parked the second item is stored.
    assert store._get_queue == [] and store.items == ["second"]


def test_store_polled_without_puts_does_not_collect_getters():
    env = Environment()
    store = Store(env)
    for _ in range(5):
        store.get().cancel()
    assert len(store._get_queue) == 1

