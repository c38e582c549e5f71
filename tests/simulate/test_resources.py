"""Tests for Resource / Store / Container."""

import pytest

from repro.simulate import Container, Resource, Simulator, Store


# ---------------------------------------------------------------- Resource
def test_resource_capacity_enforced():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def user(sim, res, name, hold):
        with res.request() as req:
            yield req
            log.append(("start", name, sim.now))
            yield sim.timeout(hold)
        log.append(("end", name, sim.now))

    for name in ("a", "b", "c"):
        sim.spawn(user(sim, res, name, 10))
    sim.run()
    starts = {name: t for op, name, t in log if op == "start"}
    assert starts == {"a": 0, "b": 0, "c": 10}


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, res, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield sim.timeout(1)

    for name in "abcd":
        sim.spawn(user(sim, res, name))
    sim.run()
    assert order == list("abcd")


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        with res.request() as req:
            yield req
            assert res.count == 1
            yield sim.timeout(5)

    def waiter(sim, res):
        yield sim.timeout(1)
        req = res.request()
        assert res.queue_len == 1
        yield req
        res.release(req)

    sim.spawn(holder(sim, res))
    sim.spawn(waiter(sim, res))
    sim.run()
    assert res.count == 0
    assert res.queue_len == 0


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_cancel_waiting_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []

    def holder(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(10)

    def fickle(sim):
        yield sim.timeout(1)
        req = res.request()
        yield sim.timeout(1)
        req.cancel()  # give up before grant

    def patient(sim):
        yield sim.timeout(2)
        with res.request() as req:
            yield req
            granted.append(sim.now)

    sim.spawn(holder(sim))
    sim.spawn(fickle(sim))
    sim.spawn(patient(sim))
    sim.run()
    assert granted == [10]


# ---------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc(sim):
        yield store.put("item")
        value = yield store.get()
        return value

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == "item"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        got.append(((yield store.get()), sim.now))

    def producer(sim):
        yield sim.timeout(3)
        yield store.put("late")

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [("late", 3)]


def test_store_fifo_item_order():
    sim = Simulator()
    store = Store(sim)

    def proc(sim):
        for i in range(4):
            yield store.put(i)
        out = []
        for _ in range(4):
            out.append((yield store.get()))
        return out

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == [0, 1, 2, 3]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer(sim):
        yield store.put("a")
        times.append(("a", sim.now))
        yield store.put("b")  # blocks until "a" is consumed
        times.append(("b", sim.now))

    def consumer(sim):
        yield sim.timeout(5)
        yield store.get()

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert times == [("a", 0), ("b", 5)]


def test_store_filtered_get():
    sim = Simulator()
    store = Store(sim)

    def proc(sim):
        yield store.put({"tag": 1, "body": "x"})
        yield store.put({"tag": 2, "body": "y"})
        msg = yield store.get(filter=lambda m: m["tag"] == 2)
        return (msg["body"], len(store))

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == ("y", 1)


def test_store_filtered_get_waits_for_match():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        msg = yield store.get(filter=lambda m: m == "wanted")
        got.append((msg, sim.now))

    def producer(sim):
        yield store.put("noise")
        yield sim.timeout(2)
        yield store.put("wanted")

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [("wanted", 2)]
    assert store.items == ["noise"]


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, name):
        item = yield store.get()
        got.append((name, item))

    def producer(sim):
        yield sim.timeout(1)
        yield store.put("first")
        yield store.put("second")

    sim.spawn(consumer(sim, "c1"))
    sim.spawn(consumer(sim, "c2"))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [("c1", "first"), ("c2", "second")]


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


# ---------------------------------------------------------------- Container
def test_container_levels():
    sim = Simulator()
    tank = Container(sim, capacity=100, init=50)

    def proc(sim):
        yield tank.get(30)
        assert tank.level == 20
        yield tank.put(60)
        assert tank.level == 80
        yield sim.timeout(0)

    sim.spawn(proc(sim))
    sim.run()


def test_container_get_blocks_until_available():
    sim = Simulator()
    tank = Container(sim, capacity=100, init=0)
    times = []

    def consumer(sim):
        yield tank.get(10)
        times.append(sim.now)

    def producer(sim):
        yield sim.timeout(4)
        yield tank.put(10)

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert times == [4]


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    tank = Container(sim, capacity=10, init=10)
    times = []

    def producer(sim):
        yield tank.put(5)
        times.append(sim.now)

    def consumer(sim):
        yield sim.timeout(7)
        yield tank.get(8)

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert times == [7]


def test_container_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=0)
    with pytest.raises(ValueError):
        Container(sim, capacity=10, init=11)
    tank = Container(sim, capacity=10)
    with pytest.raises(ValueError):
        tank.put(-1)
    with pytest.raises(ValueError):
        tank.get(-1)
