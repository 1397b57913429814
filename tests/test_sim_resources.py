"""Unit tests for simulation resources (Resource, Container, Store)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, PriorityResource, Container, Store


def test_resource_serializes_access():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, name, hold):
        with res.request() as req:
            yield req
            log.append((name, "in", env.now))
            yield env.timeout(hold)
            log.append((name, "out", env.now))

    env.process(user(env, "a", 2))
    env.process(user(env, "b", 3))
    env.run()
    assert log == [("a", "in", 0), ("a", "out", 2), ("b", "in", 2), ("b", "out", 5)]


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(env, name):
        with res.request() as req:
            yield req
            starts.append((name, env.now))
            yield env.timeout(5)

    for name in "abc":
        env.process(user(env, name))
    env.run()
    assert starts == [("a", 0), ("b", 0), ("c", 5)]


def test_resource_count_tracks_users():
    env = Environment()
    res = Resource(env, capacity=3)

    def user(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user(env))
    env.process(user(env))
    env.run(until=0.5)
    assert res.count == 2
    env.run()
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_without_holding_is_error():
    env = Environment()
    res = Resource(env)

    def holder(env):
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    p = env.process(holder(env))
    env.run(until=p)


def test_request_cancel_via_context_manager():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        with res.request() as req:
            result = yield env.any_of([req, env.timeout(1)])
            got.append(req.triggered)
        # leaving the with-block cancels the ungranted request

    def third(env):
        yield env.timeout(2)
        with res.request() as req:
            yield req
            got.append(("third", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(third(env))
    env.run()
    assert got[0] is False
    assert got[1] == ("third", 10)


def test_priority_resource_orders_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(5)

    def waiter(env, name, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    env.process(holder(env))
    env.process(waiter(env, "low", 10, 1))
    env.process(waiter(env, "high", 1, 2))
    env.run()
    assert order == ["high", "low"]


def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    log = []

    def producer(env):
        yield env.timeout(3)
        yield tank.put(50)

    def consumer(env):
        yield tank.get(30)
        log.append(env.now)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [3]
    assert tank.level == 20


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    log = []

    def producer(env):
        yield tank.put(5)
        log.append(("put", env.now))

    def consumer(env):
        yield env.timeout(2)
        yield tank.get(6)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("put", 2)]
    assert tank.level == 9


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.get(-1)
    with pytest.raises(ValueError):
        tank.put(-1)


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            yield store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(0, 1), (1, 2), (2, 3)]


def test_store_filtered_get():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        yield store.put(("reply", 7))
        yield store.put(("reply", 3))

    def consumer(env):
        item = yield store.get(lambda m: m[1] == 3)
        got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [("reply", 3)]
    assert store.items == [("reply", 7)]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        yield store.put("b")
        log.append(("b-in", env.now))

    def consumer(env):
        yield env.timeout(4)
        item = yield store.get()
        log.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("b-in", 4) in log


def test_store_put_nowait_wakes_the_first_matching_getter_without_an_event():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, name, want):
        item = yield store.get(lambda m: m[0] == want)
        got.append((name, item, env.now))

    for name, want in (("odd", 1), ("even", 0), ("even-2", 0)):
        env.process(consumer(env, name, want))
    env.run()
    before = env.events_processed
    store.put_nowait((0, "x"))
    store.put_nowait((2, "y"))  # matches nobody: stays queued
    env.run()
    assert got == [("even", (0, "x"), 0)]
    assert store.items == [(2, "y")]
    # the get event and the consumer's exit; no put event
    assert env.events_processed - before == 2


def test_store_put_nowait_refuses_a_full_store():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(SimulationError):
        store.put_nowait("b")
    assert store.items == ["a"]
