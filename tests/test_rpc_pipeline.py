"""Pipelined RPC: multiple in-flight requests on one connection.

Covers :meth:`RpcClient.call_async` / :class:`PendingReply` (the channel
underneath the guest's async forwarding) and pins the wire accounting of
one-way batches.
"""

import pytest

from repro.sim import Environment
from repro.simnet import (
    Network,
    NetworkProfile,
    RpcClient,
    RpcError,
    RpcServer,
    RpcTimeout,
    payload_size,
    MESSAGE_HEADER_BYTES,
)


def make_pair(latency=1e-3, bandwidth=10e9):
    env = Environment()
    net = Network(env, default_profile=NetworkProfile(latency_s=latency))
    a = net.add_host("fn", bandwidth_bps=bandwidth)
    b = net.add_host("gpu", bandwidth_bps=bandwidth)
    return env, net.connect(a, b)


def make_rpc(handler, latency=1e-3):
    env, conn = make_pair(latency=latency)
    client = RpcClient(conn.a)
    server = RpcServer(conn.b, handler)
    server.start()
    return env, conn, client, server


# --- pipelining --------------------------------------------------------------

def test_multiple_in_flight_replies_in_request_order():
    henv = {}

    def handler(req):
        yield henv["env"].timeout(1.0)
        return req.args[0]

    env, _, client, _ = make_rpc(handler, latency=0.5)
    henv["env"] = env
    order = []

    def caller(env):
        pendings = [client.call_async("work", i) for i in range(3)]
        assert client.in_flight == 3
        assert client.max_in_flight == 3
        for p in pendings:
            value = yield from p.wait()
            order.append((value, env.now))
        return env.now

    p = env.process(caller(env))
    env.run(until=p)
    # FIFO link + sequential server dispatch: replies in request order.
    assert [v for v, _ in order] == [0, 1, 2]
    # Pipelined: requests all arrive at t=0.5, handlers run back-to-back
    # (done ~1.5/2.5/3.5, replies +0.5).  Sequentially this would be ~6 s.
    assert p.value == pytest.approx(4.0, abs=0.1)
    assert client.in_flight == 0
    assert client.replies_harvested == 3


def test_result_is_nonblocking_and_requires_arrival():
    def handler(req):
        if False:
            yield
        return req.args[0] * 2

    env, _, client, _ = make_rpc(handler)

    def caller(env):
        pending = client.call_async("double", 21)
        with pytest.raises(RpcError):
            pending.result()  # not arrived yet
        yield env.timeout(1.0)  # plenty for the round trip
        assert pending.arrived
        return pending.result()

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == 42
    assert client.in_flight == 0


def test_wait_timeout_composes_and_late_reply_stays_deliverable():
    henv = {}

    def handler(req):
        yield henv["env"].timeout(3.0)
        return req.method.upper()

    env, _, client, _ = make_rpc(handler)
    henv["env"] = env

    def caller(env):
        pending = client.call_async("slow")
        with pytest.raises(RpcTimeout):
            yield from pending.wait(timeout_s=1.0)
        assert client.in_flight == 0  # timed-out handle is done
        # The abandoned receive was withdrawn; a fresh call still matches
        # its own reply even with the stale reply in the inbox.
        result = yield from client.call("retry")
        return result

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == "RETRY"


def test_abandon_releases_in_flight_without_consuming():
    def handler(req):
        if False:
            yield
        return "ok"

    env, _, client, _ = make_rpc(handler)

    def caller(env):
        pending = client.call_async("drop-me")
        pending.abandon()
        assert client.in_flight == 0
        pending.abandon()  # idempotent
        assert client.in_flight == 0
        # The connection still works for subsequent calls.
        return (yield from client.call("after"))

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == "ok"


def test_async_error_reply_raises_on_harvest():
    def handler(req):
        if False:
            yield
        raise ValueError("injected remote failure")

    env, _, client, _ = make_rpc(handler)

    def caller(env):
        pending = client.call_async("boom")
        yield env.timeout(1.0)
        assert pending.arrived
        with pytest.raises(RpcError, match="injected remote failure"):
            pending.result()
        return client.in_flight

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == 0


def test_sync_call_still_works_through_async_path():
    """call() is now built on call_async(); the sync contract is unchanged."""

    def handler(req):
        if False:
            yield
        return ("echo",) + req.args

    env, _, client, server = make_rpc(handler)

    def caller(env):
        return (yield from client.call("ping", 1, 2))

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == ("echo", 1, 2)
    assert client.max_in_flight == 1
    assert server.requests_handled == 1


# --- one-way batch wire accounting -------------------------------------------

def test_oneway_batch_bytes_pinned():
    """Regression: a one-way batch is one message whose bulk payload bytes
    are charged exactly once (neither dropped nor double-counted)."""

    def handler(req):
        if False:
            yield
        return None

    env, conn, client, _ = make_rpc(handler)
    calls = [("launch", (1, 2), 1000), ("launch", (3, 4), 500), ("sync", (), 0)]

    def caller(env):
        client.send_batch(calls)
        yield env.timeout(1.0)

    p = env.process(caller(env))
    env.run(until=p)

    # One message carrying three calls.
    assert client.messages_sent == 1
    assert client.calls_sent == 3
    # Exact wire size: header + batch envelope + per-sub request framing
    # + the bulk payloads (1000 + 500), charged once.
    subs = sum(
        16 + payload_size(m) + payload_size(tuple(a)) for (m, a, _x) in calls
    )
    envelope = 16 + payload_size("__batch__") + payload_size(())
    extra = sum(x for (_m, _a, x) in calls)
    assert conn.a.bytes_out == MESSAGE_HEADER_BYTES + envelope + subs + extra


def test_oneway_batch_cheaper_than_individual_calls():
    def handler(req):
        if False:
            yield
        return None

    calls = [("op", (i,), 0) for i in range(8)]

    env1, conn1, client1, _ = make_rpc(handler)

    def batched(env):
        client1.send_batch(calls)
        yield env.timeout(1.0)

    p = env1.process(batched(env1))
    env1.run(until=p)

    env2, conn2, client2, _ = make_rpc(handler)

    def individual(env):
        for (m, a, x) in calls:
            yield from client2.call(m, *a, extra_bytes=x)

    p = env2.process(individual(env2))
    env2.run(until=p)

    # Same calls, one header instead of eight.
    assert client1.messages_sent == 1
    assert client2.messages_sent == 8
    saved = conn2.a.bytes_out - conn1.a.bytes_out
    assert saved >= 7 * MESSAGE_HEADER_BYTES - 8 * 16  # batching amortizes framing
    assert conn1.a.bytes_out < conn2.a.bytes_out
