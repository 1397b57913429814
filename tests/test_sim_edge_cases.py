"""Edge cases across the sim kernel, resources, and network layers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, AllOf, AnyOf
from repro.sim.core import Event
from repro.simnet import Network, NetworkProfile, RpcClient, RpcServer


def test_environment_stats_counters():
    env = Environment()

    def proc(env):
        for _ in range(3):
            yield env.timeout(1)

    env.process(proc(env))
    env.run()
    stats = env.stats()
    assert stats["now"] == 3
    assert stats["events_processed"] >= 4  # init + 3 timeouts
    assert stats["processes_created"] == 1
    assert stats["events_pending"] == 0


def test_condition_fails_when_member_fails():
    env = Environment()
    good = env.timeout(1, value="ok")
    bad = env.event()

    def failer(env):
        yield env.timeout(0.5)
        bad.fail(RuntimeError("member failed"))

    def waiter(env):
        try:
            yield env.all_of([good, bad])
        except RuntimeError as exc:
            return str(exc)

    env.process(failer(env))
    w = env.process(waiter(env))
    env.run()
    assert w.value == "member failed"


def test_condition_rejects_cross_environment_events():
    env1, env2 = Environment(), Environment()
    with pytest.raises(SimulationError):
        AllOf(env1, [env1.timeout(1), env2.timeout(1)])


def test_anyof_with_already_processed_event():
    env = Environment()

    def proc(env):
        early = env.timeout(1, value="early")
        yield env.timeout(2)
        result = yield env.any_of([early, env.timeout(100)])
        return list(result.values())

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == ["early"]


def test_event_trigger_copies_outcome():
    env = Environment()
    src = env.event()
    dst = env.event()
    src.succeed("payload")

    def proc(env):
        yield src
        dst.trigger(src)
        value = yield dst
        return value

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == "payload"


def test_run_until_already_failed_event():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("pre-failed"))
    ev.defuse()
    env.run()  # drain
    with pytest.raises(ValueError, match="pre-failed"):
        env.run(until=ev)


def test_nested_process_failure_propagates_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            return "handled"

    p = env.process(parent(env))
    env.run(until=p)
    assert p.value == "handled"


# --- network edges -------------------------------------------------------------------

def test_rpc_oneway_handler_error_is_swallowed():
    """A failing one-way batch sends no reply and must not kill the server
    loop."""
    env = Environment()
    net = Network(env)
    conn = net.connect(net.add_host("a"), net.add_host("b"))

    def handler(req):
        if False:
            yield
        if req.method == "bad":
            raise RuntimeError("boom")
        return "fine"

    client = RpcClient(conn.a)
    server = RpcServer(conn.b, handler)
    server.start()

    def caller(env):
        client.send_batch([("bad", (), 0)])
        result = yield from client.call("good")
        return result

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == "fine"
    assert server.requests_handled == 2
    # only the sync call was answered
    assert conn.b.messages_sent == 1


def test_zero_byte_send_costs_only_header_and_latency():
    env = Environment()
    net = Network(env, default_profile=NetworkProfile(latency_s=0.01))
    conn = net.connect(net.add_host("a"), net.add_host("b"))
    got = []

    def receiver(env):
        yield conn.b.recv()
        got.append(env.now)

    conn.a.send(None)
    env.process(receiver(env))
    env.run()
    assert got[0] == pytest.approx(0.01, abs=0.001)


def test_many_interleaved_connections_are_independent():
    env = Environment()
    net = Network(env)
    a, b = net.add_host("a"), net.add_host("b")
    conns = [net.connect(a, b) for _ in range(4)]
    results = []

    def echo(conn, tag):
        msg = yield conn.b.recv()
        conn.b.send(f"{msg}-{tag}")

    def ask(conn, tag):
        conn.a.send(tag)
        reply = yield conn.a.recv()
        results.append(reply)

    for i, conn in enumerate(conns):
        env.process(echo(conn, i))
        env.process(ask(conn, f"m{i}"))
    env.run()
    assert sorted(results) == [f"m{i}-{i}" for i in range(4)]


def test_nic_accounting_counts_bytes():
    env = Environment()
    net = Network(env)
    a, b = net.add_host("a"), net.add_host("b")
    conn = net.connect(a, b)
    conn.a.send("x", extra_bytes=1000)
    assert a.nic.bytes_sent >= 1000
    assert conn.a.messages_sent == 1
    assert conn.a.bytes_out >= 1000
