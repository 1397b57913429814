"""Smoke checks on simulation-kernel performance.

Guards the event-loop hot path (``Environment.run``/``step``) and the
``Store`` fast path against accidental slowdowns.  The throughput floor
is deliberately loose — it catches order-of-magnitude regressions (an
accidentally quadratic scan, per-event allocation storms), not CI noise.
"""

import time

from repro.core.config import DgsfConfig
from repro.experiments.runner import build_deployment
from repro.sim import Environment
from repro.workloads import register_workloads


def test_event_loop_throughput_floor():
    env = Environment()

    def ticker():
        for _ in range(30_000):
            yield env.timeout(0.001)

    env.process(ticker())
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    assert env.events_processed >= 30_000
    rate = env.events_processed / max(elapsed, 1e-9)
    # Pure-Python heap loop comfortably clears hundreds of k events/s;
    # fail only on an order-of-magnitude collapse.
    assert rate > 50_000, f"event loop slowed to {rate:.0f} events/s"


def test_run_until_deadline_uses_fast_path():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1.0)

    env.process(ticker())
    env.run(until=500.5)
    assert env.now == 500.5
    assert env.events_processed >= 500


def test_invocation_event_budget():
    """Exact work counters of a standard invocation: a pipelining,
    caching or delivery change that adds kernel events, messages or wire
    bytes shows up here (each message costs one delivery event)."""
    dep = build_deployment("dgsf", DgsfConfig(num_gpus=1, seed=0))
    connections = []
    connect = dep.network.connect

    def connect_counted(a, b):
        conn = connect(a, b)
        connections.append(conn)
        return conn

    dep.network.connect = connect_counted
    dep.setup()
    register_workloads(dep.platform, names=["face_identification"])
    inv, proc = dep.platform.invoke("face_identification")
    dep.env.run(until=proc)
    assert inv.status == "completed"
    assert inv.e2e_s == 10.632098228949541
    endpoints = [ep for conn in connections for ep in conn.endpoints]
    assert sum(ep.messages_sent for ep in endpoints) == 1_791
    assert sum(ep.bytes_out for ep in endpoints) == 279_744_357
    assert dep.env.events_processed == 11_735
