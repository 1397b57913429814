"""Smoke checks on simulation-kernel performance.

Guards the event-loop hot path (``Environment.run``/``step``) and the
``Store`` fast path against accidental slowdowns.  The throughput floor
is deliberately loose — it catches order-of-magnitude regressions (an
accidentally quadratic scan, per-event allocation storms), not CI noise.
"""

import time

import pytest

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


#: (variant, workload) -> exact work counters of one uncontended invocation
#: at seed 0: e2e seconds, messages, wire bytes, kernel events processed,
#: sleeps that advanced the clock in place, and the events the run
#: processes when every sleep yields its Timeout, which the two must sum
#: to (each elided sleep is exactly one Timeout)
_BUDGETS = {
    ("dgsf", "face_identification"):
        (10.632098228949541, 1_791, 279_744_357, 7_033, 4_702, 11_735),
    ("dgsf", "kmeans"):
        (11.361748619862041, 92, 251_976_713, 4_416, 880, 5_296),
    ("native", "face_identification"):
        (13.265680827566495, 0, 0, 3_987, 2_316, 6_303),
}


@pytest.mark.parametrize(
    "variant,workload", list(_BUDGETS), ids=[f"{v}-{w}" for v, w in _BUDGETS]
)
def test_invocation_event_budget(variant, workload):
    """Exact work counters of a standard invocation: a pipelining,
    caching or delivery change that adds kernel events, messages or wire
    bytes shows up here (each message costs one delivery event), and a
    change to when sleep() elides moves events and elided sleeps by the
    same amount in opposite directions."""
    e2e, messages, wire_bytes, events, elided, events_before = (
        _BUDGETS[variant, workload])
    dep = build_deployment(variant, DgsfConfig(num_gpus=1, seed=0))
    connections = []
    connect = dep.network.connect

    def connect_counted(a, b):
        conn = connect(a, b)
        connections.append(conn)
        return conn

    dep.network.connect = connect_counted
    dep.setup()
    register_workloads(dep.platform, names=[workload])
    inv, proc = dep.platform.invoke(workload)
    dep.env.run(until=proc)
    assert inv.status == "completed"
    assert inv.e2e_s == e2e
    endpoints = [ep for conn in connections for ep in conn.endpoints]
    assert sum(ep.messages_sent for ep in endpoints) == messages
    assert sum(ep.bytes_out for ep in endpoints) == wire_bytes
    stats = dep.env.stats()
    assert (stats["events_processed"], stats["sleeps_elided"]) == (events, elided)
    assert events + elided == events_before
