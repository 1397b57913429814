"""Regression tests for the kernel hot-path bug sweep + event wheel.

Covers the three bugfix satellites (each of these fails on the
pre-refactor code), the kernel edge cases called out in the issue, and
wheel-specific behaviour: order parity with the frozen legacy heap
kernel, overflow migration, cursor rebase, and Timeout pooling.
"""

import random
import time

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource
from repro.sim.core import Interrupt, Timeout
from repro.sim.legacy import LegacyHeapEnvironment
from repro.faas.workload_gen import schedule_arrivals, uniform_arrivals
from repro.obs.metrics import Histogram, MetricsRegistry, percentile


# --- bugfix 1: Event.cancel() on a pending event must not poison it ---------

def test_cancel_pending_event_is_noop_and_later_succeed_still_fires():
    """Old code set _cancelled on a pending event; a later succeed() then
    scheduled an entry that step() dropped silently, hanging the waiter."""
    env = Environment()
    gate = env.event()
    got = []

    def waiter(env):
        value = yield gate
        got.append(value)

    def toggler(env):
        yield env.timeout(1)
        gate.cancel()  # pending: must be a no-op
        gate.succeed("delivered")

    env.process(waiter(env))
    env.process(toggler(env))
    env.run()
    assert got == ["delivered"]


def test_cancel_scheduled_timeout_still_tombstones():
    env = Environment()
    t5 = env.timeout(5)
    env.timeout(10)
    t5.cancel()
    env.run()
    assert env.now == 10
    assert env.stats()["events_processed"] == 1


def test_cancel_processed_event_is_noop():
    env = Environment()
    t = env.timeout(1)
    env.run()
    t.cancel()  # already processed: nothing to tombstone
    assert not t._cancelled


# --- bugfix 2: Resource._cancel tombstones instead of O(n) rebuild ----------

def test_resource_cancel_preserves_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    waiters = [res.request() for _ in range(4)]
    granted = []
    for i, req in enumerate(waiters):
        req.callbacks.append(lambda _ev, i=i: granted.append(i))
    waiters[1].cancel()
    waiters[2].cancel()
    assert res.queued == 2
    res.release(held)
    env.run()
    res.release(waiters[0])
    env.run()
    assert granted == [0, 3]
    assert res.queued == 0


def test_resource_request_granted_when_queue_holds_only_tombstones():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    waiting = res.request()
    waiting.cancel()
    res.release(held)
    # Queue may still physically hold the tombstone; a new request must
    # see an effectively empty queue and be granted immediately.
    fresh = res.request()
    assert fresh.triggered
    assert res.queued == 0


def test_resource_double_cancel_does_not_corrupt_tombstone_count():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    a, b = res.request(), res.request()
    a.cancel()
    a.cancel()  # second cancel must be a no-op
    assert res.queued == 1
    res.release(held)
    env.run()
    assert b.triggered
    assert res.queued == 0


def test_resource_mass_cancellation_is_not_quadratic():
    """Old code rebuilt the whole heap per cancel: O(n) each, quadratic in
    total — ~10k waiters took multiple seconds.  Tombstoning is amortized
    O(1) per cancel."""
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    waiters = [res.request() for _ in range(10_000)]
    start = time.perf_counter()
    for req in waiters:
        req.cancel()
    elapsed = time.perf_counter() - start
    assert elapsed < 2.5, f"mass cancellation took {elapsed:.2f}s"
    assert res.queued == 0
    # Compaction keeps the physical queue bounded too.
    assert len(res.queue) < 10_000
    res.release(held)
    fresh = res.request()
    assert fresh.triggered


# --- bugfix 3: Histogram sorted-snapshot cache + bounded memory -------------

def test_histogram_caches_sorted_snapshot_between_observes():
    h = Histogram("x", {})
    for v in [5.0, 1.0, 3.0]:
        h.observe(v)
    assert h._sorted is None  # lazily built
    assert h.p50 == 3.0
    first = h._sorted
    assert h.p95 == h.percentile(95)
    assert h._sorted is first  # p95/p99 reuse the p50 sort
    h.observe(2.0)
    assert h._sorted is None  # invalidated by observe


def test_histogram_memory_is_bounded_and_truncation_reported():
    h = Histogram("lat", {})
    n = 70_000
    rng = random.Random(1)
    values = [rng.random() for _ in range(n)]
    for v in values:
        h.observe(v)
    assert len(h.observations) < 65_536  # old code: == 70_000
    assert h.count == n  # exact despite truncation
    assert h.total == pytest.approx(sum(values), rel=1e-12)
    assert h.truncated
    assert h.dropped == n - len(h.observations)
    # The retained systematic sample still estimates percentiles well.
    assert h.p50 == pytest.approx(0.5, abs=0.02)
    assert h.p99 == pytest.approx(0.99, abs=0.02)


def test_histogram_exact_below_cap_and_as_dict_reports_truncation():
    reg = MetricsRegistry()
    small = reg.histogram("small")
    for v in [1.0, 2.0, 3.0]:
        small.observe(v)
    assert not small.truncated and small.dropped == 0
    big = reg.histogram("big")
    for i in range(70_000):
        big.observe(float(i))
    snap = reg.as_dict()
    assert "sample_dropped" not in snap["small"]
    assert snap["big"]["sample_dropped"] == big.dropped > 0
    assert snap["big"]["count"] == 70_000
    assert snap["small"]["mean"] == 2.0


def test_histogram_truncation_is_deterministic():
    def build():
        h = Histogram("d", {})
        rng = random.Random(9)
        for _ in range(200_000):
            h.observe(rng.random())
        return h
    a, b = build(), build()
    assert a.observations == b.observations
    assert a.p95 == b.p95 and a.count == b.count and a.total == b.total


def test_percentile_helper_signature_unchanged():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


# --- kernel edge cases (issue checklist) ------------------------------------

def test_run_until_event_that_fails_during_run():
    env = Environment()
    doomed = env.event()

    def failer(env):
        yield env.timeout(2)
        doomed.fail(RuntimeError("mid-run failure"))

    env.process(failer(env))
    with pytest.raises(RuntimeError, match="mid-run failure"):
        env.run(until=doomed)
    assert env.now == 2


@pytest.mark.parametrize("env_cls", [Environment, LegacyHeapEnvironment])
def test_run_resumes_after_unjoined_process_fails(env_cls):
    """A failure nobody joined aborts run(); the next run() must carry on
    from the following event instead of re-reading the popped slot."""
    env = env_cls()

    def crasher(env):
        yield env.timeout(1)
        raise ValueError("unjoined")

    def survivor(env):
        yield env.timeout(2)
        return "survived"

    env.process(crasher(env))
    other = env.process(survivor(env))
    with pytest.raises(ValueError, match="unjoined"):
        env.run()
    assert env.run(until=other) == "survived"
    assert env.now == 2


def test_interrupt_process_whose_target_already_triggered():
    """Interrupt lands while the victim's awaited timeout is already in
    the queue (triggered, not yet processed): the victim must get the
    Interrupt and must NOT be resumed a second time by the timeout."""
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(1)
            log.append("timeout-resumed")
        except Interrupt as intr:
            log.append(f"interrupted:{intr.cause}")
        # survive past the interrupt; the detached timeout still fires
        yield env.timeout(5)
        log.append("done")

    def attacker(env):
        yield env.timeout(1)  # same fire time as the victim's target
        if v.is_alive:
            v.interrupt("evict")

    # Attacker first: its t=1 timeout gets the smaller eid, so it fires
    # before the victim's — the interrupt arrives while the victim's
    # target is triggered and sitting in the queue.
    env.process(attacker(env))
    v = env.process(victim(env))
    env.run()
    assert log == ["interrupted:evict", "done"]


@pytest.mark.parametrize("env_cls", [Environment, LegacyHeapEnvironment])
def test_interrupting_a_co_waiter_of_the_event_being_dispatched(env_cls):
    """Two processes wait on one event and the first, on waking,
    interrupts the second.  The second still wakes from the event (its
    resume was already taken for dispatch), then takes the Interrupt at
    its next wait, and that wait must not resume it a second time."""
    env = env_cls()
    gate = env.event()
    log = []

    def first():
        yield gate
        victim.interrupt("evict")

    def second():
        yield gate
        log.append((env.now, "woke"))
        try:
            yield env.timeout(3)
            log.append((env.now, "timeout"))
        except Interrupt as intr:
            log.append((env.now, f"interrupted:{intr.cause}"))
        yield env.timeout(10)
        log.append((env.now, "done"))
        return "finished"

    def opener():
        yield env.timeout(1)
        gate.succeed()

    env.process(first())
    victim = env.process(second())
    env.process(opener())
    env.run()
    assert log == [(1, "woke"), (1, "interrupted:evict"), (11, "done")]
    assert victim.value == "finished"


@pytest.mark.parametrize("env_cls", [Environment, LegacyHeapEnvironment])
def test_interrupt_of_a_process_that_ends_first_is_dropped(env_cls):
    """The victim wakes from the shared event and returns before the
    interrupt is delivered: the interrupt must not touch the finished
    generator or reschedule its process event."""
    env = env_cls()
    gate = env.event()

    def first():
        yield gate
        victim.interrupt("late")

    def second():
        yield gate
        return "finished"

    env.process(first())
    victim = env.process(second())
    gate.succeed()
    env.run()
    assert victim.ok and victim.value == "finished"


@pytest.mark.parametrize("env_cls", [Environment, LegacyHeapEnvironment])
def test_a_process_cannot_interrupt_itself(env_cls):
    env = env_cls()
    log = []

    def selfish():
        yield env.timeout(1)
        try:
            env.active_process.interrupt("me")
        except SimulationError as exc:
            log.append(str(exc))
        yield env.timeout(1)
        log.append((env.now, "done"))

    env.process(selfish())
    env.run()
    assert log == ["a process cannot interrupt itself", (2, "done")]


def test_condition_over_duplicate_and_already_processed_events():
    env = Environment()

    def proc(env):
        early = env.timeout(1, value="early")
        yield env.timeout(2)  # `early` is processed by now
        dup = env.timeout(3, value="dup")
        result = yield env.all_of([early, dup, dup, early])
        return list(result.values())

    p = env.process(proc(env))
    env.run(until=p)
    # The result dict is keyed by event, so duplicates collapse — but the
    # condition must neither hang nor double-count the repeated members.
    assert p.value == ["early", "dup"]


def test_cancelled_tombstones_never_advance_now():
    env = Environment()
    for delay in (1.0, 2.0, 3.0):
        env.timeout(delay).cancel()
    env.run()
    assert env.now == 0.0
    assert env.stats()["events_processed"] == 0
    assert env.stats()["events_pending"] == 0


# --- wheel-specific: parity, overflow, rebase, pooling ----------------------

def _mixed_scenario(env, seed: int):
    """A scenario exercising ties, cancellations, urgent events and both
    near- and far-future delays."""
    rng = random.Random(seed)

    def worker(env, wrng):
        for _ in range(30):
            roll = wrng.random()
            if roll < 0.1:
                # far future: lands in the overflow heap on the wheel
                yield env.timeout(60.0 + wrng.random() * 200.0)
            elif roll < 0.2:
                # exact tie with other workers
                target = float(int(env.now) + 1)
                yield env.timeout(target - env.now)
            else:
                yield env.timeout(wrng.random() * 3.0)
            if wrng.random() < 0.15:
                env.timeout(wrng.random() * 50.0).cancel()

    for _ in range(40):
        env.process(worker(env, random.Random(rng.randrange(1 << 30))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wheel_pops_in_exact_legacy_heap_order(seed):
    traces = {}
    for cls in (Environment, LegacyHeapEnvironment):
        env = cls()
        trace = []
        env._pop_trace = trace
        _mixed_scenario(env, seed)
        env.run()
        traces[cls.__name__] = trace
    assert traces["Environment"] == traces["LegacyHeapEnvironment"]


def test_overflow_migration_and_cursor_rebase():
    env = Environment()
    log = []

    def proc(env):
        # far beyond the wheel horizon (1024 buckets x 0.05s = 51.2s)
        yield env.timeout(500.0)
        log.append(env.now)
        yield env.timeout(0.01)
        log.append(env.now)
        # an idle gap of several full wheel revolutions
        yield env.timeout(10_000.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [500.0, 500.01, 10_500.01]
    assert env.stats()["events_pending"] == 0


def test_timeout_pool_recycles_fire_and_forget_timeouts():
    env = Environment()

    def proc(env):
        for _ in range(500):
            yield env.timeout(0.5)

    env.process(proc(env))
    env.run()
    assert env.stats()["timeouts_recycled"] > 400


def test_pool_never_recycles_referenced_timeouts():
    env = Environment()
    keep = env.timeout(1, value="keep")
    for _ in range(10):
        env.timeout(2)
    env.run()
    # `keep` is still alive and must retain its identity/value
    assert keep.value == "keep"
    assert type(keep) is Timeout


def test_timeout_batch_matches_sequential_timeouts():
    a, b = Environment(), Environment()
    delays = [3.0, 1.0, 2.0, 1.0]
    for d in delays:
        a.timeout(d, value=d)
    b.timeout_batch(delays, value="v")
    ta, tb = [], []
    a._pop_trace, b._pop_trace = ta, tb
    a.run()
    b.run()
    assert ta == tb  # same (time, priority, eid) sequence


def test_timeout_batch_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout_batch([1.0, -0.5])


def test_schedule_arrivals_alignment_and_past_entries():
    env = Environment()
    plan = uniform_arrivals(["w0", "w1", "w2"], gap_s=2.0)
    arrivals = schedule_arrivals(env, plan)
    assert arrivals[0] is None  # t=0 entry is due now
    assert arrivals[1] is not None and arrivals[2] is not None
    env.run()
    assert env.now == 4.0


def test_legacy_env_timeout_batch_uses_heap():
    env = LegacyHeapEnvironment()
    env.timeout_batch([1.0, 2.0])
    env.run()
    assert env.now == 2.0
    assert env.stats()["events_processed"] == 2


def test_step_outside_run_matches_run_semantics():
    env = Environment()
    env.timeout(1)
    env.timeout(2)
    env.step()
    assert env.now == 1
    env.step()
    assert env.now == 2
    with pytest.raises(SimulationError):
        env.step()
