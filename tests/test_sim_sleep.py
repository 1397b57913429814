"""``Environment.sleep``: a private wait that advances the clock in place.

``yield from env.sleep(d)`` must give exactly the timeline of
``yield env.timeout(d)``.  It elides the Timeout only when the sleeper is
the sole callback of the event being dispatched, ``now + d`` is within the
run's deadline and nothing is queued at or before ``now + d``; every other
case falls back to a real Timeout.  Each elided sleep is one event the
timeout version would have processed, and takes the eid it would have
taken, so event counts move between two counters and every later eid is
unchanged.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.core import Interrupt
from repro.sim.legacy import LegacyHeapEnvironment


def _wait(env, delay, mode):
    """The wait under test, in either spelling."""
    if mode == "sleep":
        yield from env.sleep(delay)
    else:
        yield env.timeout(delay)


def _run_both(scenario):
    """Run ``scenario(env, mode, log)`` under timeout and under sleep."""
    out = {}
    for mode in ("timeout", "sleep"):
        env = Environment()
        log = []
        scenario(env, mode, log)
        out[mode] = (env, log)
    return out


def test_sole_waiter_with_nothing_due_elides_every_wait():
    def scenario(env, mode, log):
        def ticker():
            for i in range(50):
                yield from _wait(env, 0.125 * (i % 3), mode)
                log.append((env.now, i))

        env.process(ticker())
        env.run()

    runs = _run_both(scenario)
    timeout_env, timeout_log = runs["timeout"]
    sleep_env, sleep_log = runs["sleep"]
    assert sleep_log == timeout_log
    assert sleep_env.sleeps_elided == 50
    assert (sleep_env.events_processed + sleep_env.sleeps_elided
            == timeout_env.events_processed)
    assert sleep_env._eid == timeout_env._eid
    assert sleep_env.stats()["sleeps_elided"] == 50


def test_negative_delay_raises_like_timeout():
    env = Environment()
    caught = []

    def proc():
        try:
            yield from env.sleep(-1.0)
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["negative delay -1.0"]


def test_same_time_tie_with_earlier_normal_event_falls_back():
    """Another process's wait ends at the same instant with an older eid:
    it runs first, so the sleeper must yield a real Timeout."""
    def scenario(env, mode, log):
        def early():
            yield env.timeout(1.0)
            log.append((env.now, "early"))

        def sleeper():
            yield from _wait(env, 1.0, mode)
            log.append((env.now, "sleeper"))

        env.process(early())
        env.process(sleeper())
        env.run()

    runs = _run_both(scenario)
    assert runs["sleep"][1] == runs["timeout"][1] == [(1.0, "early"), (1.0, "sleeper")]
    assert runs["sleep"][0].sleeps_elided == 0


def test_interrupt_due_at_that_time_falls_back():
    """The sleeper interrupts another process, whose interrupt is queued
    at ``now``: the victim must see the interrupt before the sleeper's
    wait ends, at the time it was sent."""
    def scenario(env, mode, log):
        def victim():
            try:
                yield env.timeout(10.0)
            except Interrupt as exc:
                log.append((env.now, "victim", exc.cause))

        victim_proc = env.process(victim())

        def sleeper():
            yield env.timeout(1.0)
            victim_proc.interrupt("wake")
            yield from _wait(env, 0.5, mode)
            log.append((env.now, "sleeper"))

        env.process(sleeper())
        env.run()

    runs = _run_both(scenario)
    assert runs["sleep"][1] == runs["timeout"][1] == [
        (1.0, "victim", "wake"), (1.5, "sleeper"),
    ]
    assert runs["sleep"][0].sleeps_elided == 0


def test_two_processes_waiting_on_one_event_fall_back():
    """The first of two waiters must not move the clock under the second,
    which still runs at the event's time."""
    def scenario(env, mode, log):
        gate = env.event()

        def waiter(name):
            yield gate
            log.append((env.now, name, "woke"))
            yield from _wait(env, 1.0, mode)
            log.append((env.now, name, "slept"))

        def opener():
            yield env.timeout(2.0)
            gate.succeed()

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.process(opener())
        env.run()

    runs = _run_both(scenario)
    assert runs["sleep"][1] == runs["timeout"][1] == [
        (2.0, "a", "woke"), (2.0, "b", "woke"),
        (3.0, "a", "slept"), (3.0, "b", "slept"),
    ]
    assert runs["sleep"][0].sleeps_elided == 0


def test_wait_past_run_until_falls_back_and_stops_at_the_cut():
    def scenario(env, mode, log):
        def sleeper():
            yield from _wait(env, 5.0, mode)
            log.append(env.now)

        env.process(sleeper())
        env.run(until=3.0)
        log.append(("cut", env.now))
        env.run()

    runs = _run_both(scenario)
    assert runs["sleep"][1] == runs["timeout"][1] == [("cut", 3.0), 5.0]
    assert runs["sleep"][0].sleeps_elided == 0


def test_step_never_elides():
    env = Environment()
    log = []

    def sleeper():
        yield from env.sleep(1.0)
        log.append(env.now)

    env.process(sleeper())
    while env.peek() != float("inf"):
        env.step()
    assert log == [1.0]
    assert env.sleeps_elided == 0


def test_pop_trace_run_matches_timeout_pops():
    """A run that records its pop order never elides, so the order digest
    of a sleep program is the digest of its timeout version."""
    def scenario(env, mode, log):
        env._pop_trace = log

        def proc(i):
            for k in range(5):
                yield from _wait(env, 0.25 * ((i + k) % 4), mode)

        for i in range(3):
            env.process(proc(i))
        env.run()

    runs = _run_both(scenario)
    assert runs["sleep"][1] == runs["timeout"][1]
    assert len(runs["timeout"][1]) > 0
    assert runs["sleep"][0].sleeps_elided == 0


# --- differential: timeout, sleep, and sleep on the legacy heap kernel ------

_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0])
_N_SHARED = 3
_OPS = st.one_of(
    st.tuples(st.just("wait"), _DELAYS),
    st.tuples(st.just("await"), st.integers(0, _N_SHARED - 1)),
    st.tuples(st.just("succeed"), st.integers(0, _N_SHARED - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
)
_PROGRAMS = st.tuples(
    st.lists(st.lists(_OPS, min_size=1, max_size=8), min_size=2, max_size=6),
    st.lists(st.sampled_from([0.25, 0.75, 1.0, 1.5, 2.5, 4.0]),
             max_size=3, unique=True).map(sorted),
)


def _execute(program, env, mode):
    """Run a generated program; return its ``(now, process, step)`` log."""
    scripts, cuts = program
    log = []
    shared = [env.event() for _ in range(_N_SHARED)]
    procs = []
    #: what each process is suspended on: None (running or done), a
    #: private wait, or a shared event
    waiting_on = [None] * len(scripts)
    interrupt_pending = [False] * len(scripts)

    def interruptible(target):
        # A shared event being dispatched has already detached its callback
        # list, so an interrupt could no longer unsubscribe its waiters
        # (the kernel would resume them twice); only interrupt a process
        # whose event has not fired yet.
        on = waiting_on[target]
        if on is None or interrupt_pending[target]:
            return False
        return on == "wait" or not on.processed

    def suspend(i, on, gen):
        waiting_on[i] = on
        try:
            yield from gen
        except Interrupt as exc:
            interrupt_pending[i] = False
            log.append((env.now, i, "interrupted", exc.cause))
        finally:
            waiting_on[i] = None

    def await_event(event):
        yield event

    def body(i, ops):
        for step, (op, arg) in enumerate(ops):
            log.append((env.now, i, step))
            if op == "wait":
                yield from suspend(i, "wait", _wait(env, arg, mode))
            elif op == "await":
                yield from suspend(i, shared[arg], await_event(shared[arg]))
            elif op == "succeed":
                if not shared[arg].triggered:
                    shared[arg].succeed(step)
            else:
                target = arg % len(scripts)
                if interruptible(target):
                    interrupt_pending[target] = True
                    procs[target].interrupt(i)
        log.append((env.now, i, "end"))

    for i, ops in enumerate(scripts):
        procs.append(env.process(body(i, ops)))
    for cut in cuts:
        env.run(until=cut)
        log.append(("cut", env.now))
    env.run()
    log.append(("end", env.now))
    return log


@given(_PROGRAMS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sleep_is_timeline_identical_to_timeout(program):
    timeout_env = Environment()
    expected = _execute(program, timeout_env, "timeout")
    sleep_env = Environment()
    assert _execute(program, sleep_env, "sleep") == expected
    legacy_env = LegacyHeapEnvironment()
    assert _execute(program, legacy_env, "sleep") == expected
    assert legacy_env.sleeps_elided == 0
    assert legacy_env.events_processed == timeout_env.events_processed
    # each elided sleep is one event of the timeout version, and it took
    # the same eid, so every later eid matches too
    assert (sleep_env.events_processed + sleep_env.sleeps_elided
            == timeout_env.events_processed)
    assert sleep_env._eid == timeout_env._eid == legacy_env._eid


def test_differential_program_reaches_the_fast_path():
    """The differential shape does elide: in this program the second
    private wait has nothing due before it and ends inside the cut, while
    the wait that crosses the cut falls back."""
    program = (
        [[("wait", 0.5), ("wait", 0.25), ("succeed", 0)],
         [("await", 0), ("wait", 2.0)]],
        [1.0],
    )
    env = Environment()
    assert _execute(program, env, "sleep") == _execute(
        program, Environment(), "timeout")
    assert env.sleeps_elided == 1
