#!/usr/bin/env python
"""Kernel event-throughput benchmark: calendar-queue wheel vs legacy heap.

Runs identical synthetic scenarios on the production kernel
(:class:`repro.sim.core.Environment`, calendar-queue event wheel) and on
the frozen pre-refactor kernel (:class:`repro.sim.legacy.LegacyHeapEnvironment`,
single binary heap), and emits ``BENCH_kernel.json``:

* ``scenarios`` — one row per (scenario, impl): events processed, wall
  time split into the *schedule* phase (creating/queueing the timeouts)
  and the *run* phase (draining the event loop), and the headline
  ``events_per_sec`` = events processed / run-phase wall.  Each phase is
  timed with the cyclic GC disabled and the best of ``--repeat`` runs is
  kept — both standard practice to keep the numbers stable on shared
  machines.
* ``speedups`` — per-scenario wheel-over-legacy ratio of ``events_per_sec``.
* ``order`` — a CRC32 digest of the full ``(time, priority, eid)`` pop
  sequence of both kernels on a reduced copy of each scenario.  The two
  digests must be identical — the wheel is only a valid replacement if
  its event ordering is bit-identical to the heap's — and the script
  exits non-zero on any mismatch.  The digest is recorded so the
  ``bench_compare.py`` gate also pins it against the committed baseline.

The file declares its own gates (:data:`GATES`): event counts and order
digests are exact, machine-dependent fields (``events_per_sec``,
``wall_s``, ``sched_wall_s``, ``speedup``) are ignored, and the committed
speedup is kept honest by ``--min-speedup`` instead, which fails the run
if the headline million-event scenario (``timer_flood``) comes in below
the floor.  This bench stays a script rather than an experiment of
``python -m repro.experiments``: it times the simulation kernel itself,
not the modelled system.

Scenarios
---------
``timer_flood``
    One million fire-and-forget timeouts with uniformly random delays —
    the arrival-plan shape of ROADMAP items 1–3 (cluster-scale invocation
    schedules), scheduled through each kernel's idiomatic bulk path
    (``timeout_batch`` on the wheel, a ``timeout()`` loop on the heap).
``timer_churn``
    Tens of thousands of concurrent processes each sleeping in a loop —
    the steady-state shape of the DGSF platform simulation (every event
    resumes a generator).
``cancel_storm``
    Invocation arrivals paired with watchdog deadlines, 95% of which are
    cancelled before they fire — the platform's deadline pattern; the
    cancelled entries stress tombstone draining.

Usage::

    python scripts/bench_kernel.py --out BENCH_kernel.json
    python scripts/bench_kernel.py --quick --out /tmp/fresh.json  # CI smoke

``--quick`` runs the 100k-event profile (single repetition) used by
verify.sh/CI: the full 1M profile takes ~90 s wall, the quick one a few
seconds.  Quick output is gated against the committed 1M baseline on the
``order`` section only (the order digests always run at the fixed
``ORDER_EVENTS`` size, so they are comparable across profiles) via
``bench_compare.py --sections order --skip-compat events``.  The
committed ``BENCH_kernel.json`` stays a full-profile run, refreshed
manually.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import struct
import sys
import time
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.core import Environment  # noqa: E402
from repro.sim.legacy import LegacyHeapEnvironment  # noqa: E402

IMPLS = {"wheel": Environment, "legacy": LegacyHeapEnvironment}

#: scenario gated by --min-speedup (the million-event headline)
HEADLINE = "timer_flood"

#: events used for the order-digest runs; small enough to trace every pop
ORDER_EVENTS = 50_000

#: per-section gates written into the file for ``bench_compare.py``
GATES = {
    "scenarios": {"key": ["scenario", "impl"], "exact": ["n_events"],
                  "ignore": ["sched_wall_s", "wall_s", "events_per_sec"]},
    "speedups": {"key": ["scenario"], "exact": [], "ignore": ["speedup"]},
    "order": {"key": ["scenario"],
              "exact": ["n_events", "order_n", "order_crc"], "ignore": []},
}


# ---------------------------------------------------------------------------
# scenarios: each returns (schedule, drive) callables for a given env
# ---------------------------------------------------------------------------

def _flood_setup(env, n_events: int, seed: int):
    rng = random.Random(seed)
    span = 40.0
    delays = [rng.uniform(0.0, span) for _ in range(n_events)]

    def schedule():
        if isinstance(env, LegacyHeapEnvironment):
            timeout = env.timeout
            for d in delays:
                timeout(d)
        else:
            env.timeout_batch(delays)

    return schedule


def _churn_setup(env, n_events: int, seed: int):
    # P workers x m sleeps each; every timeout resumes a generator.
    m = 20
    procs = max(1, n_events // m)
    rng = random.Random(seed)
    seeds = [rng.randrange(1 << 30) for _ in range(procs)]

    def worker(env, wrng):
        for _ in range(m):
            yield env.timeout(wrng.random() * 10.0 + 0.001)

    def schedule():
        for s in seeds:
            env.process(worker(env, random.Random(s)))

    return schedule


def _cancel_setup(env, n_events: int, seed: int):
    # Half the events are invocation arrivals, half watchdog deadlines;
    # 95% of the deadlines are cancelled (the invocation "finished").
    n = n_events // 2
    rng = random.Random(seed)
    span = 40.0
    arrivals = [rng.uniform(0.0, span) for _ in range(n)]

    def schedule():
        if isinstance(env, LegacyHeapEnvironment):
            timeout = env.timeout
            for a in arrivals:
                timeout(a)
            deadlines = [timeout(a + 30.0) for a in arrivals]
        else:
            env.timeout_batch(arrivals)
            deadlines = env.timeout_batch([a + 30.0 for a in arrivals])
        for i, d in enumerate(deadlines):
            if i % 20 != 0:
                d.cancel()

    return schedule


SCENARIOS = {
    "timer_flood": _flood_setup,
    "timer_churn": _churn_setup,
    "cancel_storm": _cancel_setup,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_once(impl: str, scenario: str, n_events: int, seed: int) -> dict:
    env = IMPLS[impl]()
    schedule = SCENARIOS[scenario](env, n_events, seed)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        schedule()
        t1 = time.perf_counter()
        env.run()
        t2 = time.perf_counter()
    finally:
        gc.enable()
    stats = env.stats()
    assert stats["events_pending"] == 0, f"{scenario}/{impl}: queue not drained"
    run_wall = t2 - t1
    return {
        "scenario": scenario,
        "impl": impl,
        "n_events": stats["events_processed"],
        "final_now": stats["now"],
        "timeouts_recycled": stats["timeouts_recycled"],
        "sched_wall_s": round(t1 - t0, 6),
        "wall_s": round(t2 - t0, 6),
        "events_per_sec": round(stats["events_processed"] / run_wall, 1),
    }


def run_best_of(impl: str, scenario: str, n_events: int, seed: int,
                repeat: int) -> dict:
    best = None
    for _ in range(repeat):
        row = run_once(impl, scenario, n_events, seed)
        if best is None:
            best = row
        else:
            # Deterministic fields must agree between repeats.
            for key in ("n_events", "final_now", "timeouts_recycled"):
                if row[key] != best[key]:
                    raise SystemExit(
                        f"NONDETERMINISM: {scenario}/{impl}.{key} "
                        f"{best[key]} vs {row[key]} across repeats"
                    )
            if row["events_per_sec"] > best["events_per_sec"]:
                best = row
    return best


def order_digest(scenario: str, seed: int) -> dict:
    """CRC the (time, priority, eid) pop order of both kernels; must match."""
    crcs = {}
    lengths = {}
    for impl, cls in IMPLS.items():
        env = cls()
        trace: list = []
        env._pop_trace = trace
        schedule = SCENARIOS[scenario](env, ORDER_EVENTS, seed)
        schedule()
        env.run()
        crc = 0
        pack = struct.pack
        for when, priority, eid in trace:
            crc = zlib.crc32(pack("<dqq", when, priority, eid), crc)
        crcs[impl] = crc
        lengths[impl] = len(trace)
    if crcs["wheel"] != crcs["legacy"] or lengths["wheel"] != lengths["legacy"]:
        raise SystemExit(
            f"ORDER MISMATCH in {scenario}: wheel "
            f"(crc={crcs['wheel']:#x}, n={lengths['wheel']}) vs legacy "
            f"(crc={crcs['legacy']:#x}, n={lengths['legacy']}) — the wheel "
            f"is not popping events in heap order"
        )
    return {
        "scenario": scenario,
        "n_events": ORDER_EVENTS,
        "order_n": lengths["wheel"],
        "order_crc": crcs["wheel"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"))
    parser.add_argument("--events", type=int, default=1_000_000,
                        help="events per scenario (default: one million)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=2,
                        help="timed repetitions per (scenario, impl); "
                             "best run is kept (default 2)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the %r scenario's wheel/legacy "
                             "events/sec ratio reaches this floor" % HEADLINE)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke profile: 100k events, one repetition "
                             "(order digests still run at ORDER_EVENTS)")
    args = parser.parse_args(argv)
    if args.quick:
        args.events = 100_000
        args.repeat = 1

    t_start = time.perf_counter()
    scenario_rows = []
    speedups = []
    for scenario in SCENARIOS:
        per_impl = {}
        for impl in IMPLS:
            row = run_best_of(impl, scenario, args.events, args.seed,
                              args.repeat)
            per_impl[impl] = row
            scenario_rows.append(row)
            print(f"{scenario:12s} {impl:6s}: {row['n_events']:>9,} events  "
                  f"run {row['wall_s'] - row['sched_wall_s']:6.3f}s  "
                  f"{row['events_per_sec']:>11,.0f} ev/s")
        # The two kernels must process identical event populations.
        for key in ("n_events", "final_now"):
            if per_impl["wheel"][key] != per_impl["legacy"][key]:
                raise SystemExit(
                    f"DIVERGENCE: {scenario}.{key} wheel="
                    f"{per_impl['wheel'][key]} legacy={per_impl['legacy'][key]}"
                )
        ratio = (per_impl["wheel"]["events_per_sec"]
                 / per_impl["legacy"]["events_per_sec"])
        speedups.append({"scenario": scenario, "speedup": round(ratio, 2)})
        print(f"{scenario:12s} speedup: {ratio:.2f}x")

    order_rows = [order_digest(s, args.seed) for s in SCENARIOS]
    print(f"order digests OK ({len(order_rows)} scenario(s), "
          f"wheel == legacy)")

    doc = {
        "experiment": "kernel_bench",
        "seed": args.seed,
        "events": args.events,
        "quick": args.quick,
        "python": platform.python_version(),
        "wall_seconds": round(time.perf_counter() - t_start, 2),
        "gates": GATES,
        "scenarios": scenario_rows,
        "speedups": speedups,
        "order": order_rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_speedup is not None:
        headline = next(s for s in speedups if s["scenario"] == HEADLINE)
        if headline["speedup"] < args.min_speedup:
            print(f"SPEEDUP REGRESSION: {HEADLINE} wheel/legacy ratio "
                  f"{headline['speedup']:.2f}x is below the "
                  f"--min-speedup {args.min_speedup:.2f}x floor",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
