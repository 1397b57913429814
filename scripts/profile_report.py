#!/usr/bin/env python3
"""Trace one invocation (or a mixed run) and emit profiling artifacts.

Runs a workload with span tracing enabled, then writes next to each other:

* ``trace.json`` — Chrome trace-event JSON (load in Perfetto or
  ``chrome://tracing``),
* ``critpath.json`` — one analysis row per invocation: critical-path
  resource attribution (queue / wire / serialization / gpu_compute /
  object_store / cpu), the phase split and its coverage, the RPC call
  mix; p50/p95/p99 aggregates per phase and per resource, and the
  top-bottleneck-by-workload table,
* ``flame.folded`` (with ``--flame``, default on) — folded critical-path
  stacks, loadable in speedscope or FlameGraph's ``flamegraph.pl``,
* ``alerts.json`` — the SLO engine's alert transition log,
* ``metrics.json`` — the metrics-registry snapshot.

It also *validates* the trace: every invocation's root span must equal
its measured end-to-end latency, and both the phase spans and the
critical path must attribute at least ``--min-coverage`` of that time.
A violation exits non-zero, which makes this script double as the
observability smoke test in ``scripts/verify.sh``.  (Flight-recorder
bundles from sharded runs are validated by
``scripts/shard_report.py --validate DIR``.)

Usage::

    python scripts/profile_report.py --workload kmeans --out-dir /tmp/prof
    python scripts/profile_report.py --mixed --copies 3 --min-coverage 0.95
    python scripts/profile_report.py --mixed --flame /tmp/prof/flame.folded
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import DgsfConfig
from repro.experiments.runner import (
    make_plan,
    run_scenario,
    run_single_invocation_traced,
)
from repro.obs import (
    bottleneck_table,
    critpath_report,
    dump_folded,
    folded_stacks,
)
from repro.workloads import ALL_WORKLOAD_NAMES


def _validate(rows: list[dict], min_coverage: float) -> list[str]:
    problems = []
    for row in rows:
        label = f"invocation {row['invocation_id']} ({row['workload']})"
        if row.get("e2e_matches_span") is False:
            problems.append(
                f"{label}: root span {row['e2e_s']:.6f}s != measured "
                f"e2e {row['measured_e2e_s']:.6f}s"
            )
        if row["phase_coverage"] < min_coverage:
            problems.append(
                f"{label}: phase coverage {row['phase_coverage']:.3f} "
                f"< required {min_coverage}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="kmeans",
                        choices=ALL_WORKLOAD_NAMES)
    parser.add_argument("--variant", default="dgsf",
                        help="execution variant for single-invocation mode")
    parser.add_argument("--mixed", action="store_true",
                        help="trace a mixed-arrival scenario instead of one "
                             "uncontended invocation")
    parser.add_argument("--copies", type=int, default=2,
                        help="instances per workload in --mixed mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="profile_out")
    parser.add_argument("--min-coverage", type=float, default=0.95,
                        help="minimum fraction of each invocation's e2e time "
                             "that phase spans (and the critical path) must "
                             "attribute")
    parser.add_argument("--flame", nargs="?", const="", default="",
                        metavar="PATH",
                        help="folded flamegraph output path (default: "
                             "<out-dir>/flame.folded); pass --no-flame to skip")
    parser.add_argument("--no-flame", action="store_true",
                        help="skip the folded flamegraph export")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.mixed:
        config = DgsfConfig(num_gpus=2, seed=args.seed, tracing_enabled=True)
        plan = make_plan("exponential", seed=args.seed, copies=args.copies)
        result = run_scenario(config, plan).require_completed()
        dep, invocations = result.deployment, result.invocations
    else:
        inv, dep = run_single_invocation_traced(
            args.workload, args.variant,
            DgsfConfig(num_gpus=1, seed=args.seed),
        )
        invocations = [inv]

    trace_path = out_dir / "trace.json"
    dep.tracer.dump_chrome(trace_path)
    (out_dir / "metrics.json").write_text(
        json.dumps(dep.metrics.as_dict(), indent=2, sort_keys=True)
    )

    # per-invocation phases + critical path, flamegraph, SLO alert log
    crit = critpath_report(dep.tracer, invocations,
                           min_coverage=args.min_coverage)
    rows, aggregate = crit["per_invocation"], crit["aggregate"]
    (out_dir / "critpath.json").write_text(json.dumps(
        {"per_invocation": rows,
         "aggregate": aggregate,
         "bottlenecks": bottleneck_table(aggregate),
         "tracer": dep.tracer.summary()},
        indent=2, sort_keys=True,
    ))
    flame_path = None
    if not args.no_flame:
        flame_path = Path(args.flame) if args.flame else out_dir / "flame.folded"
        n_stacks = dump_folded(folded_stacks(dep.tracer, invocations), flame_path)
    (out_dir / "alerts.json").write_text(json.dumps(
        {"alerts": dep.slo.alert_log(), "summary": dep.slo.summary()},
        indent=2, sort_keys=True,
    ))

    print(f"trace:     {trace_path} ({dep.tracer.summary()['spans']} spans)")
    print(f"critpath:  {out_dir / 'critpath.json'}")
    if flame_path is not None:
        print(f"flame:     {flame_path} ({n_stacks} stacks)")
    print(f"alerts:    {out_dir / 'alerts.json'} "
          f"({len(dep.slo.alerts)} transitions)")
    print(f"metrics:   {out_dir / 'metrics.json'}")
    # an elided sleep is an event the Timeout version would have processed
    kernel = dep.env.stats()
    print(f"kernel:    {kernel['events_processed']:,} events, "
          f"{kernel['sleeps_elided']:,} elided sleeps, "
          f"{kernel['processes_created']:,} processes")
    print()
    header = f"{'workload':<22}{'phase':<16}{'mean_s':>9}{'p50_s':>9}{'p95_s':>9}{'p99_s':>9}"
    print(header)
    print("-" * len(header))
    for workload, agg in aggregate.get("workloads", {}).items():
        for phase, stats in [*agg["phases"].items(), ("e2e", agg["e2e"])]:
            print(f"{workload:<22}{phase:<16}"
                  f"{stats['mean']:>9.4f}{stats['p50']:>9.4f}"
                  f"{stats['p95']:>9.4f}{stats['p99']:>9.4f}")
    print()
    header2 = f"{'workload':<22}{'pct':<6}{'bottleneck':<14}{'seconds':>9}{'share':>8}"
    print(header2)
    print("-" * len(header2))
    for row in bottleneck_table(aggregate):
        print(f"{row['workload']:<22}{row['percentile']:<6}"
              f"{row['bottleneck']:<14}{row['seconds']:>9.3f}"
              f"{row['share']:>8.3f}")
    if dep.tracer.dropped:
        print(f"WARNING: tracer dropped {dep.tracer.dropped} spans "
              f"(max_spans={dep.tracer.max_spans})", file=sys.stderr)

    problems = _validate(rows, args.min_coverage) + crit["violations"]
    if problems:
        print("\ntrace validation FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(f"\ntrace validation OK: {len(rows)} invocation(s), "
          f"coverage >= {args.min_coverage}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
