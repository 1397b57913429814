#!/usr/bin/env python
"""Run a traced sharded simulation and freeze it to a flight-recorder bundle.

The distributed analogue of ``profile_report.py``: where that script
traces one deployment in one process, this one runs a multi-shard
``run_sharded`` with tracing on, merges every shard's spans/alerts/
metrics, and writes the whole story to a self-validating artifact
directory via :func:`repro.obs.flight.write_flight_bundle`:

* ``manifest.json`` / ``trace.json`` (Perfetto) / ``records.json``
  (exact spans) / ``metrics.json`` / ``alerts.json`` / ``critpath.json``
  / ``epochs.json`` — see :mod:`repro.obs.flight` for the inventory.

The bundle is then re-opened and checked end to end with
:func:`~repro.obs.flight.validate_flight_bundle` — files present, every
shard owning a trace track, the records digest matching the manifest,
critical-path coverage above the bar.  Any problem exits non-zero,
which makes this script the sharded-observability smoke test in
``scripts/verify.sh``.

Scenarios:

* ``pool`` (default) — the heartbeat-carrying M/M/c pool: fast, and the
  cross-shard envelope spans land on every group's ``net`` track.
* ``dgsf`` — one full DGSF deployment per group; each non-manager
  group's completion report carries trace context, so the merged trace
  shows a cross-shard leg stitched onto a real invocation's span tree.

Usage::

    python scripts/shard_report.py --out-dir /tmp/flight
    python scripts/shard_report.py --scenario dgsf --shards 2 --mode inline
    python scripts/shard_report.py --validate /tmp/flight
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import DgsfConfig  # noqa: E402
from repro.faas.topology import (  # noqa: E402
    DEFAULT_LOOKAHEAD_S,
    plan_collect,
    plan_scenario,
    pool_collect,
    pool_scenario,
)
from repro.obs.flight import (  # noqa: E402
    validate_flight_bundle,
    write_flight_bundle,
)
from repro.sim.shard import run_sharded  # noqa: E402

#: pool scenario shape: (gap_s, service_s, gpus) + heartbeat wiring that
#: keeps envelope traffic (and therefore net-track spans) in the trace
POOL_PARAMS = (0.05, 0.18, 4)
POOL_HEARTBEAT_S = 10.0
POOL_LOOKAHEAD_S = 5.0

#: dgsf scenario shape: two GPUs per group, two copies of each of two
#: workloads at exponential gaps; the horizon outlives every group's plan
DGSF_CONFIG = DgsfConfig(num_gpus=2, tracing_enabled=True)
DGSF_RECIPE = {"mode": "exponential", "names": ["kmeans", "face_identification"],
               "copies": 2, "mean_gap_s": 2.0}
DGSF_HORIZON_S = 4000.0


def run_traced(args) -> "ShardRunResult":  # noqa: F821 (doc only)
    if args.scenario == "pool":
        per_group = max(1, args.invocations // args.groups)
        gap_s, service_s, gpus = POOL_PARAMS
        beats = max(1, int(per_group * gap_s / POOL_HEARTBEAT_S))
        return run_sharded(
            pool_scenario,
            num_shards=args.shards, total_groups=args.groups,
            seed=args.seed, lookahead_s=POOL_LOOKAHEAD_S,
            scenario_args=(per_group, gpus, gap_s, service_s,
                           POOL_HEARTBEAT_S, beats),
            collect=pool_collect, mode=args.mode, tracing=True,
        )
    return run_sharded(
        plan_scenario,
        num_shards=args.shards, total_groups=args.groups,
        seed=args.seed, lookahead_s=DEFAULT_LOOKAHEAD_S,
        scenario_args=(DGSF_CONFIG, DGSF_RECIPE),
        collect=plan_collect, mode=args.mode,
        until=DGSF_HORIZON_S, tracing=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=("pool", "dgsf"), default="pool")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--groups", type=int, default=8)
    parser.add_argument("--invocations", type=int, default=4_000,
                        help="total pool invocations across all groups")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mode", choices=("auto", "process", "inline"),
                        default="process")
    parser.add_argument("--out-dir", default="flight_out")
    parser.add_argument("--min-coverage", type=float, default=0.95)
    parser.add_argument("--validate", metavar="DIR", default=None,
                        help="skip the run: validate an existing bundle "
                             "directory and exit")
    args = parser.parse_args(argv)

    if args.validate is not None:
        problems = validate_flight_bundle(args.validate,
                                          min_coverage=args.min_coverage)
        if problems:
            print(f"flight bundle INVALID: {args.validate}", file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        print(f"flight bundle OK: {args.validate}")
        return 0

    if args.scenario == "dgsf" and args.groups > 4:
        args.groups = 4  # a full deployment per group; keep bring-up sane

    result = run_traced(args)
    manifest = write_flight_bundle(result, args.out_dir,
                                   min_coverage=args.min_coverage)

    print(f"bundle:   {args.out_dir} ({', '.join(manifest['files'])})")
    print(f"run:      {manifest['num_shards']} shard(s) x "
          f"{manifest['total_groups']} group(s), mode={manifest['mode']}, "
          f"{manifest['events_processed']:,} events "
          f"(+{manifest['sleeps_elided']:,} elided sleeps), "
          f"{manifest['n_epochs']:,} epochs, "
          f"{manifest['n_envelopes']} envelope(s)")
    print(f"trace:    {manifest['n_span_records']:,} spans, "
          f"digest {manifest['trace_digest']:#x}")
    print(f"outcome:  merged digest {manifest['merged_digest']:#x}, "
          f"{manifest['n_alerts']} SLO alert transition(s)")
    sync = result.sync
    print(f"sync:     fast_forwards={sync['fast_forwards']}, "
          f"load_imbalance={sync['load_imbalance']:.3f}, "
          f"barrier_wall_s={sync['barrier_wall_s']:.3f}")
    for shard in sync["per_shard"]:
        print(f"  shard {shard['shard_id']}: groups={shard['groups']} "
              f"events={shard['events']:,} "
              f"stall={shard['barrier_stall_wall_s']:.3f}s")

    problems = validate_flight_bundle(args.out_dir,
                                      min_coverage=args.min_coverage)
    if problems:
        print("\nflight bundle validation FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(f"\nflight bundle validation OK ({len(manifest['files'])} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
