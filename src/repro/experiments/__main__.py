"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro.experiments runtimes     # Table II, Figs. 3-4
    python -m repro.experiments migration    # Fig. 8, Table V
    python -m repro.experiments all          # everything (several minutes)
    python -m repro.experiments sharing      # Tables III-IV, Figs. 5-7
    python -m repro.experiments sched --seed 3 --copies 4 --out BENCH_sched.json

``runtimes``, ``sharing``, ``migration``, ``sched``, ``llm`` and ``shard``
write their committed ``BENCH_*.json`` baseline with ``--out``: a header
(``experiment``, ``seed``, ``copies``, ``python``, ``cpu_count``,
``wall_seconds`` and the module's ``gates`` declaration) followed by the
module's sections.
``scripts/bench_compare.py`` gates a fresh file against the committed one
by the baseline's declared gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.experiments import (
    runtimes, sharing, migration,
    sched_ablation, critpath_ablation, shard_ablation, llm_ablation,
    render_table,
)

EXPERIMENTS = [
    "runtimes", "sharing", "migration", "sched", "critpath", "shard", "llm",
]


#: experiments whose sections make a committed ``BENCH_*.json`` (``--out``)
BASELINES = {
    "runtimes": (runtimes, "§VIII-B/C runtimes — Table II, Figs. 3-4"),
    "sharing": (sharing, "§VIII-D sharing — Tables III-IV, Figs. 5-7"),
    "migration": (migration, "§VIII-E migration — Fig. 8, Table V, ablations"),
    "sched": (sched_ablation,
              "Scheduler ablation — queue wait by size class (s)"),
    "llm": (llm_ablation,
            "LLM serving ablation — continuous vs request-level batching"),
    "shard": (shard_ablation, "Shard ablation — events/sec vs shard count"),
}


def _print_rows(title: str, rows) -> None:
    # nested maps (the LLM rows' attribution) stay in the JSON only
    columns = [c for c, v in rows[0].items() if not isinstance(v, dict)] \
        if rows else None
    print(render_table(title, rows, columns=columns))
    print()


def run_baseline(name: str, seed: int, copies: int, trace_dir: str = None,
                 out: Path = None) -> None:
    """Print the experiment's sections; with ``out``, write the baseline."""
    module, title = BASELINES[name]
    extra = {"trace_dir": trace_dir} if name == "runtimes" else {}
    t0 = time.perf_counter()
    sections = module.sections(seed=seed, copies=copies, **extra)
    wall_s = time.perf_counter() - t0
    for section, rows in sections.items():
        _print_rows(f"{title} [{section}]", rows)
    if trace_dir and name == "runtimes":
        print(f"[trace + critpath artifacts in {trace_dir}]\n", file=sys.stderr)
    if out is None:
        return
    doc = {
        "experiment": module.EXPERIMENT,
        "seed": seed,
        "copies": copies,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "wall_seconds": round(wall_s, 2),
        "gates": module.GATES,
        **sections,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[wrote {out}]", file=sys.stderr)


def run_one(name: str, seed: int, copies: int, trace_dir: str = None,
            out: Path = None) -> None:
    t0 = time.time()
    if name in BASELINES:
        run_baseline(name, seed, copies, trace_dir=trace_dir, out=out)
    elif name == "critpath":
        _print_rows(
            "Critical-path ablation — dominant resource by setting",
            critpath_ablation.run(seed=seed, copies=min(copies, 3)),
        )
    else:
        raise SystemExit(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    print(f"[{name} done in {time.time() - t0:.1f}s wall]\n", file=sys.stderr)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DGSF paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--copies", type=int, default=10,
                        help="instances per workload (and bursts, for "
                             "sharing; 100k scaleout invocations for shard)")
    parser.add_argument("--trace-dir", default=None,
                        help="export Chrome trace + critical-path/phase JSON "
                             "artifacts here (runtimes only)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the committed-baseline JSON here "
                             f"({', '.join(BASELINES)} only)")
    args = parser.parse_args(argv)
    if args.out is not None and args.experiment not in BASELINES:
        parser.error(f"--out applies to {', '.join(BASELINES)} only")
    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    for name in names:
        run_one(name, seed=args.seed, copies=args.copies,
                trace_dir=args.trace_dir, out=args.out)


if __name__ == "__main__":
    main()
