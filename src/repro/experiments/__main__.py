"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments fig8
    python -m repro.experiments all          # everything (several minutes)
    python -m repro.experiments table3 --copies 5 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    table2, table3, table4, table5, fig3, fig4, fig5, fig6, fig7, fig8,
    sched_ablation, critpath_ablation, shard_ablation, llm_ablation,
    render_table, render_series,
)

EXPERIMENTS = [
    "table2", "fig3", "fig4", "table3", "fig5", "table4", "fig6",
    "fig7", "fig8", "table5", "sched", "critpath", "shard", "llm",
]


def _print_rows(title: str, rows) -> None:
    print(render_table(title, rows))
    print()


def run_one(name: str, seed: int, copies: int, trace_dir: str = None) -> None:
    t0 = time.time()
    if name == "table2":
        _print_rows("Table II — workload runtimes (s)", table2.run())
    elif name == "fig3":
        _print_rows("Figure 3 — phase breakdown (s)", fig3.run(seed=seed))
    elif name == "fig4":
        _print_rows("Figure 4 — ablation (s)",
                     fig4.run(seed=seed, trace_dir=trace_dir))
        if trace_dir:
            print(f"[trace + critpath artifacts in {trace_dir}]\n",
                  file=sys.stderr)
    elif name == "table3":
        _print_rows("Table III — heavy load (s)", table3.run(seed=seed, copies=copies))
    elif name == "fig5":
        _print_rows("Figure 5 — heavy-load delays (s)", fig5.run(seed=seed, copies=copies))
    elif name == "table4":
        _print_rows("Table IV — light load, 4 vs 3 GPUs (s)",
                     table4.run(seed=seed, copies=copies))
    elif name == "fig6":
        _print_rows("Figure 6 — light-load delays (s)", fig6.run(seed=seed, copies=copies))
    elif name == "fig7":
        out = fig7.run(seed=seed, bursts=copies)
        _print_rows("Figure 7 — burst utilization", out["summary"])
        ns = out["series"]["no_sharing"]
        sh = out["series"]["sharing2_best_fit"]
        n = min(len(ns["t"]), len(sh["t"]))
        print(render_series(
            "Figure 7 — utilization moving average (%)",
            ns["t"][:n],
            {"no_sharing": ns["utilization_pct"][:n],
             "sharing2": sh["utilization_pct"][:n]},
        ))
        print(f"utilization increase: {out['utilization_increase_pct']}% (paper: +16%)\n")
    elif name == "fig8":
        out = fig8.run(seed=seed, sample_utilization=False)
        _print_rows("Figure 8 — migration case study (s)", out["summary"])
    elif name == "table5":
        _print_rows("Table V — migration microbenchmark (s)", table5.run())
    elif name == "sched":
        _print_rows(
            "Scheduler ablation — queue wait by size class (s)",
            sched_ablation.run(seed=seed, copies=copies),
        )
    elif name == "critpath":
        _print_rows(
            "Critical-path ablation — dominant resource by setting",
            critpath_ablation.run(seed=seed, copies=min(copies, 3)),
        )
    elif name == "llm":
        _print_rows(
            "LLM serving ablation — continuous vs request-level batching",
            llm_ablation.run(seed=seed, copies=min(copies, 3)),
        )
    elif name == "shard":
        # copies scales the per-run invocation budget (default 10 -> 1M);
        # the full million-invocation ladder is the point of the ablation,
        # but --copies 1 gives a 100k-invocation quick look.
        _print_rows(
            "Shard ablation — events/sec vs shard count",
            shard_ablation.run(seed=seed, invocations=copies * 100_000),
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
                        help="instances per workload (bursts for fig7)")
    parser.add_argument("--trace-dir", default=None,
                        help="export Chrome trace + critical-path/phase JSON "
                             "artifacts here (fig4 only)")
    args = parser.parse_args(argv)
    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    for name in names:
        run_one(name, seed=args.seed, copies=args.copies,
                trace_dir=args.trace_dir)


if __name__ == "__main__":
    main()
