#!/usr/bin/env python
"""Serverless ML inference: the paper's mixed-workload scenario.

Deploys the six paper workloads on a 4-GPU DGSF server, drives them with
a Poisson-like arrival process (the §VIII-D methodology), and compares
*no sharing* against *sharing with two API servers per GPU* — printing
the provider's end-to-end time, the per-workload queueing/execution
split, and the GPU utilization gain.

Run:  python examples/serverless_inference.py
"""

from repro.core import DgsfConfig
from repro.experiments.runner import make_plan, run_scenario
from repro.experiments.reporting import render_table, pct_change


def main():
    # Ten of each workload, exponential inter-arrival gaps (mean 2 s),
    # shuffled in a random-but-consistent order.
    plan = make_plan("exponential", seed=7, copies=3, mean_gap_s=2.0)
    print(f"arrival plan: {len(plan)} invocations over "
          f"{plan.times.max():.0f} s of arrivals\n")

    results = {}
    for label, servers_per_gpu in (("no_sharing", 1), ("sharing_two", 2)):
        config = DgsfConfig(
            num_gpus=4,
            api_servers_per_gpu=servers_per_gpu,
            policy="worst_fit",
            seed=7,
        )
        result = run_scenario(config, plan, sample_utilization=True)
        result.require_completed()
        results[label] = result
        rows = [ws.as_row() for ws in result.stats.per_workload.values()]
        print(render_table(
            f"--- {label}: provider end-to-end "
            f"{result.stats.provider_e2e_s:.1f} s, "
            f"avg GPU utilization {result.avg_utilization:.1f}% ---",
            rows,
        ))
        print()

    base = results["no_sharing"].stats
    shared = results["sharing_two"].stats
    print("sharing vs no sharing:")
    print(f"  provider end-to-end: "
          f"{pct_change(shared.provider_e2e_s, base.provider_e2e_s)}")
    print(f"  sum of function E2E: "
          f"{pct_change(shared.function_e2e_sum_s, base.function_e2e_sum_s)}")
    util_base = results["no_sharing"].avg_utilization
    util_shared = results["sharing_two"].avg_utilization
    print(f"  avg GPU utilization: {util_base:.1f}% -> {util_shared:.1f}%")


if __name__ == "__main__":
    main()
