"""Ablation: FCFS (the paper's deployed policy) vs shortest-function-first
(its stated future work, §VIII-D)."""

import pytest

from repro.core import DgsfConfig
from repro.experiments import render_table
from repro.experiments.runner import make_plan, run_scenario


def _mean_queue(stats):
    total = sum(ws.count for ws in stats.per_workload.values())
    return sum(ws.mean_queue_s * ws.count for ws in stats.per_workload.values()) / total


@pytest.mark.experiment("ablation-scheduling")
def test_fcfs_vs_sff(once):
    def run():
        plan = make_plan("exponential", seed=5, copies=8, mean_gap_s=2.0)
        rows = []
        per_discipline = {}
        for discipline in ("fcfs", "sff"):
            cfg = DgsfConfig(num_gpus=4, api_servers_per_gpu=2,
                             queue_discipline=discipline, seed=5)
            result = run_scenario(cfg, plan).require_completed()
            per_discipline[discipline] = result.stats
            rows.append({
                "discipline": discipline,
                "provider_e2e_s": round(result.stats.provider_e2e_s, 1),
                "fn_e2e_sum_s": round(result.stats.function_e2e_sum_s, 1),
                "mean_queue_s": round(_mean_queue(result.stats), 2),
            })
        return rows, per_discipline

    rows, stats = once(run)
    print()
    print(render_table(
        "Ablation — queue discipline under heavy load (paper future work)",
        rows,
    ))

    fcfs, sff = stats["fcfs"], stats["sff"]
    # SFF improves throughput: lower mean queueing and total E2E sum.
    assert _mean_queue(sff) < _mean_queue(fcfs)
    assert sff.function_e2e_sum_s < fcfs.function_e2e_sum_s
    # The fairness loss: the longest workload (NLP) waits at least as long
    # under SFF as the short workloads do, relative to FCFS.
    short_gain = (
        fcfs.per_workload["kmeans"].mean_queue_s
        - sff.per_workload["kmeans"].mean_queue_s
    )
    long_gain = (
        fcfs.per_workload["nlp_qa"].mean_queue_s
        - sff.per_workload["nlp_qa"].mean_queue_s
    )
    assert short_gain >= long_gain - 1.0, "short functions benefit the most"
