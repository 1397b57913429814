"""Ablation: scaling out GPU servers behind the backend (§IV).

Compares 1×4-GPU server against 2×2-GPU servers (same total GPUs) under
heavy load with least-loaded and round-robin routing.  Disaggregation's
"schedule anywhere" promise: splitting the pool behind a load-aware
backend should cost little; naive round-robin costs more.
"""

import pytest

from repro.core import DgsfConfig
from repro.experiments import render_table
from repro.experiments.runner import make_plan, run_scenario
from repro.workloads import SMALLER_WORKLOAD_NAMES


@pytest.mark.experiment("ablation-disaggregation")
def test_gpu_server_scale_out(once):
    def run():
        plan = make_plan("exponential", seed=9, copies=8,
                         names=SMALLER_WORKLOAD_NAMES, mean_gap_s=2.0)
        rows = []
        results = {}
        configs = [
            ("1x4gpu", dict(num_gpus=4, num_gpu_servers=1)),
            ("2x2gpu_least_loaded", dict(num_gpus=2, num_gpu_servers=2,
                                         backend_policy="least_loaded")),
            ("2x2gpu_round_robin", dict(num_gpus=2, num_gpu_servers=2,
                                        backend_policy="round_robin")),
        ]
        for label, overrides in configs:
            cfg = DgsfConfig(seed=9, api_servers_per_gpu=1, **overrides)
            result = run_scenario(cfg, plan).require_completed()
            results[label] = result.stats
            rows.append({
                "config": label,
                "provider_e2e_s": round(result.stats.provider_e2e_s, 1),
                "fn_e2e_sum_s": round(result.stats.function_e2e_sum_s, 1),
            })
        return rows, results

    rows, results = once(run)
    print()
    print(render_table(
        "Ablation — one big GPU server vs two small ones (same total GPUs)",
        rows,
    ))

    one_big = results["1x4gpu"]
    two_ll = results["2x2gpu_least_loaded"]
    two_rr = results["2x2gpu_round_robin"]
    # Splitting the pool can only lose scheduling flexibility; with a
    # load-aware backend the loss stays modest (statistical multiplexing).
    assert two_ll.function_e2e_sum_s >= one_big.function_e2e_sum_s * 0.95
    assert two_ll.function_e2e_sum_s <= one_big.function_e2e_sum_s * 1.6
    # Load-blind round-robin is no better than least-loaded.
    assert two_rr.function_e2e_sum_s >= two_ll.function_e2e_sum_s * 0.95
