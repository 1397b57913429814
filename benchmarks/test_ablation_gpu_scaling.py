"""Ablation: GPU-count elasticity of one GPU server (§IV).

"For our evaluation we use one GPU server with four GPUs, but AWS
provides machines with up to eight GPUs."  Disaggregation's provisioning
promise: the provider scales the GPU pool independently of the function
fleet.  We sweep the GPU count under a fixed heavy arrival plan.
"""

import pytest

from repro.core import DgsfConfig
from repro.experiments import render_table
from repro.experiments.runner import make_plan, run_scenario
from repro.workloads import SMALLER_WORKLOAD_NAMES


@pytest.mark.experiment("ablation-gpu-scaling")
def test_gpu_count_sweep(once):
    def run():
        plan = make_plan("exponential", seed=4, copies=6,
                         names=SMALLER_WORKLOAD_NAMES, mean_gap_s=1.5)
        rows = []
        for gpus in (1, 2, 4, 8):
            cfg = DgsfConfig(num_gpus=gpus, api_servers_per_gpu=1, seed=4)
            result = run_scenario(cfg, plan).require_completed()
            mean_queue = sum(
                ws.mean_queue_s * ws.count
                for ws in result.stats.per_workload.values()
            ) / len(result.invocations)
            rows.append({
                "gpus": gpus,
                "provider_e2e_s": round(result.stats.provider_e2e_s, 1),
                "fn_e2e_sum_s": round(result.stats.function_e2e_sum_s, 1),
                "mean_queue_s": round(mean_queue, 2),
            })
        return rows

    rows = once(run)
    print()
    print(render_table(
        "Ablation — GPU pool size under a fixed heavy arrival plan "
        "(smaller workloads, 24 invocations)",
        rows,
    ))

    by = {r["gpus"]: r for r in rows}
    # More GPUs monotonically reduce queueing and total function E2E.
    for a, b in ((1, 2), (2, 4), (4, 8)):
        assert by[b]["mean_queue_s"] <= by[a]["mean_queue_s"] + 0.01, (a, b)
        assert by[b]["fn_e2e_sum_s"] <= by[a]["fn_e2e_sum_s"] + 0.1, (a, b)
    # Severe contention at 1 GPU, near-zero queueing at 8.
    assert by[1]["mean_queue_s"] > 10 * max(by[8]["mean_queue_s"], 0.2)
    # Diminishing returns: the 4→8 step helps less than 1→2.
    gain_12 = by[1]["fn_e2e_sum_s"] - by[2]["fn_e2e_sum_s"]
    gain_48 = by[4]["fn_e2e_sum_s"] - by[8]["fn_e2e_sum_s"]
    assert gain_12 > gain_48
