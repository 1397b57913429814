"""Chaos ablation: fault injection vs. liveness and recovery cost.

DGSF's control plane must survive API-server crashes and a lossy guest
link: the monitor detects dead servers through missed §V-A ③ heartbeats,
uncommits their charges, rescues orphaned requests and re-brings the
server up (re-paying the 755 MB idle footprint).  This sweep raises the
per-session crash probability from 0 to 0.2 on top of a lossy link and
checks the two properties that make the fault model trustworthy:

* **liveness** — every invocation reaches a terminal status; nothing
  wedges waiting on a dead server,
* **consistency** — the invariant auditor finds no leaked charges,
  reservations or allocations once the dust settles, and every GPU is
  schedulable again.

Completed work also shouldn't get much slower: survivors pay at most
retry backoff and queue-behind-recovery delays.
"""

import pytest

from repro.core import DgsfConfig, FaultPlan
from repro.experiments import render_table
from repro.experiments.runner import make_plan, run_scenario


def chaos_plan(crash_prob: float) -> FaultPlan:
    return FaultPlan(
        server_crash_prob=crash_prob,
        crash_after_calls=(1, 20),
        link_drop_prob=0.005 if crash_prob > 0 else 0.0,
        delay_spike_prob=0.02 if crash_prob > 0 else 0.0,
        delay_spike_s=0.2,
        partitions=((40.0, 42.0),) if crash_prob > 0 else (),
    )


def run_level(crash_prob: float):
    config = DgsfConfig(
        num_gpus=2,
        api_servers_per_gpu=2,
        seed=3,
        fault_plan=chaos_plan(crash_prob),
        rpc_timeout_s=20.0,
        rpc_max_retries=2,
        rpc_retry_backoff_s=0.5,
    )
    plan = make_plan("exponential", seed=3, copies=2)
    result = run_scenario(config, plan)
    out = result.outcomes
    return {
        "crash_prob": crash_prob,
        "completed": out.counts.get("completed", 0),
        "failed": out.counts.get("failed", 0)
        + out.counts.get("timeout", 0),
        "completion_rate": round(out.completion_rate, 2),
        "crashes": result.crashes_detected,
        "restarts": result.servers_restarted,
        "mean_e2e_s": round(out.mean_completed_e2e_s, 1),
        "all_terminal": out.all_terminal,
        "audit_ok": result.audit.ok,
    }


@pytest.mark.experiment("ablation-faults")
def test_fault_injection_liveness_and_recovery(once):
    def run():
        return [run_level(p) for p in (0.0, 0.05, 0.2)]

    rows = once(run)
    print()
    print(render_table(
        "Chaos ablation — API-server crash probability vs. liveness "
        "(2 GPUs, sharing, lossy link)", rows,
    ))

    by = {r["crash_prob"]: r for r in rows}
    for prob, row in by.items():
        # Liveness + invariants hold at every fault level.
        assert row["all_terminal"], prob
        assert row["audit_ok"], prob
        # Every detected crash was recovered.
        assert row["restarts"] == row["crashes"], prob
    # The fault-free level is a clean baseline: all work completes,
    # nothing crashes, nothing needs restarting.
    assert by[0.0]["completion_rate"] == 1.0
    assert by[0.0]["crashes"] == 0
    # Heavy chaos actually injects faults, and work still gets done.
    assert by[0.2]["crashes"] >= 1
    assert by[0.2]["completed"] >= 1
    # Survivors don't pay an unbounded penalty.  Lost messages cost up to
    # (1 + retries) x 20 s timeouts and queueing behind recovery, so the
    # added latency is real but bounded — well under 10x the clean run.
    assert by[0.2]["mean_e2e_s"] <= 10 * by[0.0]["mean_e2e_s"]
