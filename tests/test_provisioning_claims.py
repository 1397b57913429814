"""The §II, §IV and §V-A ③ claims, checked on BENCH_provisioning.json
without simulating: the committed rows pass :func:`provisioning.check`,
and a copy that breaks one claim of one section fails it by name."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments import provisioning

BASELINE = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_provisioning.json")
    .read_text()
)
SECTIONS = {name: BASELINE[name] for name in provisioning.GATES}


def test_committed_baseline_holds_every_claim():
    provisioning.check(SECTIONS)


def _row(rows, **match):
    (row,) = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return row


def _set(section, fields, **match):
    def doctor(sections):
        _row(sections[section], **match).update(fields)
    return doctor


@pytest.mark.parametrize("doctor, claim", [
    (_set("utilization", {"gpu_utilization_pct": 15.0}, batch_size=1),
     "§II: batch 1 keeps the GPU under 15% busy"),
    (_set("utilization", {"gpu_utilization_pct": 15.0}, batch_size=16),
     "§II: utilization grows with the batch size"),
    (_set("utilization", {"gpu_utilization_pct": 40.0}, batch_size=64),
     "§II: batch 64 keeps the GPU over 40% busy"),
    (_set("utilization", {"inference_s": 24.0}, batch_size=64),
     "§II: batch 64 finishes the samples before batch 1"),
    (_set("gpu_count", {"mean_queue_s": 25.0}, gpus=8),
     "§IV: 8 GPUs queue no longer than 4"),
    (_set("gpu_count", {"fn_e2e_sum_s": 2100.0}, gpus=4),
     "§IV: 4 GPUs take no more total function E2E than 2"),
    (_set("gpu_count", {"mean_queue_s": 15.0}, gpus=8),
     "§IV: 1 GPU queues over 10x as long as 8"),
    (_set("gpu_count", {"fn_e2e_sum_s": 2006.8, "mean_queue_s": 63.3},
          gpus=1),
     "§IV: going from 4 to 8 GPUs saves less total function E2E than "
     "going from 1 to 2"),
    (_set("gpu_servers", {"fn_e2e_sum_s": 900.0},
          config="2x2gpu_least_loaded"),
     "§IV: two least-loaded 2-GPU servers take at least 0.95x one 4-GPU "
     "server's total function E2E"),
    (_set("gpu_servers", {"fn_e2e_sum_s": 1700.0},
          config="2x2gpu_least_loaded"),
     "§IV: two least-loaded 2-GPU servers take at most 1.6x one 4-GPU "
     "server's total function E2E"),
    (_set("gpu_servers", {"fn_e2e_sum_s": 980.0},
          config="2x2gpu_round_robin"),
     "§IV: round-robin takes at least 0.95x least-loaded's total function "
     "E2E"),
    (_set("faults", {"all_terminal": False}, crash_prob=0.05),
     "§V-A: every invocation ends terminal at crash probability 0.05"),
    (_set("faults", {"audit_ok": False}, crash_prob=0.2),
     "§V-A: the end-state audit is clean at crash probability 0.2"),
    (_set("faults", {"restarts": 2}, crash_prob=0.2),
     "§V-A: every crash is restarted at crash probability 0.2"),
    (_set("faults", {"completion_rate": 0.92}, crash_prob=0.0),
     "§V-A: the fault-free run completes every invocation"),
    (_set("faults", {"crashes": 1, "restarts": 1}, crash_prob=0.0),
     "§V-A: the fault-free run never crashes"),
    (_set("faults", {"crashes": 0, "restarts": 0}, crash_prob=0.2),
     "§V-A: crash probability 0.2 crashes a server"),
    (_set("faults", {"completed": 0}, crash_prob=0.2),
     "§V-A: crash probability 0.2 still completes work"),
    (_set("faults", {"mean_e2e_s": 449.0}, crash_prob=0.2),
     "§V-A: survivors at crash probability 0.2 pay at most 10x the clean "
     "mean E2E"),
], ids=[
    "util-batch1", "util-monotone", "util-batch64", "util-sooner",
    "count-queue", "count-e2e", "count-contention", "count-diminishing",
    "servers-ll_floor", "servers-ll_ceiling", "servers-rr",
    "faults-terminal", "faults-audit", "faults-restarts",
    "faults-clean_completes", "faults-clean_no_crash", "faults-crashes",
    "faults-completes", "faults-survivors",
])
def test_a_broken_claim_is_named(doctor, claim):
    sections = copy.deepcopy(SECTIONS)
    doctor(sections)
    with pytest.raises(SimulationError) as err:
        provisioning.check(sections)
    assert claim in str(err.value)
