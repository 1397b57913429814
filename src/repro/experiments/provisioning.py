"""§II utilization, §IV GPU provisioning and §V-A ③ crash recovery from
one set of runs.

* ``utilization`` (§II): "small batch sizes can lead the GPU to
  utilization under 15%", the under-utilization that motivates sharing
  GPUs across functions.  The same 256 samples run through an ONNX-style
  session on one dedicated GPU at batch sizes 1, 4, 16 and 64.  Per-batch
  host work (pre/post-processing, feed marshalling) is constant while GPU
  work scales with the batch, so small batches starve the GPU.  It draws
  no plan, so its rows do not depend on the seed.
* ``gpu_count`` (§IV): "For our evaluation we use one GPU server with
  four GPUs, but AWS provides machines with up to eight GPUs."  One heavy
  arrival plan of the smaller workloads (6 copies each, exponential gaps
  of 1.5 s mean) on one GPU server with 1, 2, 4 and 8 GPUs, no sharing.
  More GPUs cut queueing and total function E2E, with diminishing
  returns.
* ``gpu_servers`` (§IV: "Scaling up GPU servers in DGSF is simple"): the
  same plan on two 2-GPU servers behind the backend, routed least-loaded
  and round-robin, against one 4-GPU server.  That server's row is
  ``gpu_count``'s 4-GPU run, whose configuration is identical, so §IV
  simulates 6 plan worlds.  Splitting the pool behind a load-aware
  backend costs little.  Load-blind round-robin costs little more, if
  anything: over seeds 0-4 its total E2E is within -0.2%...+1.9% of
  least-loaded's, and lower at seeds 1 and 4.  So the check bounds it
  only from below.
* ``faults`` (§V-A ③): the per-session API-server crash probability
  rises from 0 to 0.05 and 0.2 on top of a lossy link (drops, delay
  spikes, a partition), on 2 GPUs with sharing(2), RPC timeouts and
  retries.  The monitor detects dead servers by missed heartbeats,
  uncommits their charges, re-queues their requests and brings them back
  up.  At every level each invocation ends terminal, the invariant
  auditor finds the end state clean, and every crash is restarted.
  Survivors at 0.2 pay at most 10x the clean run's mean E2E: lost
  messages cost up to (1 + retries) 20 s timeouts plus queueing behind
  recovery.  That bound holds at seeds 0, 2 and 3 but not at seed 1
  (470.2 vs 36.2 s, 13x), so it is a claim of the committed seed only.

Every plan is drawn at the seed; ``copies`` is unused, since every run
has a fixed size.  The simulation is deterministic per seed, so each
configuration runs once.  :func:`sections` ends with :func:`check`,
which raises :class:`SimulationError` naming the first claim of these
results that the rows break.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig
from repro.core.faults import FaultPlan
from repro.errors import SimulationError
from repro.experiments.runner import make_plan, run_scenario
from repro.mllib import ModelSpec, OnnxInferenceSession
from repro.simcuda.types import GB, MB
from repro.testing import make_world
from repro.workloads import SMALLER_WORKLOAD_NAMES

__all__ = ["sections", "check", "EXPERIMENT", "GATES"]

#: ``BENCH_provisioning.json``: experiment id and its gates (the fault
#: sweep's outcome counts and verdicts exact; seconds, utilization and
#: rates banded)
EXPERIMENT = "provisioning"
GATES = {
    "utilization": {"key": ["batch_size"], "exact": [], "ignore": []},
    "gpu_count": {"key": ["gpus"], "exact": [], "ignore": []},
    "gpu_servers": {"key": ["config"], "exact": [], "ignore": []},
    "faults": {"key": ["crash_prob"],
               "exact": ["completed", "failed", "crashes", "restarts",
                         "all_terminal", "audit_ok"],
               "ignore": []},
}

#: §II: samples per batch-size run, the batch sizes, GPU work per sample
#: and fixed host work per batch
TOTAL_SAMPLES = 256
BATCH_SIZES = (1, 4, 16, 64)
PER_SAMPLE_GPU_S = 0.004
PER_BATCH_HOST_S = 0.080
#: §IV's plan: copies per smaller workload and the mean arrival gap
PLAN_COPIES = 6
PLAN_GAP_S = 1.5
#: §IV's GPU counts on one server
GPU_COUNTS = (1, 2, 4, 8)
#: §IV's scale-out: two 2-GPU servers per backend policy
SPLIT_SERVERS = {
    f"2x2gpu_{policy}": dict(num_gpus=2, num_gpu_servers=2,
                             backend_policy=policy)
    for policy in ("least_loaded", "round_robin")
}
#: §V-A ③'s per-session API-server crash probabilities
CRASH_PROBS = (0.0, 0.05, 0.2)


def _batch_spec(batch_size: int) -> ModelSpec:
    return ModelSpec(
        name=f"resnet-b{batch_size}",
        weight_bytes=97 * MB,
        workspace_bytes=512 * MB,
        n_layers=53,
        load_descriptor_calls=50,
        infer_descriptor_calls=4,
        launches_per_batch=8,
        cudnn_ops_per_batch=6,
        cublas_ops_per_batch=2,
        batch_work_s=PER_SAMPLE_GPU_S * batch_size,
        gpu_demand=min(1.0, 0.1 + 0.015 * batch_size),
        host_work_per_batch_s=PER_BATCH_HOST_S,
        load_work_s=0.2,
    )


def _utilization_row(batch_size: int) -> dict:
    """§II: the samples at one batch size on a dedicated GPU, timed and
    NVML-measured from after the model load."""
    world = make_world(DgsfConfig(num_gpus=1))
    guest, _, _ = world.attach_guest(declared_bytes=2 * GB)
    session = OnnxInferenceSession(world.env, guest, _batch_spec(batch_size))
    world.drive(session.load())
    t0 = world.env.now
    for _ in range(TOTAL_SAMPLES // batch_size):
        world.drive(session.run(input_bytes=batch_size * 600_000))
    gpu = world.gpu_server.devices[0]
    return {
        "batch_size": batch_size,
        "gpu_utilization_pct": round(gpu.utilization(t0, world.env.now)
                                     * 100.0, 1),
        "inference_s": round(world.env.now - t0, 2),
    }


def _plan_row(result) -> dict:
    stats = result.stats
    queued = sum(ws.mean_queue_s * ws.count
                 for ws in stats.per_workload.values())
    return {
        "provider_e2e_s": round(stats.provider_e2e_s, 1),
        "fn_e2e_sum_s": round(stats.function_e2e_sum_s, 1),
        "mean_queue_s": round(queued / len(result.invocations), 2),
    }


def _chaos(crash_prob: float) -> FaultPlan:
    lossy = crash_prob > 0
    return FaultPlan(
        server_crash_prob=crash_prob,
        crash_after_calls=(1, 20),
        link_drop_prob=0.005 if lossy else 0.0,
        delay_spike_prob=0.02 if lossy else 0.0,
        delay_spike_s=0.2,
        partitions=((40.0, 42.0),) if lossy else (),
    )


def _fault_row(crash_prob: float, seed: int) -> dict:
    config = DgsfConfig(num_gpus=2, api_servers_per_gpu=2, seed=seed,
                        fault_plan=_chaos(crash_prob), rpc_timeout_s=20.0,
                        rpc_max_retries=2, rpc_retry_backoff_s=0.5)
    result = run_scenario(config, make_plan("exponential", seed=seed,
                                            copies=2))
    out = result.outcomes
    return {
        "crash_prob": crash_prob,
        "completed": out.counts.get("completed", 0),
        "failed": out.counts.get("failed", 0) + out.counts.get("timeout", 0),
        "completion_rate": round(out.completion_rate, 2),
        "crashes": result.crashes_detected,
        "restarts": result.servers_restarted,
        "mean_e2e_s": round(out.mean_completed_e2e_s, 1),
        "all_terminal": out.all_terminal,
        "audit_ok": result.audit.ok,
    }


def sections(seed: int = 0, copies: int = 0) -> dict[str, list[dict]]:
    """``BENCH_provisioning.json``'s sections.  ``copies`` is unused:
    every run has a fixed size."""
    plan = make_plan("exponential", seed, copies=PLAN_COPIES,
                     names=SMALLER_WORKLOAD_NAMES, mean_gap_s=PLAN_GAP_S)

    def plan_row(**fields) -> dict:
        config = DgsfConfig(seed=seed, api_servers_per_gpu=1, **fields)
        return _plan_row(run_scenario(config, plan).require_completed())

    by_gpus = {gpus: plan_row(num_gpus=gpus) for gpus in GPU_COUNTS}
    out = {
        "utilization": [_utilization_row(size) for size in BATCH_SIZES],
        "gpu_count": [{"gpus": gpus, **row} for gpus, row in by_gpus.items()],
        "gpu_servers": [{"config": "1x4gpu", **by_gpus[4]}] + [
            {"config": label, **plan_row(**fields)}
            for label, fields in SPLIT_SERVERS.items()],
        "faults": [_fault_row(prob, seed) for prob in CRASH_PROBS],
    }
    check(out)
    return out


def _claim(holds: bool, claim: str) -> None:
    if not holds:
        raise SimulationError(f"provisioning claim broken: {claim}")


def check(sections: dict[str, list[dict]]) -> None:
    """Raise :class:`SimulationError` naming the first broken claim.

    Reads only the rows :func:`sections` returns, so a committed
    ``BENCH_provisioning.json`` can be checked without simulating.
    """
    # §II: batch-1 inference leaves the GPU under 15% busy, utilization
    # grows with the batch, and large batches finish the samples sooner.
    util = {row["batch_size"]: row for row in sections["utilization"]}
    pcts = [util[size]["gpu_utilization_pct"] for size in BATCH_SIZES]
    one, big = util[BATCH_SIZES[0]], util[BATCH_SIZES[-1]]
    _claim(pcts[0] < 15.0,
           f"§II: batch 1 keeps the GPU under 15% busy ({pcts[0]}%)")
    _claim(all(a < b for a, b in zip(pcts, pcts[1:])),
           f"§II: utilization grows with the batch size ({pcts}% at "
           f"batch sizes {list(BATCH_SIZES)})")
    _claim(pcts[-1] > 40.0,
           f"§II: batch {BATCH_SIZES[-1]} keeps the GPU over 40% busy "
           f"({pcts[-1]}%)")
    _claim(big["inference_s"] < one["inference_s"],
           f"§II: batch {BATCH_SIZES[-1]} finishes the samples before "
           f"batch 1 ({big['inference_s']} vs {one['inference_s']} s)")

    # §IV: every added GPU cuts queueing and total function E2E; one GPU
    # queues severely, eight barely; the 4 -> 8 step gains less than
    # 1 -> 2.
    count = {row["gpus"]: row for row in sections["gpu_count"]}
    for fewer, more in zip(GPU_COUNTS, GPU_COUNTS[1:]):
        a, b = count[fewer], count[more]
        _claim(b["mean_queue_s"] <= a["mean_queue_s"] + 0.01,
               f"§IV: {more} GPUs queue no longer than {fewer} "
               f"({b['mean_queue_s']} vs {a['mean_queue_s']} s)")
        _claim(b["fn_e2e_sum_s"] <= a["fn_e2e_sum_s"] + 0.1,
               f"§IV: {more} GPUs take no more total function E2E than "
               f"{fewer} ({b['fn_e2e_sum_s']} vs {a['fn_e2e_sum_s']} s)")
    _claim(count[1]["mean_queue_s"] > 10 * max(count[8]["mean_queue_s"], 0.2),
           f"§IV: 1 GPU queues over 10x as long as 8 "
           f"({count[1]['mean_queue_s']} vs {count[8]['mean_queue_s']} s)")
    gain_12 = count[1]["fn_e2e_sum_s"] - count[2]["fn_e2e_sum_s"]
    gain_48 = count[4]["fn_e2e_sum_s"] - count[8]["fn_e2e_sum_s"]
    _claim(gain_12 > gain_48,
           f"§IV: going from 4 to 8 GPUs saves less total function E2E "
           f"than going from 1 to 2 ({gain_48:.1f} vs {gain_12:.1f} s)")

    # §IV scale-out: splitting the pool behind a least-loaded backend
    # costs little (it loses some scheduling flexibility), and
    # round-robin is not much better than least-loaded.
    servers = {row["config"]: row["fn_e2e_sum_s"]
               for row in sections["gpu_servers"]}
    one_big = servers["1x4gpu"]
    ll = servers["2x2gpu_least_loaded"]
    rr = servers["2x2gpu_round_robin"]
    _claim(ll >= 0.95 * one_big,
           f"§IV: two least-loaded 2-GPU servers take at least 0.95x one "
           f"4-GPU server's total function E2E ({ll} vs {one_big} s)")
    _claim(ll <= 1.6 * one_big,
           f"§IV: two least-loaded 2-GPU servers take at most 1.6x one "
           f"4-GPU server's total function E2E ({ll} vs {one_big} s)")
    _claim(rr >= 0.95 * ll,
           f"§IV: round-robin takes at least 0.95x least-loaded's total "
           f"function E2E ({rr} vs {ll} s)")

    # §V-A ③: liveness, a clean audit and full recovery at every level;
    # the fault-free level is a clean baseline, heavy chaos injects
    # crashes and still gets work done, and survivors pay a bounded
    # penalty.
    faults = {row["crash_prob"]: row for row in sections["faults"]}
    for prob, row in faults.items():
        _claim(row["all_terminal"],
               f"§V-A: every invocation ends terminal at crash "
               f"probability {prob}")
        _claim(row["audit_ok"],
               f"§V-A: the end-state audit is clean at crash probability "
               f"{prob}")
        _claim(row["restarts"] == row["crashes"],
               f"§V-A: every crash is restarted at crash probability "
               f"{prob} ({row['restarts']} restarts, {row['crashes']} "
               f"crashes)")
    clean, heavy = faults[CRASH_PROBS[0]], faults[CRASH_PROBS[-1]]
    _claim(clean["completion_rate"] == 1.0,
           f"§V-A: the fault-free run completes every invocation "
           f"({clean['completion_rate']})")
    _claim(clean["crashes"] == 0,
           f"§V-A: the fault-free run never crashes "
           f"({clean['crashes']} crashes)")
    _claim(heavy["crashes"] >= 1,
           f"§V-A: crash probability {CRASH_PROBS[-1]} crashes a server "
           f"({heavy['crashes']} crashes)")
    _claim(heavy["completed"] >= 1,
           f"§V-A: crash probability {CRASH_PROBS[-1]} still completes "
           f"work ({heavy['completed']} completed)")
    _claim(heavy["mean_e2e_s"] <= 10 * clean["mean_e2e_s"],
           f"§V-A: survivors at crash probability {CRASH_PROBS[-1]} pay "
           f"at most 10x the clean mean E2E ({heavy['mean_e2e_s']} vs "
           f"{clean['mean_e2e_s']} s)")
