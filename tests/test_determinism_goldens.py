"""Bit-identical determinism goldens.

These values were captured from the simulator with default flags and no
faults; they must stay *exactly* equal (``==`` on floats, no approx).
Anything that reorders event creation, renames/reorders RNG streams, or
changes the cost model will trip these — which is the point: the async
pipelining and cache layers must be invisible while their flags are off.

If a change is *supposed* to alter the timeline (a cost-model change, a
new mandatory phase), re-capture the constants and say so in the commit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import DgsfConfig
from repro.experiments.runner import run_mixed_scenario, run_single_invocation
from repro.faas.workload_gen import exponential_gap_arrivals
from repro.sim.rng import RngRegistry

FACE_ID_DGSF_E2E = 10.632098228949541
FACE_ID_DGSF_PHASES = {
    "cuda_init": 0.004890598400006496,
    "download": 5.6759869257142865,
    "gpu_queue": 0.004799999999999471,
    "model_load": 1.0790491612278785,
    "processing": 3.8575309260073585,
}
FACE_ID_UNOPT_E2E = 21.95291271165436
KMEANS_DGSF_E2E = 11.361748619862041
MIXED_PROVIDER_E2E = 26.877116275928223
MIXED_FUNCTION_E2E_SUM = 107.12672355760257
#: contended mixed plan (2 GPUs, sharing(2), every workload × 4) per
#: discipline.  fcfs and sff were captured BEFORE the scheduler layer was
#: extracted from the monitor — the extraction must be event-for-event
#: invisible.  sff_aged equals fcfs here because the platform registers
#: no duration hints, so every request's starvation bound is zero and
#: aged SFF conservatively degrades to FCFS.
DISCIPLINE_GOLDENS = {
    "fcfs": (190.80676231822642, 1737.078470391451),
    "sff": (172.8089731872337, 1548.5746535162375),
    "sff_aged": (190.80676231822642, 1737.078470391451),
    "mqfq": (178.45615095292126, 1609.4807497078716),
}
#: Fig. 8's best-fit + migration scenario (seed 0): the one migration as
#: (server, source GPU, target GPU, moved bytes, duration) and each
#: invocation's e2e in submission order
FIG8_MIGRATION_RECORD = (0, 0, 1, 4_120_844_697, 0.9313608859842191)
FIG8_MIGRATION_E2E = [
    54.78045926204719,
    53.996854145915265,
    27.511278428091373,
    47.52649562138205,
]
#: each Table I strategy moving a guest that holds a 64 MB allocation, one
#: cuDNN and one cuBLAS handle from GPU 0 to GPU 1
STRATEGY_DURATIONS = {
    "dgsf": 0.3592552235333333,
    "checkpoint_restore": 0.7120517342094859,
    "peer_access": 0.03500000000000014,
}
#: ``bench/run.py --seed 3 --seconds 1 --trace 0`` per workload: the
#: full-stack ``sim_digest`` (CRC32 of the ordered invocation outcomes
#: plus LLM emission CRCs), guest through simcuda
BENCH_SIM_DIGESTS = {
    "faas_steady": 2977596311,
    "faas_burst": 3318762856,
    "llm_chat": 2815395046,
    "calibration": 3452254978,
}


def test_single_invocation_timeline_is_bit_identical():
    inv = run_single_invocation(
        "face_identification", "dgsf", DgsfConfig(num_gpus=1, seed=0)
    )
    assert inv.e2e_s == FACE_ID_DGSF_E2E
    assert dict(inv.phases) == FACE_ID_DGSF_PHASES


def test_unoptimized_timeline_is_bit_identical():
    inv = run_single_invocation(
        "face_identification", "dgsf_unopt", DgsfConfig(num_gpus=1, seed=0)
    )
    assert inv.e2e_s == FACE_ID_UNOPT_E2E


def test_kmeans_timeline_is_bit_identical():
    inv = run_single_invocation("kmeans", "dgsf", DgsfConfig(num_gpus=1, seed=0))
    assert inv.e2e_s == KMEANS_DGSF_E2E


def test_mixed_scenario_is_bit_identical():
    plan = exponential_gap_arrivals(
        ["face_identification", "kmeans"] * 3,
        mean_gap_s=2.0,
        rng=RngRegistry(seed=7).stream("arrivals"),
    )
    res = run_mixed_scenario(DgsfConfig(num_gpus=2, seed=7), plan)
    assert res.stats.provider_e2e_s == MIXED_PROVIDER_E2E
    assert res.stats.function_e2e_sum_s == MIXED_FUNCTION_E2E_SUM


def test_every_discipline_timeline_is_bit_identical():
    from repro.experiments.runner import make_plan

    plan = make_plan("exponential", seed=3, copies=4, mean_gap_s=1.5)
    for discipline, (provider_e2e, fn_e2e_sum) in DISCIPLINE_GOLDENS.items():
        cfg = DgsfConfig(num_gpus=2, api_servers_per_gpu=2,
                         queue_discipline=discipline, seed=3)
        res = run_mixed_scenario(cfg, plan)
        assert res.stats.provider_e2e_s == provider_e2e, discipline
        assert res.stats.function_e2e_sum_s == fn_e2e_sum, discipline


def test_repeat_run_reproduces_itself():
    a = run_single_invocation("kmeans", "dgsf", DgsfConfig(num_gpus=1, seed=3))
    b = run_single_invocation("kmeans", "dgsf", DgsfConfig(num_gpus=1, seed=3))
    assert a.e2e_s == b.e2e_s
    assert dict(a.phases) == dict(b.phases)


def test_mixed_scenario_with_full_observability_is_bit_identical():
    """Tracing + the always-attached SLO engine + critical-path analysis
    are pure bookkeeping: with every observability layer active the mixed
    timeline must still match the goldens bit for bit."""
    from repro.obs import invocation_critpaths

    plan = exponential_gap_arrivals(
        ["face_identification", "kmeans"] * 3,
        mean_gap_s=2.0,
        rng=RngRegistry(seed=7).stream("arrivals"),
    )
    res = run_mixed_scenario(
        DgsfConfig(num_gpus=2, seed=7, tracing_enabled=True), plan
    )
    assert res.stats.provider_e2e_s == MIXED_PROVIDER_E2E
    assert res.stats.function_e2e_sum_s == MIXED_FUNCTION_E2E_SUM
    # the SLO engine streamed the whole run without injecting sim events
    dep = res.deployment
    assert dep.slo is not None
    assert dep.metrics.total("invocation.status") == len(res.invocations)
    # offline critical-path extraction meets the attribution bar on the
    # exact timeline the goldens pin
    rows = invocation_critpaths(dep.tracer, res.invocations)
    assert len(rows) == len(res.invocations)
    assert all(row["coverage"] >= 0.95 for row in rows)


def test_fig8_migration_timeline_is_bit_identical():
    from repro.core.deployment import DgsfDeployment
    from repro.experiments.fig8 import SCENARIOS
    from repro.workloads import register_workloads

    overrides = dict(SCENARIOS)["sharing2_best_fit_migration"]
    dep = DgsfDeployment(DgsfConfig(num_gpus=2, seed=0, **overrides))
    dep.setup()
    register_workloads(dep.platform, names=["nlp_qa", "image_classification"])
    started = [
        dep.platform.invoke(name)
        for name in ("nlp_qa", "nlp_qa", "image_classification", "image_classification")
    ]
    dep.env.run(until=dep.env.all_of([proc for _, proc in started]))
    [record] = dep.gpu_server.monitor.migration_records
    assert (
        record.server_id, record.source_device, record.target_device,
        record.moved_bytes, record.duration_s,
    ) == FIG8_MIGRATION_RECORD
    assert [inv.e2e_s for inv, _ in started] == FIG8_MIGRATION_E2E


def test_every_migration_strategy_duration_is_bit_identical():
    from repro.core.migration_strategies import MIGRATION_STRATEGIES
    from repro.simcuda.types import MB
    from repro.testing import make_world

    for name, strategy in MIGRATION_STRATEGIES.items():
        world = make_world(DgsfConfig(num_gpus=2))
        guest, server, rpc = world.attach_guest()
        world.drive(guest.cudaMalloc(64 * MB))
        world.drive(guest.cudnnCreate())
        world.drive(guest.cublasCreate())
        outcome = world.drive(strategy(server, 1))
        assert outcome.duration_s == STRATEGY_DURATIONS[name], name


@pytest.mark.parametrize("workload", sorted(BENCH_SIM_DIGESTS))
def test_full_stack_bench_sim_digest_is_bit_identical(workload, tmp_path):
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads((tmp_path / workload / "result.json").read_text())
    assert result["sim_digest"] == BENCH_SIM_DIGESTS[workload]
    assert json.loads(done.stdout.splitlines()[-1])["failed"] == 0
