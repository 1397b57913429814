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
import zlib
from pathlib import Path

import pytest

from repro.core.config import DgsfConfig
from repro.experiments.runner import (
    run_scenario,
    run_single_invocation,
    run_single_invocation_traced,
)
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
#: the traced mixed run's trace as (``tracer.digest()``, record count)
MIXED_TRACE = (0xAE79E8B3, 12_507)
#: ``run_single_invocation_traced("kmeans", "dgsf", DgsfConfig(num_gpus=1,
#: seed=0))``'s trace as (``tracer.digest()``, record count)
KMEANS_TRACE = (0x69933182, 224)
#: the same run's ``metrics.as_dict()`` as a CRC32 of its sorted-key JSON
KMEANS_METRICS_CRC = 0x0CBAB3D2
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
#: ``run_single_invocation(name, variant, DgsfConfig(num_gpus=1, seed=0))``
#: under the native and CPU baselines: (e2e, phase dict) per workload
NATIVE_TIMELINES = {
    ("kmeans", "native"): (14.258439185461814, {
        "cuda_init": 3.2000020000000005, "download": 0.9349426628571429,
        "gpu_queue": 0.0, "model_load": 0.02274527182213948,
        "processing": 10.100621250782527}),
    ("covidctnet", "native"): (25.32731898989991, {
        "cuda_init": 3.2000020000000005, "download": 1.0958673371428571,
        "gpu_queue": 0.0, "model_load": 5.011703203556959,
        "processing": 16.019618449200106}),
    ("face_detection", "native"): (19.51388329722807, {
        "cuda_init": 3.2000020000000005, "download": 4.34277524,
        "gpu_queue": 0.0, "model_load": 2.862595232423506,
        "processing": 9.108382824804574}),
    ("face_identification", "native"): (13.265680827566495, {
        "cuda_init": 3.2000019999999996, "download": 5.675986925714286,
        "gpu_queue": 0.0, "model_load": 2.2776524222461862,
        "processing": 2.11191147960602}),
    ("nlp_qa", "native"): (34.54125832008729, {
        "cuda_init": 3.2000020000000005, "download": 4.709003794285714,
        "gpu_queue": 0.0, "model_load": 3.119161094449111,
        "processing": 23.512963431352446}),
    ("image_classification", "native"): (27.05505915120291, {
        "cuda_init": 3.2000020000000005, "download": 5.0090037942857135,
        "gpu_queue": 0.0, "model_load": 2.711602931396463,
        "processing": 16.134322425520743}),
    ("kmeans", "cpu"): (430.0349426628572, {
        "download": 0.9349426628571429, "processing": 429.1}),
    ("covidctnet", "cpu"): (100.29586733714287, {
        "download": 1.0958673371428571, "processing": 99.2}),
    ("face_detection", "cpu"): (75.34277524, {
        "download": 4.34277524, "processing": 71.0}),
    ("face_identification", "cpu"): (47.775986925714285, {
        "download": 5.675986925714286, "processing": 42.1}),
    ("nlp_qa", "cpu"): (351.7090037942857, {
        "download": 4.709003794285714, "processing": 347.0}),
    ("image_classification", "cpu"): (71.70900379428572, {
        "download": 5.0090037942857135, "processing": 66.7}),
}
#: Table V's native column: ``table5._run_native(mb)`` per array size
TABLE5_NATIVE = {
    323: 3.211308286845008,
    3514: 3.2229290718723,
    7802: 3.238544843165633,
    13194: 3.2581810928889663,
}
#: ``harness.run_workload(WORKLOADS[w], 3, 1.0, traced=False)`` per bench
#: workload (what ``bench/run.py --seed 3 --seconds 1`` prints): the
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
    res = run_scenario(DgsfConfig(num_gpus=2, seed=7), plan).require_completed()
    assert res.stats.provider_e2e_s == MIXED_PROVIDER_E2E
    assert res.stats.function_e2e_sum_s == MIXED_FUNCTION_E2E_SUM


def test_every_discipline_timeline_is_bit_identical():
    from repro.experiments.runner import make_plan

    plan = make_plan("exponential", seed=3, copies=4, mean_gap_s=1.5)
    for discipline, (provider_e2e, fn_e2e_sum) in DISCIPLINE_GOLDENS.items():
        cfg = DgsfConfig(num_gpus=2, api_servers_per_gpu=2,
                         queue_discipline=discipline, seed=3)
        res = run_scenario(cfg, plan).require_completed()
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
    res = run_scenario(
        DgsfConfig(num_gpus=2, seed=7, tracing_enabled=True), plan
    ).require_completed()
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
    assert (dep.tracer.digest(), len(dep.tracer.records)) == MIXED_TRACE


def test_trace_digest_does_not_depend_on_process_history():
    """Invocation ids reach the trace (``inv-N`` track names and
    ``invocation_id`` args) and :func:`repro.obs.trace_digest` does not
    renumber them, so they count per platform: a second traced run of
    the same world in this process digests exactly like the first."""
    traces = []
    for _ in range(2):
        _, dep = run_single_invocation_traced(
            "kmeans", "dgsf", DgsfConfig(num_gpus=1, seed=0))
        traces.append((dep.tracer.digest(), len(dep.tracer.records)))
    assert traces == [KMEANS_TRACE, KMEANS_TRACE]


def test_metrics_do_not_depend_on_process_history():
    """Guest numbers label every guest metric and trace ids reach the
    histogram exemplars; a deployment numbers the guests it builds and
    every tracer counts its own ids, so a second traced run of the same
    world in this process has exactly the metrics of the first."""
    crcs = []
    for _ in range(2):
        _, dep = run_single_invocation_traced(
            "kmeans", "dgsf", DgsfConfig(num_gpus=1, seed=0))
        crcs.append(zlib.crc32(
            json.dumps(dep.metrics.as_dict(), sort_keys=True).encode()))
    assert crcs == [KMEANS_METRICS_CRC, KMEANS_METRICS_CRC]


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


def test_native_and_cpu_timelines_are_bit_identical():
    for (name, variant), (e2e, phases) in NATIVE_TIMELINES.items():
        inv = run_single_invocation(name, variant, DgsfConfig(num_gpus=1, seed=0))
        assert inv.e2e_s == e2e, (name, variant)
        assert dict(inv.phases) == phases, (name, variant)


def test_table5_native_runs_are_bit_identical():
    from repro.experiments import table5

    for array_mb, seconds in TABLE5_NATIVE.items():
        assert table5._run_native(array_mb) == seconds, array_mb


#: runs one bench workload the way ``bench/run.py`` does, minus the
#: setup-time probes, and prints what the digest golden checks
_BENCH_DIGEST_SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from harness import run_workload
from plans import WORKLOADS
report = run_workload(WORKLOADS[{workload!r}], 3, 1.0, traced=False)
counts = report["counts"]
print(json.dumps({{
    "sim_digest": report["sim_digest"],
    "failed": counts["n_invocations"] - counts["n_completed"],
    "checks": report["checks"],
}}))
"""


@pytest.mark.parametrize("workload", sorted(BENCH_SIM_DIGESTS))
def test_full_stack_bench_sim_digest_is_bit_identical(workload):
    root = Path(__file__).resolve().parent.parent
    script = _BENCH_DIGEST_SCRIPT.format(
        bench=str(root / "bench"), src=str(root / "src"), workload=workload)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["sim_digest"] == BENCH_SIM_DIGESTS[workload]
    assert result["failed"] == 0
    failing = [name for name, ok, _ in result["checks"] if not ok]
    assert not failing, failing
