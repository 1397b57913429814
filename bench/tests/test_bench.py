"""Tests of the benchmark itself: inputs, output format, determinism,
the stack sampler and the comparison tool.

    PYTHONPATH=src python -m pytest bench/tests

The smoke runs use ``--seconds 1``, a twentieth of the ``run_seconds``
that ``BENCHMARK.json`` records, so each workload's input is small.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import plans
import repro
import repro.simcuda.kernels
from repro.simnet.serialization import payload_size
from sampler import LAYERS, StackSampler

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = "1"


def _bench(tmp_path, workload, trace, out="out", cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", SMOKE_SECONDS, "--trace", str(trace),
         "--out", str(tmp_path / out)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return done


def _last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- inputs ---------------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_inputs_are_seed_deterministic_and_differ_across_seeds(name):
    make = plans.WORKLOADS[name].make_input
    assert make(1, 3) == make(1, 3)
    assert make(1, 3) != make(2, 3)


def test_every_declared_workload_exists():
    assert WORKLOAD_NAMES == list(plans.WORKLOADS)


def test_passes_follow_seconds_only():
    wl = plans.WORKLOADS["faas_steady"]
    assert wl.passes(20) == wl.passes(20) > wl.passes(1) == 1
    first, second = wl.pass_input(5, 0), wl.pass_input(5, 1)
    assert first != second
    assert len(first) == wl.steps_per_pass * len(plans.FRAMEWORK_NAMES)


def test_bursts_launch_every_workload_within_the_skew_window():
    plan = plans.faas_burst_plan(seed=4, bursts=3)
    groups = plans.burst_groups(plan)
    assert [len(g) for g in groups] == [6, 6, 6]
    for b, group in enumerate(groups):
        times = [plan.entries[i][0] for i in group]
        assert b * plans.BURST_GAP_S <= min(times) <= max(times) < (
            b * plans.BURST_GAP_S + plans.BURST_SKEW_S)
        assert {plan.entries[i][1] for i in group} == set(plans.WORKLOADS["faas_burst"].functions)


# -- output format and determinism ---------------------------------------------

@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_emits_every_declared_metric_and_repeats_exactly(tmp_path, name):
    first = _bench(tmp_path, name, trace=0, out="a")
    assert first.returncode == 0, first.stdout + first.stderr
    result = _last_json(first)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    traced = _bench(tmp_path, name, trace=1, out="a")
    assert traced.returncode == 0, traced.stdout + traced.stderr
    layers = _last_json(traced)["metrics"]
    assert {k: v["unit"] for k, v in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers["obs.spans_dropped"]["value"] == 0
    shares = sum(layers[f"host.{layer}.share"]["value"] for layer in LAYERS)
    assert abs(shares - 1.0) <= 0.01
    for artifact in ("layers.json", "stacks.folded", "critpath.json"):
        assert (tmp_path / "a" / name / artifact).is_file()

    second = _bench(tmp_path, name, trace=0, out="b")
    assert second.returncode == 0, second.stdout + second.stderr
    a, b = (json.loads((tmp_path / side / name / "result.json").read_text())
            for side in ("a", "b"))
    assert a["sim_digest"] == b["sim_digest"]
    for key in ("e2e_p50_s", "e2e_p90_s"):
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"]
    a["extras"].pop("peak_rss_mb", None), b["extras"].pop("peak_rss_mb", None)
    assert a["extras"] == b["extras"]
    assert a["counts"] == b["counts"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "faas_steady", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- stack sampler ----------------------------------------------------------------

def test_sampler_charges_a_busy_loop_to_its_layer():
    value = {"k": [list(range(50)), {"x": (1.5, "s" * 10)}] * 20}
    with StackSampler(repro.__path__[0]) as sampler:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            payload_size(value)
    shares = sampler.shares()
    assert abs(sum(shares.values()) - 1.0) <= 0.01
    assert shares["simnet"] > 0.8, shares
    assert sampler.payload_share() == 0.0
    stacks = [line.split(" ") for line in sampler.folded_lines()]
    assert all(len(fields) == 2 for fields in stacks)
    assert any("repro.simnet.serialization:payload_size" in stack for stack, _ in stacks)


def test_sampler_classifies_payload_kernels_under_simcuda():
    sampler = StackSampler(repro.__path__[0])
    label, layer, payload = sampler._classify(
        repro.simcuda.kernels._payload_kmeans_assign.__code__)
    assert (label, layer, payload) == (
        "repro.simcuda.kernels:_payload_kmeans_assign", "simcuda", True)
    _, layer, payload = sampler._classify(test_sampler_charges_a_busy_loop_to_its_layer.__code__)
    assert layer is None and payload is False


# -- comparison ---------------------------------------------------------------------

def _report(tmp_path, side, rate, e2e_p50, drain, rss=60.0):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["invocations_per_host_s"]["value"] = rate
    metrics["e2e_p50_s"]["value"] = e2e_p50
    metrics["peak_rss_mb"]["value"] = rss
    extras = {m.name: {"value": value, "unit": m.unit, "better": m.better, "bound": m.bound}
              for m, value in zip(plans.WORKLOADS["faas_burst"].extras, (drain, rss))}
    report = {"metrics": metrics, "checks": [["ok", True, ""]], "sim_digest": 7,
              "extras": extras}
    path = tmp_path / side / "faas_burst"
    path.mkdir(parents=True)
    (path / "result.json").write_text(json.dumps(report))
    return tmp_path / side


def test_compare_passes_within_bounds_and_fails_past_them(tmp_path, capsys):
    base = _report(tmp_path, "base", rate=10.0, e2e_p50=20.0, drain=50.0)
    same = _report(tmp_path, "same", rate=9.7, e2e_p50=20.0, drain=50.0)
    slow = _report(tmp_path, "slow", rate=7.0, e2e_p50=20.0, drain=50.0)
    drained = _report(tmp_path, "drained", rate=10.0, e2e_p50=20.0, drain=51.0)
    # within BENCHMARK.json's 25% RSS bound, past the workload's own 5%
    grown = _report(tmp_path, "grown", rate=10.0, e2e_p50=20.0, drain=50.0, rss=64.0)
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slow)]) == 1
    assert "invocations_per_host_s" in capsys.readouterr().out
    assert compare.main([str(base), str(drained)]) == 1
    assert compare.main([str(base), str(grown)]) == 1


def test_change_direction():
    assert compare.change(10.0, 12.0, "lower", 0.1) == pytest.approx((0.2, True))
    assert compare.change(10.0, 12.0, "higher", 0.1)[1] is False
    assert compare.change(0.0, 0.0, "lower", 0.0) == (0.0, False)
    assert compare.change(0.0, 0.01, "lower", 0.0)[1] is True
