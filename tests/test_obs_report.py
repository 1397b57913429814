"""End-to-end observability acceptance tests.

The bar: a traced run exports valid Chrome trace-event JSON whose
per-invocation span tree sums (within rounding) to the invocation's
measured end-to-end latency, with the phase split in the critical-path
row covering >= 95% of wall sim-time — and tracing must not perturb the
simulated timeline at all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import DgsfConfig
from repro.core.stats import summarize_invocations
from repro.experiments.runner import (
    run_single_invocation,
    run_single_invocation_traced,
)
from repro.obs import aggregate_critpaths, bottleneck_table, invocation_critpaths

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def traced_face_id():
    return run_single_invocation_traced("face_identification", "dgsf")


# --- the acceptance bar ------------------------------------------------------

def test_span_tree_sums_to_measured_e2e(traced_face_id):
    inv, dep = traced_face_id
    (row,) = invocation_critpaths(dep.tracer, [inv])
    assert row["e2e_matches_span"] is True
    assert abs(row["e2e_s"] - inv.e2e_s) < 1e-9
    assert row["status"] == "completed"
    assert row["workload"] == "face_identification"


def test_phase_attribution_covers_95_percent(traced_face_id):
    inv, dep = traced_face_id
    (row,) = invocation_critpaths(dep.tracer, [inv])
    assert row["phase_coverage"] >= 0.95
    # phase spans match the invocation's own phase dict exactly
    for name, seconds in inv.phases.items():
        assert row["phases"][name] == pytest.approx(seconds, abs=1e-12)


def test_tracing_does_not_perturb_the_timeline():
    """Bit-identical latency with tracing on vs off (same seed)."""
    baseline = run_single_invocation("kmeans", "dgsf")
    traced, dep = run_single_invocation_traced("kmeans", "dgsf")
    assert traced.e2e_s == baseline.e2e_s
    assert traced.phases == baseline.phases
    assert dep.tracer.dropped == 0


def test_chrome_export_is_valid_and_complete(traced_face_id, tmp_path):
    inv, dep = traced_face_id
    path = tmp_path / "trace.json"
    dep.tracer.dump_chrome(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert phs <= {"M", "X", "i"}
    names = {e["name"] for e in doc["traceEvents"]}
    # every layer shows up: platform root, phases, guest RPC, server exec,
    # GPU queue
    assert "invocation:face_identification" in names
    assert "download" in names and "processing" in names
    assert any(n.startswith("rpc:") for n in names)
    assert any(n.startswith("srv:") for n in names)
    assert "gpu_request" in names


def test_cross_layer_spans_share_the_trace(traced_face_id):
    inv, dep = traced_face_id
    records = dep.tracer.by_trace()[inv.trace_id]
    cats = {r.cat for r in records}
    assert {"invocation", "phase", "rpc", "server", "queue"} <= cats
    root = next(r for r in records if r.cat == "invocation")
    # server spans are stitched in via the propagated wire context
    for r in records:
        if r.cat in ("rpc", "queue"):
            assert r.parent_id == root.span_id


# --- aggregation -------------------------------------------------------------

def test_aggregate_and_table_rows(traced_face_id):
    inv, dep = traced_face_id
    rows = invocation_critpaths(dep.tracer, [inv])
    agg = aggregate_critpaths(rows)
    assert agg["count"] == 1
    assert agg["coverage_min"] >= 0.95
    assert agg["e2e"]["p50"] == pytest.approx(inv.e2e_s)
    assert "face_identification" in agg["workloads"]
    phases = agg["workloads"]["face_identification"]["phases"]
    assert set(phases) == set(inv.phases)
    for name, stats in phases.items():
        assert set(stats) == {"mean", "p50", "p95", "p99"}
        assert stats["p99"] == pytest.approx(inv.phases[name], abs=1e-12)
    table = bottleneck_table(agg)
    assert table and all(
        {"workload", "percentile", "bottleneck", "seconds", "share"} <= set(r)
        for r in table)


def test_aggregate_empty_rows():
    assert aggregate_critpaths([]) == {"count": 0, "workloads": {}}


# --- run summaries and registry totals ---------------------------------------

def test_run_stats_percentiles(traced_face_id):
    inv, _ = traced_face_id
    stats = summarize_invocations([inv])
    assert stats.p50_e2e_s == pytest.approx(inv.e2e_s)
    ws = stats.per_workload["face_identification"]
    assert ws.p95_e2e_s == pytest.approx(inv.e2e_s)
    row = ws.as_row()
    assert {"p50_e2e_s", "p95_e2e_s", "p99_e2e_s"} <= set(row)
    assert {"p50_e2e_s", "p95_e2e_s", "p99_e2e_s"} <= set(stats.as_dict())


def test_cache_stats_from_registry():
    inv, dep = run_single_invocation_traced(
        "kmeans", "dgsf_warm", DgsfConfig(num_gpus=1)
    )
    hits = dep.metrics.total("artifact_cache.hits")
    assert hits > 0
    # the per-server object view and the registry view agree
    summed = sum(
        s.artifact_cache.hits for s in dep.gpu_server.api_servers
        if s.artifact_cache is not None
    )
    assert hits == summed


# --- the CLI -----------------------------------------------------------------

def test_profile_report_cli_smoke(tmp_path):
    out_dir = tmp_path / "prof"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "profile_report.py"),
         "--workload", "kmeans", "--out-dir", str(out_dir),
         "--min-coverage", "0.95"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "trace validation OK" in proc.stdout
    for name in ("trace.json", "critpath.json", "metrics.json"):
        assert (out_dir / name).exists()
    assert not (out_dir / "breakdown.json").exists()
    critpath = json.loads((out_dir / "critpath.json").read_text())
    assert critpath["aggregate"]["coverage_min"] >= 0.95
    (row,) = critpath["per_invocation"]
    assert row["phase_coverage"] >= 0.95
    phases = critpath["aggregate"]["workloads"]["kmeans"]["phases"]
    assert set(phases) == set(row["phases"]) and "processing" in phases


def test_breakdowns_skip_invocations_without_traces(traced_face_id):
    """A workload with zero completed (traced) invocations yields no rows
    and an empty aggregate — never a partial row or a crash."""
    inv, dep = traced_face_id

    class Untraced:
        trace_id = None

    rows = invocation_critpaths(dep.tracer, [Untraced()])
    assert rows == []
    assert aggregate_critpaths(rows) == {"count": 0, "workloads": {}}
    assert bottleneck_table(aggregate_critpaths(rows)) == []
