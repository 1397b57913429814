"""Unit + integration tests for critical-path extraction (repro.obs.critpath)."""

import pytest

from repro.core.config import DgsfConfig
from repro.experiments.runner import run_single_invocation_traced
from repro.obs import (
    Tracer,
    aggregate_critpaths,
    bottleneck_table,
    critical_path,
    critpath_report,
    dump_folded,
    folded_stacks,
    invocation_critpaths,
)
from repro.obs.critpath import RESOURCES, resource_of
from repro.sim import Environment


def make_tracer():
    return Tracer(Environment())


def build_tree(tracer):
    """Hand-built invocation: root [0, 10] with
    platform_queue [0,1], download [1,3], gpu_queue [3,4],
    processing [4,10] containing rpc [5,8] containing
    xfer [5,6] and srv [6,7.5]."""
    trace_id = tracer.new_trace_id()
    root = tracer.begin("invocation:w", cat="invocation", pid="invocations",
                        tid="inv-1", trace_id=trace_id,
                        workload="w", invocation_id=1)
    c = root.child_complete
    c("platform_queue", 0.0, 1.0, cat="phase")
    c("download", 1.0, 3.0, cat="phase")
    c("gpu_queue", 3.0, 4.0, cat="phase")
    c("processing", 4.0, 10.0, cat="phase")
    c("rpc:launch", 5.0, 8.0, cat="rpc")
    c("xfer:RpcRequest", 5.0, 6.0, cat="net")
    c("srv:launch", 6.0, 7.5, cat="server")
    tracer.env.run(until=10.0)
    root.end(status="completed")
    return trace_id


# --- resource classification -------------------------------------------------

def test_resource_of_phase_and_cats():
    tracer = make_tracer()
    build_tree(tracer)
    by_name = {r.name: r for r in tracer.records}
    assert resource_of(by_name["platform_queue"]) == "queue"
    assert resource_of(by_name["gpu_queue"]) == "queue"
    assert resource_of(by_name["download"]) == "object_store"
    assert resource_of(by_name["processing"]) == "cpu"
    assert resource_of(by_name["rpc:launch"]) == "serialization"
    assert resource_of(by_name["xfer:RpcRequest"]) == "wire"
    assert resource_of(by_name["srv:launch"]) == "gpu_compute"


# --- sweep -------------------------------------------------------------------

def test_critical_path_innermost_span_wins():
    tracer = make_tracer()
    trace_id = build_tree(tracer)
    segments = critical_path(tracer.by_trace()[trace_id])
    # segments partition the root exactly
    assert segments[0].t_start == 0.0 and segments[-1].t_end == 10.0
    for a, b in zip(segments, segments[1:]):
        assert a.t_end == b.t_start
    by_resource = {}
    for seg in segments:
        by_resource[seg.resource] = by_resource.get(seg.resource, 0.0) + seg.duration_s
    assert by_resource == pytest.approx({
        "queue": 2.0,            # platform_queue + gpu_queue
        "object_store": 2.0,     # download
        "cpu": 1.0 + 2.0,        # processing outside the rpc ([4,5] + [8,10])
        "serialization": 0.5,    # rpc gap not covered by xfer/srv ([7.5,8])
        "wire": 1.0,             # xfer
        "gpu_compute": 1.5,      # srv
    })
    # the nested interval carries the full stack, outermost first
    srv_seg = next(s for s in segments if s.resource == "gpu_compute")
    assert srv_seg.stack == (
        "invocation:w", "processing", "rpc:launch", "srv:launch")


def test_critical_path_clips_spans_to_root_extent():
    tracer = make_tracer()
    trace_id = tracer.new_trace_id()
    root = tracer.begin("invocation:w", cat="invocation", trace_id=trace_id)
    # teardown RPC that outlives the root must be clipped at t=4
    root.child_complete("rpc:detach", 3.0, 6.0, cat="rpc")
    tracer.env.run(until=4.0)
    root.end()
    segments = critical_path(tracer.by_trace()[trace_id])
    assert segments[-1].t_end == 4.0
    rpc = next(s for s in segments if s.resource == "serialization")
    assert (rpc.t_start, rpc.t_end) == (3.0, 4.0)


def test_critical_path_empty_without_root():
    tracer = make_tracer()
    tracer.complete("rpc:x", 0.0, 1.0, cat="rpc", trace_id=7)
    assert critical_path(tracer.by_trace()[7]) == []


# --- per-invocation rows and aggregation -------------------------------------

def test_invocation_critpaths_rows_and_coverage():
    tracer = make_tracer()
    build_tree(tracer)
    (row,) = invocation_critpaths(tracer)
    assert row["workload"] == "w" and row["status"] == "completed"
    assert row["e2e_s"] == 10.0
    assert row["attributed_s"] == pytest.approx(10.0)
    assert row["coverage"] == pytest.approx(1.0)
    assert row["dominant"] == "cpu"
    assert set(row["resources"]) == set(RESOURCES)
    # the phase split is the root's phase children, not the sweep
    assert row["phases"] == {"platform_queue": 1.0, "download": 2.0,
                             "gpu_queue": 1.0, "processing": 6.0}
    assert row["phase_coverage"] == 1.0
    assert row["rpc_mix"] == {"rpc:launch": 1}


def test_uncovered_root_time_counts_against_coverage():
    tracer = make_tracer()
    trace_id = tracer.new_trace_id()
    root = tracer.begin("invocation:w", cat="invocation", trace_id=trace_id,
                        workload="w", invocation_id=2)
    root.child_complete("download", 0.0, 6.0, cat="phase")
    tracer.env.run(until=10.0)
    root.end()
    (row,) = invocation_critpaths(tracer)
    # [6, 10] is root-only: attributed to cpu but NOT covered
    assert row["coverage"] == pytest.approx(0.6)
    assert row["resources"]["object_store"] == pytest.approx(6.0)
    assert row["resources"]["cpu"] == pytest.approx(4.0)
    assert row["phase_coverage"] == pytest.approx(0.6)


def test_aggregate_and_bottleneck_table():
    tracer = make_tracer()
    build_tree(tracer)
    rows = invocation_critpaths(tracer)
    agg = aggregate_critpaths(rows)
    assert agg["count"] == 1
    assert agg["workloads"]["w"]["top_bottleneck"]["p50"] == "cpu"
    assert agg["workloads"]["w"]["phases"]["processing"] == {
        "mean": 6.0, "p50": 6.0, "p95": 6.0, "p99": 6.0}
    assert agg["e2e"]["p99"] == 10.0
    table = bottleneck_table(agg)
    assert {(r["workload"], r["percentile"]) for r in table} == {
        ("w", "p50"), ("w", "p95")}
    assert aggregate_critpaths([]) == {"count": 0, "workloads": {}}


def test_critpath_report_flags_violations():
    tracer = make_tracer()
    trace_id = tracer.new_trace_id()
    root = tracer.begin("invocation:w", cat="invocation", trace_id=trace_id,
                        workload="w", invocation_id=3)
    root.child_complete("download", 0.0, 1.0, cat="phase")
    tracer.env.run(until=10.0)
    root.end()
    report = critpath_report(tracer, min_coverage=0.95)
    assert len(report["violations"]) == 1
    assert "coverage" in report["violations"][0]


# --- folded export -----------------------------------------------------------

def test_folded_stacks_and_dump(tmp_path):
    tracer = make_tracer()
    build_tree(tracer)
    stacks = folded_stacks(tracer)
    assert stacks["invocation:w;download"] == pytest.approx(2.0)
    assert stacks[
        "invocation:w;processing;rpc:launch;srv:launch"
    ] == pytest.approx(1.5)
    path = tmp_path / "flame.folded"
    n = dump_folded(stacks, path)
    lines = path.read_text().splitlines()
    assert len(lines) == n == len(stacks)
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack and int(weight) >= 1
    assert "invocation:w;download 2000000" in lines


# --- end-to-end over a real traced run ---------------------------------------

def test_real_invocation_attribution_covers_e2e():
    inv, dep = run_single_invocation_traced(
        "kmeans", "dgsf", DgsfConfig(num_gpus=1, seed=0)
    )
    (row,) = invocation_critpaths(dep.tracer, [inv])
    assert row["coverage"] >= 0.95
    assert sum(row["resources"].values()) == pytest.approx(inv.e2e_s)
    # an uncontended kmeans run is compute-bound
    assert row["dominant"] == "gpu_compute"
    # wire time is visible now that xfer spans join the trace
    assert row["resources"]["wire"] > 0.0
