"""Unit tests for the repro.obs span tracer and Chrome export."""

import json

import pytest

from repro.obs import Tracer
from repro.sim import Environment


def make_tracer(**kw):
    return Tracer(Environment(), **kw)


# --- span lifecycle ----------------------------------------------------------

def test_begin_end_records_span():
    tracer = make_tracer()
    span = tracer.begin("work", cat="test", pid="p", tid="t",
                        trace_id=tracer.new_trace_id(), foo=1)
    tracer.env.run(until=2.5)
    span.end(status="ok")
    (rec,) = tracer.records
    assert rec.name == "work" and rec.cat == "test"
    assert rec.t_start == 0.0 and rec.t_end == 2.5
    assert rec.args == {"foo": 1, "status": "ok"}
    assert rec.ph == "X"


def test_end_is_idempotent():
    tracer = make_tracer()
    span = tracer.begin("once")
    span.end()
    span.end()
    assert len(tracer.records) == 1


def test_end_at_explicit_time():
    tracer = make_tracer()
    span = tracer.begin("s")
    tracer.env.run(until=5.0)
    span.end(t_end=3.0)
    assert tracer.records[0].t_end == 3.0


def test_children_share_trace_and_parent():
    tracer = make_tracer()
    root = tracer.begin("root", trace_id=tracer.new_trace_id())
    child = root.child("child")
    child.end()
    root.child_complete("done", 0.0, 1.0, cat="phase")
    root.instant("blip", detail="x")
    root.end()
    by_name = {r.name: r for r in tracer.records}
    for name in ("child", "done", "blip"):
        assert by_name[name].parent_id == root.span_id
        assert by_name[name].trace_id == root.trace_id
    assert by_name["blip"].ph == "i"
    assert by_name["done"].cat == "phase"


def test_phase_helper_records_trailing_window():
    tracer = make_tracer()
    root = tracer.begin("root", trace_id=tracer.new_trace_id())
    tracer.env.run(until=4.0)
    root.phase("download", 1.5)
    (rec,) = tracer.records
    assert rec.t_start == pytest.approx(2.5)
    assert rec.t_end == pytest.approx(4.0)
    assert rec.cat == "phase"


def test_complete_with_raw_parent_id():
    """Server-side layers only carry the wire (trace_id, span_id) context."""
    tracer = make_tracer()
    tracer.complete("srv:exec", 1.0, 2.0, cat="server",
                    trace_id=42, parent_id=7, server=3)
    (rec,) = tracer.records
    assert rec.trace_id == 42 and rec.parent_id == 7
    assert rec.duration_s == pytest.approx(1.0)


# --- bounding ----------------------------------------------------------------

def test_tracer_never_drops_silently():
    tracer = make_tracer(max_spans=3)
    for i in range(5):
        tracer.complete(f"s{i}", 0.0, 1.0)
    assert len(tracer.records) == 3
    assert tracer.dropped == 2
    assert tracer.summary()["dropped"] == 2
    assert tracer.to_chrome()["otherData"]["dropped"] == 2


def test_max_spans_validation():
    with pytest.raises(ValueError):
        make_tracer(max_spans=0)


# --- queries -----------------------------------------------------------------

def test_queries_by_cat_name_and_trace():
    tracer = make_tracer()
    t1, t2 = tracer.new_trace_id(), tracer.new_trace_id()
    tracer.complete("a", 0, 1, cat="rpc", trace_id=t1)
    tracer.complete("b", 0, 2, cat="phase", trace_id=t1)
    tracer.complete("c", 0, 3, cat="rpc", trace_id=t2)
    tracer.instant("retry", trace_id=t2)
    assert len(tracer.spans()) == 3
    assert [r.name for r in tracer.spans("rpc")] == ["a", "c"]
    assert [r.name for r in tracer.instants("retry")] == ["retry"]
    grouped = tracer.by_trace()
    assert {len(grouped[t1]), len(grouped[t2])} == {2}
    s = tracer.summary()
    assert s["spans"] == 3 and s["instants"] == 1 and s["traces"] == 2


# --- Chrome export -----------------------------------------------------------

def test_chrome_export_format(tmp_path):
    tracer = make_tracer()
    trace_id = tracer.new_trace_id()
    root = tracer.begin("invocation:x", cat="invocation",
                        pid="invocations", tid="inv-1", trace_id=trace_id)
    tracer.env.run(until=1.25)
    root.phase("download", 1.0)
    root.instant("blip")
    root.end()
    out = tracer.to_chrome()
    assert out["displayTimeUnit"] == "ms"
    events = out["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["name"] for m in meta} == {"process_name", "thread_name"}
    # integer pids/tids, names carried in metadata
    assert all(isinstance(e["pid"], int) for e in events)
    xs = [e for e in events if e["ph"] == "X"]
    root_ev = next(e for e in xs if e["name"] == "invocation:x")
    assert root_ev["ts"] == 0.0 and root_ev["dur"] == pytest.approx(1.25e6)
    phase_ev = next(e for e in xs if e["name"] == "download")
    assert phase_ev["args"]["parent_id"] == root.span_id
    assert phase_ev["args"]["trace_id"] == trace_id
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["s"] == "t"
    # round-trips through a file as valid JSON
    path = tmp_path / "trace.json"
    tracer.dump_chrome(path)
    assert json.loads(path.read_text())["otherData"]["clock"] == "sim-seconds"


# --- open spans at export time -----------------------------------------------

def test_open_spans_counted_and_closed_synthetically():
    tracer = make_tracer()
    trace_id = tracer.new_trace_id()
    root = tracer.begin("invocation:live", cat="invocation", trace_id=trace_id)
    rpc = tracer.begin("rpc:launch", cat="rpc", parent=root)
    tracer.env.run(until=3.0)
    assert tracer.open_spans == 2
    assert tracer.summary()["open_spans"] == 2
    out = tracer.to_chrome()
    assert out["otherData"]["open_spans"] == 2
    # both in-flight spans are exported, flagged, and end at env.now
    synthetic = [e for e in out["traceEvents"]
                 if e["ph"] == "X" and e["args"].get("open") is True]
    assert {e["name"] for e in synthetic} == {"invocation:live", "rpc:launch"}
    for e in synthetic:
        assert e["ts"] + e["dur"] == pytest.approx(3.0e6)
    # export is a view: nothing was stored and the spans stay open
    assert tracer.records == []
    assert tracer.open_spans == 2
    # a real end later records normally, without the flag
    rpc.end()
    root.end()
    assert tracer.open_spans == 0
    assert all("open" not in r.args for r in tracer.records)
    assert not any(e["args"].get("open")
                   for e in tracer.to_chrome()["traceEvents"]
                   if e["ph"] == "X")


def test_open_span_started_in_future_never_ends_before_start():
    tracer = make_tracer()
    tracer.begin("late", t_start=5.0)
    assert tracer.env.now == 0.0
    (rec,) = [e for e in tracer.to_chrome()["traceEvents"] if e["ph"] == "X"]
    # synthetic end clamps to t_start: duration is never negative
    assert rec["dur"] == 0.0


# --- snapshot / merge / digest (the sharded-trace substrate) -----------------

def _record_workload(tracer, n=3):
    for i in range(n):
        root = tracer.begin("invocation", cat="invocation", pid="group0",
                            tid=f"inv-{i}", trace_id=tracer.new_trace_id(),
                            index=i)
        root.child_complete("phase", float(i), i + 0.5, cat="phase")
        root.end(t_end=i + 1.0)


def test_namespaced_counters_are_disjoint_blocks():
    a = Tracer(Environment(), namespace=0)
    b = Tracer(Environment(), namespace=3)
    _record_workload(a, n=2)
    _record_workload(b, n=2)
    a_ids = {r.span_id for r in a.records} | {r.trace_id for r in a.records}
    b_ids = {r.span_id for r in b.records} | {r.trace_id for r in b.records}
    assert a_ids.isdisjoint(b_ids)
    assert all(i >= 3 * (1 << 40) for i in b_ids)
    # ids are deterministic: a rebuilt tracer allocates identically
    b2 = Tracer(Environment(), namespace=3)
    _record_workload(b2, n=2)
    assert [r.span_id for r in b2.records] == [r.span_id for r in b.records]


def test_every_tracer_counts_its_own_ids():
    # no process-wide counter: a tracer built after another one has
    # traced allocates the same ids, from namespace 0's block
    a, b = make_tracer(), make_tracer()
    _record_workload(a)
    _record_workload(b)
    assert [(r.span_id, r.trace_id) for r in a.records] == \
        [(r.span_id, r.trace_id) for r in b.records]
    assert min(r.span_id for r in b.records) == 1


def test_digest_is_invariant_to_id_namespace():
    a = Tracer(Environment(), namespace=0)
    b = Tracer(Environment(), namespace=7)
    _record_workload(a)
    _record_workload(b)
    assert [r.span_id for r in a.records] != [r.span_id for r in b.records]
    assert a.digest() == b.digest() != 0


def test_digest_canonicalizes_unknown_parents():
    from repro.obs import trace_digest

    a = Tracer(Environment())
    a.complete("leaf", 0.0, 1.0, parent_id=10**9)      # dangling parent
    b = Tracer(Environment())
    b.complete("leaf", 0.0, 1.0, parent_id=10**9 + 5)  # different dangler
    assert trace_digest(a.records) == trace_digest(b.records)
    c = Tracer(Environment())
    c.complete("leaf", 0.5, 1.0, parent_id=10**9)      # different content
    assert trace_digest(c.records) != trace_digest(a.records)


def test_snapshot_round_trips_through_merge_target():
    source = Tracer(Environment(), namespace=2)
    _record_workload(source)
    still_open = source.begin("inflight", cat="rpc")
    source.env.run(until=10.0)

    target = Tracer(None, max_spans=100)
    added = target.merge_snapshot(source.snapshot())
    assert added == len(source.records) + 1   # open span shipped too
    assert target.now == 10.0                 # merged clock follows t_end
    assert target.digest() == source.digest()
    (inflight,) = [r for r in target.records if r.name == "inflight"]
    assert inflight.args.get("open") is True
    still_open.end()


def test_merge_track_prefix_rehomes_processes():
    source = Tracer(Environment(), namespace=1)
    _record_workload(source, n=1)
    target = Tracer(None)
    target.merge_snapshot(source.snapshot(), track_prefix="shard1/")
    assert {r.pid for r in target.records} == {"shard1/group0"}
    # prefixing changes the canonical content, by design
    assert target.digest() != source.digest()


def test_merge_in_shard_order_is_deterministic():
    def build(namespace):
        t = Tracer(Environment(), namespace=namespace)
        _record_workload(t, n=2)
        return t.snapshot()

    merged_a = Tracer(None)
    merged_b = Tracer(None)
    for ns in (0, 1):
        merged_a.merge_snapshot(build(ns), track_prefix=f"shard{ns}/")
        merged_b.merge_snapshot(build(ns), track_prefix=f"shard{ns}/")
    assert merged_a.digest() == merged_b.digest()


def test_merge_rejects_foreign_snapshot_versions():
    target = Tracer(None)
    with pytest.raises(ValueError):
        target.merge_snapshot({"version": 999, "records": []})
    with pytest.raises(ValueError):
        target.merge_snapshot(["not", "a", "snapshot"])


def test_merge_accumulates_drops_instead_of_losing_spans():
    source = Tracer(Environment(), max_spans=2)
    _record_workload(source, n=3)   # 6 records against a cap of 2
    assert source.dropped > 0
    target = Tracer(None, max_spans=1)
    target.merge_snapshot(source.snapshot())
    assert len(target.records) == 1
    assert target.dropped == source.dropped + 1
