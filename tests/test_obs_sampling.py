"""Tests for adaptive trace sampling (repro.obs.sampling) and its wiring:
deterministic head decisions, tail-keep rules, NullSpan rejection,
gauge decimation, metric exemplars, and shard/mode invariance of the
kept-trace set."""

import pytest

from repro.core.config import DgsfConfig
from repro.experiments.runner import VARIANTS, build_deployment
from repro.faas.topology import pool_collect, pool_scenario
from repro.obs.metrics import _GAUGE_CAP, MetricsRegistry
from repro.obs.sampling import (
    INTERESTING_NAMES,
    KEPT,
    OUT,
    PENDING,
    TraceSampler,
    sample_key_hash,
)
from repro.obs.slo import GpuImbalanceRule, LatencyRule, SloEngine, \
    evaluate_cluster_slo
from repro.obs.trace import NullSpan, Tracer, trace_digest
from repro.sim.core import Environment
from repro.sim.shard import run_sharded


# -- sampler unit behaviour ---------------------------------------------------

def test_sample_key_hash_is_deterministic_and_uniformish():
    values = [sample_key_hash(f"scope|wl|{i}") for i in range(2000)]
    assert values == [sample_key_hash(f"scope|wl|{i}") for i in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    frac = sum(1 for v in values if v < 0.25) / len(values)
    assert 0.15 < frac < 0.35  # loose: CRC32 spreads keys roughly uniformly


def test_head_decisions_bit_identical_across_reruns():
    def kept_set():
        sampler = TraceSampler(0.1)
        return frozenset(
            i for i in range(1000)
            if sampler.register(i, key=f"g0|kmeans|{i}")
        )
    first = kept_set()
    assert first == kept_set()
    assert 0 < len(first) < 1000


def test_rate_bounds_and_shortcuts():
    with pytest.raises(ValueError):
        TraceSampler(1.5)
    assert TraceSampler(1.0).head_decision("anything") is True
    assert TraceSampler(0.0).head_decision("anything") is False


def test_failed_root_is_tail_kept():
    sampler = TraceSampler(0.0)
    sampler.register(1, key="k", scope="g0", workload="wl", t_start=0.0)
    assert sampler.state(1) == PENDING
    resolutions = sampler.on_root_end(1, 0.0, 2.0, "failed")
    assert (1, True, "status:failed") in resolutions
    assert sampler.state(1) == KEPT


def test_interesting_instant_promotes_pending():
    assert "kv_preempt" in INTERESTING_NAMES
    sampler = TraceSampler(0.0)
    sampler.register(7, key="k", scope="g0", workload="llm", t_start=0.0)
    resolutions = sampler.note_record(7, "kv_preempt")
    assert resolutions == [(7, True, "kv_preempt")]
    assert sampler.state(7) == KEPT
    assert sampler.summary()["tail_kept"] == {"kv_preempt": 1}


def test_window_latency_champion_is_kept_rest_out():
    sampler = TraceSampler(0.0, window_s=60.0)
    for tid, e2e in ((1, 0.5), (2, 3.0), (3, 1.0)):
        sampler.register(tid, key=f"k{tid}", scope="g0", workload="wl",
                         t_start=10.0)
        sampler.on_root_end(tid, 10.0, 10.0 + e2e, "completed")
    resolutions = sampler.finalize()
    assert (2, True, "latency_max") in resolutions
    assert sampler.state(2) == KEPT
    assert sampler.state(1) == OUT and sampler.state(3) == OUT
    assert sampler.out_traces == 2
    sampler.finalize()  # idempotent
    assert sampler.out_traces == 2


def test_alert_overlap_and_exemplars_promote_scope_filtered():
    sampler = TraceSampler(0.0)
    sampler.register(1, key="a", scope="g0", workload="wl", t_start=0.0)
    sampler.register(2, key="b", scope="g1", workload="wl", t_start=0.0)
    sampler.register(3, key="c", scope="g0", workload="wl", t_start=0.0)
    sampler.on_root_end(3, 0.0, 1.0, "completed")  # closed, within retention
    resolutions = sampler.note_alert(5.0, scope="g0")
    kept = {tid for tid, kept_flag, _ in resolutions if kept_flag}
    assert kept == {1, 3}           # g1's pending is untouched
    assert sampler.state(2) == PENDING
    # exemplar ids are promoted even when outside the alert's scope
    resolutions = sampler.note_alert(6.0, scope="g0", exemplar_trace_ids=(2,))
    assert (2, True, "exemplar") in resolutions


def test_retention_expiry_finalizes_closed_pendings():
    sampler = TraceSampler(0.0, window_s=10.0, retention_s=20.0)
    sampler.register(1, key="a", scope="g0", workload="wl", t_start=0.0)
    sampler.on_root_end(1, 0.0, 1.0, "completed")
    sampler.register(2, key="b", scope="g0", workload="wl", t_start=1.0)
    sampler.on_root_end(2, 1.0, 3.0, "completed")  # displaces 1 as champion
    # much later, a third root end triggers expiry of the closed pool
    sampler.register(3, key="c", scope="g0", workload="wl", t_start=90.0)
    resolutions = sampler.on_root_end(3, 90.0, 91.0, "completed")
    assert (1, False, "sampled_out") in resolutions   # non-champion, aged out
    assert sampler.state(2) == PENDING                # champion survives
    late = sampler.note_alert(92.0, scope="g1", exemplar_trace_ids=(1,))
    assert late == [] and sampler.late_keeps == 1     # loud, not silent


def test_register_foreign_adopts_remote_decision():
    sampler = TraceSampler(0.5)
    sampler.register_foreign(11, sampled=True)
    sampler.register_foreign(12, sampled=False)
    assert sampler.state(11) == KEPT
    assert sampler.state(12) == "foreign"
    # a local decision always wins over a later foreign registration
    sampler.register(13, key="x" * 3, scope="g0", workload="wl")
    state = sampler.state(13)
    sampler.register_foreign(13, sampled=state != KEPT)
    assert sampler.state(13) == state


# -- tracer integration -------------------------------------------------------

def _emit(tracer):
    root = tracer.begin("invocation:wl", cat="invocation",
                        trace_id=tracer.new_trace_id())
    tracer.sample_root(root.trace_id, key="g0|wl|1", scope="g0", workload="wl")
    child = root.child("phase:run", cat="phase")
    child.end()
    root.end(status="completed")
    return root.trace_id


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_head_samples_at_the_configured_rate(variant):
    """``trace_sample_rate`` reaches the tracer of native and CPU
    deployments too, not only the DGSF ones."""
    config = DgsfConfig(num_gpus=1, tracing_enabled=True,
                        trace_sample_rate=0.2)
    dep = build_deployment(variant, config)
    assert dep.tracer.summary()["sampling"]["rate"] == 0.2


def test_rate_one_sampler_exports_identical_timeline():
    env_a, env_b = Environment(), Environment()
    # same namespace => same id streams, so the record lists are comparable
    plain = Tracer(env_a, namespace=5)
    sampled = Tracer(env_b, namespace=5, sampler=TraceSampler(1.0))
    _emit(plain)
    _emit(sampled)
    sampled.finalize_sampling()
    assert [r.__dict__ for r in sampled.records] \
        == [r.__dict__ for r in plain.records]
    assert trace_digest(sampled.records) == trace_digest(plain.records)
    assert sampled.sampled_out == 0


def test_nullspan_rejects_children_of_out_traces_cheaply():
    env = Environment()
    tracer = Tracer(env, sampler=TraceSampler(0.0))
    # two traces in one window: the slower is champion, the faster is out
    tids = []
    for key, e2e in (("a", 5.0), ("b", 1.0)):
        root = tracer.begin("invocation:wl", cat="invocation",
                            trace_id=tracer.new_trace_id())
        tracer.sample_root(root.trace_id, key=key, scope="g0", workload="wl")
        root.end(t_end=e2e, status="completed")
        tids.append(root.trace_id)
    tracer.finalize_sampling()
    out_tid = next(t for t in tids if tracer._sampler.state(t) == OUT)
    before = tracer.sampled_out
    span = tracer.begin("rpc:late", cat="rpc", trace_id=out_tid)
    assert isinstance(span, NullSpan)
    grandchild = span.child("nested")
    assert isinstance(grandchild, NullSpan)
    span.instant("note")
    span.end()
    span.end()  # double-end guards
    assert tracer.sampled_out > before
    assert all(r.trace_id != out_tid for r in tracer.records)


def test_sampled_out_and_dropped_are_separate_counters():
    env = Environment()
    tracer = Tracer(env, max_spans=6, sampler=TraceSampler(0.0))
    # a pending trace's buffered spans count against the budget; overflow
    # is 'dropped' (budget), not 'sampled_out' (decision)
    root = tracer.begin("invocation:wl", cat="invocation",
                        trace_id=tracer.new_trace_id())
    tracer.sample_root(root.trace_id, key="k", scope="g0", workload="wl")
    for i in range(8):
        root.child_complete(f"phase:{i}", 0.0, 0.0, cat="phase")
    assert tracer.dropped == 2          # 6 buffered, 2 over budget
    assert tracer.sampled_out == 0      # no decision made yet
    root.end(status="failed")           # tail-keeps + flushes the buffer;
    tracer.finalize_sampling()          # the root record itself then loses
    assert tracer.dropped == 3          # the budget race to its children
    assert tracer.sampled_out == 0
    assert len(tracer.records) == 6     # the 6 buffered children


# -- gauge decimation (bounded series memory) --------------------------------

def test_gauge_series_memory_is_bounded_and_loud():
    reg = MetricsRegistry()
    gauge = reg.gauge("gpu.utilization", gpu_server="s0", device=0)
    n = 3 * _GAUGE_CAP
    for i in range(n):
        gauge.set(float(i % 100), i * 0.001)
    assert len(gauge.values) < _GAUGE_CAP
    assert gauge.count == n
    assert gauge.truncated
    assert gauge.dropped == n - len(gauge.values)
    assert gauge.value == float((n - 1) % 100)  # .value stays exact
    # decimation must be visible in the export, never silent
    as_dict = reg.as_dict()
    text = str(as_dict)
    assert "sample_dropped" in text


def test_slo_rules_fire_on_decimated_gauge_series():
    reg = MetricsRegistry()
    hot = reg.gauge("gpu.utilization", gpu_server="s0", device=0)
    idle = reg.gauge("gpu.utilization", gpu_server="s0", device=1)
    n = 2 * _GAUGE_CAP
    for i in range(n):
        t = i * 0.001
        hot.set(1.0, t)
        idle.set(0.0, t)
    assert hot.truncated and idle.truncated
    engine = evaluate_cluster_slo(reg, rules=[GpuImbalanceRule(
        min_spread=0.4, window_s=10.0, min_samples=3)])
    assert any(e.rule == "gpu-imbalance" and e.state == "firing"
               for e in engine.alerts)


def test_live_slo_stream_sees_every_set_despite_decimation():
    reg = MetricsRegistry()
    seen = []
    reg.subscribe(lambda metric, value, t: seen.append(value))
    gauge = reg.gauge("gpu.utilization", gpu_server="s0", device=0)
    n = _GAUGE_CAP + 10
    for i in range(n):
        gauge.set(float(i), i * 0.001)
    assert len(seen) == n           # notify is per set, not per kept sample
    assert len(gauge.values) < n    # storage is decimated anyway


# -- metric exemplars ---------------------------------------------------------

def test_histogram_exemplars_and_alert_exemplar_trace_ids():
    reg = MetricsRegistry()
    hist = reg.histogram("invocation.e2e_s", workload="wl")
    engine = SloEngine([LatencyRule(threshold_s=1.0, window_s=300.0,
                                    min_count=3)]).attach(reg)
    fired = []
    engine.on_alert(fired.append)
    for i, (v, tid) in enumerate(((0.1, 101), (5.0, 102), (7.0, 103))):
        hist.observe(v, trace_id=tid)
        engine.evaluate(float(i))
    assert hist.last_trace_id == 103
    dumped = reg.as_dict()
    text = str(dumped)
    assert "exemplars" in text
    assert fired, "latency rule should have fired"
    exemplars = fired[0].details.get("exemplars")
    assert exemplars and set(exemplars) <= {101, 102, 103}
    assert 103 in exemplars or 102 in exemplars  # worst offenders first


# -- sharded integration: invariance of the kept set -------------------------

POOL_ARGS = (40, 2, 0.05, 0.18, 10.0, 2)


def _run_pool(num_shards, mode, rate=0.2):
    return run_sharded(
        pool_scenario, num_shards=num_shards, total_groups=4, seed=7,
        lookahead_s=5.0, scenario_args=POOL_ARGS, collect=pool_collect,
        mode=mode, tracing=True, trace_sample_rate=rate,
    )


def _kept_invocations(tracer):
    return frozenset(
        (r.pid.split("/", 1)[-1], r.tid, r.name,
         round(r.t_start, 9), round(r.t_end, 9))
        for r in tracer.records
        if r.trace_id is not None and r.cat == "invocation"
    )


def test_kept_set_identical_across_reruns_and_shard_counts():
    one = _run_pool(1, "inline")
    two = _run_pool(2, "inline")
    rerun = _run_pool(2, "inline")
    assert _kept_invocations(one.tracer) == _kept_invocations(two.tracer)
    assert one.tracer.sampled_out == two.tracer.sampled_out
    assert two.trace_digest == rerun.trace_digest  # bit-identical rerun
    sampling = two.tracer.summary()["sampling"]
    assert sampling["head_kept"] > 0 and sampling["out_traces"] > 0
    assert sampling["foreign_pending"] == 0  # coordinator resolved them all


def test_kept_set_identical_inline_vs_process():
    inline = _run_pool(2, "inline")
    process = _run_pool(2, "process")
    assert _kept_invocations(inline.tracer) == _kept_invocations(process.tracer)
    assert inline.tracer.sampled_out == process.tracer.sampled_out
    assert inline.trace_digest == process.trace_digest


def test_eviction_storm_preemption_traces_survive_one_percent_rate():
    from repro.experiments import llm_ablation
    from repro.experiments.runner import make_plan, run_scenario

    plan = make_plan("burst", 0, copies=2, names=["llm_chat_storm"],
                     burst_gap_s=llm_ablation.BURST_GAP_S)
    result = run_scenario(llm_ablation.config(trace_sample_rate=0.01), plan,
                          llm_mode="request").require_completed()
    records, dep = result.invocations, result.deployment
    assert sum(rec.result["n_preemptions"] for rec in records) > 0
    tracer = dep.tracer
    kept = set(tracer.by_trace())
    preempt_traces = {
        r.trace_id for r in tracer.records if r.name == "kv_preempt"
    }
    assert preempt_traces, "storm run must emit kv_preempt instants"
    assert preempt_traces <= kept
    sampling = tracer.summary()["sampling"]
    assert sampling["rate"] == 0.01
    total_kept = sampling["head_kept"] + sum(sampling["tail_kept"].values())
    assert total_kept == len(kept)
