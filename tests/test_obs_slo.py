"""SLO engine tests: sliding windows, burn-rate/imbalance/starvation
rules, the engine's transition log, and the chaos-driven fire -> clear
behaviour required by the alerting acceptance criteria."""

import pytest

from repro.core import DgsfConfig, FaultPlan
from repro.experiments.runner import make_plan, run_scenario
from repro.obs import MetricsRegistry, SloEngine
from repro.obs.metrics import _GAUGE_CAP
from repro.obs.slo import (
    BurnRateRule,
    GpuImbalanceRule,
    LatencyRule,
    QueueStarvationRule,
    SlidingWindow,
    evaluate_cluster_slo,
)


def make_engine(rules):
    """Engine + registry with a manually-driven clock."""
    now = [0.0]
    registry = MetricsRegistry(clock=lambda: now[0])
    engine = SloEngine(rules).attach(registry)
    return engine, registry, now


# --- sliding window ----------------------------------------------------------

def test_sliding_window_prunes_and_aggregates():
    win = SlidingWindow(10.0)
    win.add(0.0, 1.0)
    win.add(5.0, 3.0)
    win.add(9.0, 2.0)
    assert win.count == 3 and win.total == 6.0
    assert win.mean() == pytest.approx(2.0)
    win.prune(12.0)  # cutoff 2.0 drops the t=0 sample
    assert win.count == 2 and win.total == 5.0
    win.prune(100.0)
    assert win.count == 0 and win.total == 0.0
    assert win.mean() is None


def test_sliding_window_rejects_bad_width():
    with pytest.raises(ValueError):
        SlidingWindow(0.0)


# --- burn-rate rule ----------------------------------------------------------

def test_burn_rate_fires_on_failures_and_clears_on_successes():
    engine, registry, now = make_engine([BurnRateRule()])

    def record(status):
        registry.counter("invocation.status", status=status).inc()

    now[0] = 10.0
    record("failed")  # 100% error rate in every window
    assert "availability-burn" in engine.active
    assert engine.alerts[-1].state == "firing"
    assert engine.alerts[-1].severity == "page"
    # the failure ages out of the fast 60 s window; fresh successes make
    # its burn zero, and one recovered window is enough to clear
    now[0] = 100.0
    record("completed")
    assert "availability-burn" not in engine.active
    assert engine.alerts[-1].state == "resolved"
    assert engine.alerts[-1].details["fired_at"] == 10.0


def test_burn_rate_clears_on_quiet_recovery():
    """No traffic at all: an explicit evaluate (the monitor's health-tick
    pulse) must still clear the alert once the windows drain."""
    engine, registry, now = make_engine([BurnRateRule()])
    now[0] = 10.0
    registry.counter("invocation.status", status="timeout").inc()
    assert "availability-burn" in engine.active
    engine.evaluate(500.0)  # both windows empty by now
    assert "availability-burn" not in engine.active


def test_burn_rate_needs_every_window_burning():
    """A single old failure among many successes keeps the fast window's
    burn below its factor, so the rule must not fire."""
    engine, registry, now = make_engine([BurnRateRule()])
    for i in range(99):
        now[0] = float(i)
        registry.counter("invocation.status", status="completed").inc()
    now[0] = 99.0
    registry.counter("invocation.status", status="failed").inc()
    # fast window (60 s): 1/61 = 1.6% error < 5% burn threshold
    assert "availability-burn" not in engine.active


def test_burn_rate_rejects_bad_target():
    with pytest.raises(ValueError):
        BurnRateRule(target=1.0)


# --- latency rule ------------------------------------------------------------

def test_latency_rule_needs_min_count_then_fires():
    engine, registry, now = make_engine(
        [LatencyRule(threshold_s=100.0, min_count=3)]
    )
    for i in range(2):
        now[0] = float(i)
        registry.histogram("invocation.e2e_s").observe(500.0)
    assert "latency-p95" not in engine.active  # below min_count
    now[0] = 2.0
    registry.histogram("invocation.e2e_s").observe(500.0)
    assert "latency-p95" in engine.active
    assert engine.active["latency-p95"].details["p95_s"] == pytest.approx(500.0)


# --- gpu imbalance rule ------------------------------------------------------

def test_gpu_imbalance_fires_on_skew_and_names_devices():
    engine, registry, now = make_engine(
        [GpuImbalanceRule(min_spread=0.4, min_samples=3)]
    )
    for i in range(3):
        t = float(i)
        registry.gauge("gpu.utilization", gpu_server="gpu0", device=0).set(0.9, t=t)
        registry.gauge("gpu.utilization", gpu_server="gpu0", device=1).set(0.1, t=t)
    assert "gpu-imbalance" in engine.active
    details = engine.active["gpu-imbalance"].details
    assert details["spread"] == pytest.approx(0.8)
    assert details["busiest"]["gpu"] == "gpu0/gpu0"
    assert details["idlest"]["gpu"] == "gpu0/gpu1"


def test_gpu_imbalance_needs_two_devices():
    engine, registry, now = make_engine([GpuImbalanceRule(min_samples=1)])
    registry.gauge("gpu.utilization", gpu_server="gpu0", device=0).set(1.0, t=0.0)
    assert "gpu-imbalance" not in engine.active


# --- queue starvation rule ---------------------------------------------------

def test_queue_starvation_fires_then_clears_on_grant():
    engine, registry, now = make_engine([QueueStarvationRule(max_wait_s=60.0)])
    now[0] = 0.0
    registry.counter("scheduler.enqueued", discipline="fcfs").inc()
    assert "queue-starvation" not in engine.active
    engine.evaluate(61.0)
    assert "queue-starvation" in engine.active
    assert engine.active["queue-starvation"].details["oldest_wait_s"] == 61.0
    now[0] = 62.0
    registry.counter("scheduler.granted", discipline="fcfs").inc()
    assert "queue-starvation" not in engine.active


def test_queue_starvation_cancel_also_drains():
    engine, registry, now = make_engine([QueueStarvationRule(max_wait_s=60.0)])
    registry.counter("scheduler.enqueued", discipline="fcfs").inc()
    now[0] = 10.0
    registry.counter("scheduler.cancelled", discipline="fcfs").inc()
    engine.evaluate(1000.0)
    assert "queue-starvation" not in engine.active


# --- engine ------------------------------------------------------------------

def test_engine_rejects_duplicate_rule_names():
    with pytest.raises(ValueError):
        SloEngine([BurnRateRule(), BurnRateRule()])


def test_engine_summary_and_alert_log():
    engine, registry, now = make_engine([BurnRateRule()])
    now[0] = 10.0
    registry.counter("invocation.status", status="failed").inc()
    engine.evaluate(500.0)
    assert engine.summary() == {
        "events": 2,
        "fired": {"availability-burn": 1},
        "active": [],
    }
    log = engine.alert_log()
    assert [e["state"] for e in log] == ["firing", "resolved"]
    assert all(isinstance(e["details"], dict) for e in log)


def test_unrouted_metrics_are_ignored():
    engine, registry, now = make_engine([BurnRateRule()])
    registry.counter("guest.rpc_retries").inc()
    assert engine.alerts == []


# --- chaos integration: crash -> burn fires, recovery -> clears --------------

def test_chaos_run_fires_and_clears_availability_burn():
    plan = FaultPlan(
        server_crash_prob=0.2,
        crash_after_calls=(1, 20),
        link_drop_prob=0.005,
        delay_spike_prob=0.02,
        delay_spike_s=0.2,
        partitions=((40.0, 42.0),),
    )
    config = DgsfConfig(
        num_gpus=2,
        api_servers_per_gpu=2,
        seed=3,
        fault_plan=plan,
        rpc_timeout_s=20.0,
        rpc_max_retries=2,
        rpc_retry_backoff_s=0.5,
    )
    result = run_scenario(config, make_plan("exponential", seed=3, copies=2))
    assert result.crashes_detected > 0
    assert result.outcomes.counts.get("failed", 0) > 0
    burn = [e for e in result.alerts if e.rule == "availability-burn"]
    states = [e.state for e in burn]
    # crashes push failures through the burn windows -> the alert fires;
    # post-recovery successes (and sim time) drain them -> it clears
    assert "firing" in states and "resolved" in states
    assert burn[-1].state == "resolved"
    for firing, resolved in zip(burn[::2], burn[1::2]):
        assert firing.state == "firing" and resolved.state == "resolved"
        assert resolved.t > firing.t
    # the structured log round-trips for the alerts.json artifact
    assert result.deployment.slo.alert_log()[0]["rule"]


# --- cluster-level re-evaluation over a merged registry ----------------------

def test_evaluate_cluster_slo_sees_cross_shard_imbalance():
    from repro.obs.slo import evaluate_cluster_slo

    # each shard hosts ONE device: no per-shard engine can see a spread
    shard_a = MetricsRegistry()
    shard_b = MetricsRegistry()
    for i in range(4):
        t = float(i)
        shard_a.gauge("gpu.utilization", gpu_server="g0", device=0).set(0.9, t=t)
        shard_b.gauge("gpu.utilization", gpu_server="g1", device=0).set(0.1, t=t)

    merged = MetricsRegistry()
    merged.merge_snapshot(shard_a.snapshot())
    merged.merge_snapshot(shard_b.snapshot())

    cluster = evaluate_cluster_slo(merged)
    assert "gpu-imbalance" in cluster.active
    details = cluster.active["gpu-imbalance"].details
    assert details["spread"] == pytest.approx(0.8)
    assert details["busiest"]["gpu"] == "g0/gpu0"
    assert details["idlest"]["gpu"] == "g1/gpu0"
    # the replay produced a real transition log, in time order
    log = cluster.alert_log()
    assert log and log[0]["rule"] == "gpu-imbalance"
    assert [e["t"] for e in log] == sorted(e["t"] for e in log)


def test_evaluate_cluster_slo_balanced_cluster_stays_quiet():
    from repro.obs.slo import evaluate_cluster_slo

    merged = MetricsRegistry()
    for shard, util in ((0, 0.5), (1, 0.52)):
        reg = MetricsRegistry()
        for i in range(4):
            reg.gauge("gpu.utilization", gpu_server=f"g{shard}",
                      device=0).set(util, t=float(i))
        merged.merge_snapshot(reg.snapshot())
    cluster = evaluate_cluster_slo(merged)
    assert cluster.active == {}
    assert cluster.alert_log() == []


def test_evaluate_cluster_slo_empty_registry_and_custom_rules():
    from repro.obs.slo import evaluate_cluster_slo

    empty = evaluate_cluster_slo(MetricsRegistry())
    assert empty.alert_log() == [] and empty.active == {}
    # custom rule list replaces the default
    custom = evaluate_cluster_slo(
        MetricsRegistry(), rules=[GpuImbalanceRule(min_spread=0.1)])
    assert [r.name for r in custom.rules] == ["gpu-imbalance"]
    assert custom.rules[0].min_spread == 0.1


# --- decimated series and exemplars ------------------------------------------

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


def test_histogram_exemplars_and_alert_exemplar_trace_ids():
    reg = MetricsRegistry()
    hist = reg.histogram("invocation.e2e_s", workload="wl")
    engine = SloEngine([LatencyRule(threshold_s=1.0, window_s=300.0,
                                    min_count=3)]).attach(reg)
    for i, (v, tid) in enumerate(((0.1, 101), (5.0, 102), (7.0, 103))):
        hist.observe(v, trace_id=tid)
        engine.evaluate(float(i))
    assert hist.last_trace_id == 103
    dumped = reg.as_dict()
    text = str(dumped)
    assert "exemplars" in text
    fired = [event for event in engine.alerts if event.state == "firing"]
    assert fired, "latency rule should have fired"
    exemplars = fired[0].details.get("exemplars")
    assert exemplars and set(exemplars) <= {101, 102, 103}
    assert 103 in exemplars or 102 in exemplars  # worst offenders first
