"""Unit tests for the repro.obs metrics registry."""

import numpy as np
import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, percentile
from repro.obs.metrics import _GAUGE_CAP


# --- instruments -------------------------------------------------------------

def test_counter_increments_and_rejects_negative():
    c = Counter("x", {})
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_keeps_series_and_last_value():
    g = Gauge("g", {})
    assert g.value is None
    g.set(0.5, t=1.0)
    g.set(0.7, t=2.0)
    assert g.value == 0.7
    assert g.series() == [(1.0, 0.5), (2.0, 0.7)]


def test_histogram_percentiles_match_numpy():
    h = Histogram("h", {})
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 100, size=257)
    for v in values:
        h.observe(float(v))
    for q in (50, 95, 99):
        assert h.percentile(q) == pytest.approx(float(np.percentile(values, q)))
    assert h.p50 == h.percentile(50)
    assert h.mean == pytest.approx(float(values.mean()))
    assert h.count == 257


def test_histogram_empty_raises():
    h = Histogram("h", {})
    with pytest.raises(ValueError):
        h.mean
    with pytest.raises(ValueError):
        h.percentile(50)


def test_percentile_single_value_and_interpolation():
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile([], 50)


# --- registry ----------------------------------------------------------------

def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("rpc.calls", guest=1)
    b = reg.counter("rpc.calls", guest=1)
    assert a is b
    other = reg.counter("rpc.calls", guest=2)
    assert other is not a
    assert len(reg) == 2


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(TypeError):
        reg.gauge("m")
    with pytest.raises(TypeError):
        reg.histogram("m")


def test_registry_find_matches_label_superset():
    reg = MetricsRegistry()
    reg.counter("cache.hits", server=0, tier="ssd").inc(3)
    reg.counter("cache.hits", server=1, tier="ssd").inc(5)
    reg.counter("cache.misses", server=0).inc(9)
    hits = list(reg.find("cache.hits", tier="ssd"))
    assert len(hits) == 2
    only0 = list(reg.find("cache.hits", server=0))
    assert len(only0) == 1 and only0[0].value == 3
    assert reg.total("cache.hits") == 8
    assert reg.total("cache.hits", server=1) == 5
    assert reg.total("nothing.here") == 0


def test_registry_as_dict_snapshot():
    reg = MetricsRegistry()
    reg.counter("a.b", x=1).inc(2)
    reg.gauge("g").set(0.25, t=3.0)
    reg.histogram("h").observe(1.0)
    snap = reg.as_dict()
    assert snap["a.b{x=1}"] == 2
    assert snap["g"]["last"] == 0.25
    assert snap["h"]["count"] == 1


# --- percentile edge cases ---------------------------------------------------

def test_percentile_empty_series_raises():
    with pytest.raises(ValueError):
        percentile([], 50)
    h = Histogram("h", {})
    with pytest.raises(ValueError):
        h.percentile(95)
    with pytest.raises(ValueError):
        h.mean


def test_percentile_single_sample_is_that_sample():
    for q in (0, 50, 95, 100):
        assert percentile([7.5], q) == 7.5


def test_percentile_q0_and_q100_are_min_and_max():
    values = [9.0, 1.0, 5.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 9.0


def test_percentile_sorts_its_input():
    shuffled = [30.0, 10.0, 20.0]
    assert percentile(shuffled, 50) == 20.0
    # and does not mutate the caller's list
    assert shuffled == [30.0, 10.0, 20.0]


def test_percentile_interpolates_between_ranks():
    # pos = 0.75 * (2 - 1) = 0.75 between 10 and 20
    assert percentile([10.0, 20.0], 75) == pytest.approx(17.5)


# --- cross-shard snapshot merge ----------------------------------------------

def _registry_with_hist(values, name="lat"):
    registry = MetricsRegistry()
    hist = registry.histogram(name)
    for v in values:
        hist.observe(float(v))
    return registry


def test_merge_snapshot_adds_counters_and_resorts_gauges():
    a = MetricsRegistry()
    a.counter("reqs", shard=0).inc(3)
    a.gauge("load").set(1.0, t=2.0)
    b = MetricsRegistry()
    b.counter("reqs", shard=0).inc(4)
    b.gauge("load").set(0.5, t=1.0)

    merged = MetricsRegistry()
    merged.merge_snapshot(a.snapshot())
    merged.merge_snapshot(b.snapshot())
    assert merged.total("reqs") == 7
    (gauge,) = merged.find("load")
    assert gauge.times == [1.0, 2.0]        # re-sorted by sample time
    assert gauge.values == [0.5, 1.0]


def test_merge_snapshot_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MetricsRegistry().merge_snapshot([("thermometer", "t", (), 1)])


def test_histogram_merge_below_cap_is_exact():
    from repro.obs.metrics import _HISTOGRAM_CAP

    merged = MetricsRegistry()
    merged.merge_snapshot(_registry_with_hist(range(100)).snapshot())
    merged.merge_snapshot(_registry_with_hist(range(100, 300)).snapshot())
    (hist,) = merged.find("lat")
    assert hist.count == 300
    assert hist.total == sum(range(300))
    assert len(hist.observations) == 300 < _HISTOGRAM_CAP
    assert not hist.truncated and hist.dropped == 0


def test_histogram_merge_recaps_pooled_sample_at_the_bound():
    """Two shards each just under the 65536 retention cap: the pooled
    sample crosses it and must be strided down, while count/total stay
    exact accumulators."""
    from repro.obs.metrics import _HISTOGRAM_CAP

    n = _HISTOGRAM_CAP - 1          # largest untruncated single-shard sample
    merged = MetricsRegistry()
    merged.merge_snapshot(_registry_with_hist(range(n)).snapshot())
    merged.merge_snapshot(_registry_with_hist(range(n, 2 * n)).snapshot())
    (hist,) = merged.find("lat")
    assert hist.count == 2 * n                       # exact, not sampled
    assert hist.total == sum(range(2 * n))           # exact, not sampled
    assert len(hist.observations) < _HISTOGRAM_CAP   # re-capped
    assert hist.truncated and hist._stride == 2
    assert hist.dropped == 2 * n - len(hist.observations)
    # the retained sample still spans the value range usefully
    assert hist.percentile(50) == pytest.approx(n, rel=0.05)


def test_histogram_merge_exactly_at_cap_still_strides():
    # len(observations) == cap must trigger the re-cap (>= bound), never
    # leave a full-to-the-brim sample that the next observe would mangle
    from repro.obs.metrics import _HISTOGRAM_CAP

    half = _HISTOGRAM_CAP // 2
    merged = MetricsRegistry()
    merged.merge_snapshot(_registry_with_hist(range(half)).snapshot())
    merged.merge_snapshot(
        _registry_with_hist(range(half, _HISTOGRAM_CAP)).snapshot())
    (hist,) = merged.find("lat")
    assert hist.count == _HISTOGRAM_CAP
    assert len(hist.observations) == _HISTOGRAM_CAP // 2
    assert hist._stride == 2


def test_histogram_merge_of_already_truncated_shards():
    from repro.obs.metrics import _HISTOGRAM_CAP

    n = _HISTOGRAM_CAP + 10          # each shard already strided
    a = _registry_with_hist(range(n))
    b = _registry_with_hist(range(n, 2 * n))
    (ha,) = a.find("lat")
    assert ha.truncated
    merged = MetricsRegistry()
    merged.merge_snapshot(a.snapshot())
    merged.merge_snapshot(b.snapshot())
    (hist,) = merged.find("lat")
    assert hist.count == 2 * n
    assert hist.total == sum(range(2 * n))
    assert len(hist.observations) < _HISTOGRAM_CAP
    assert hist.percentile(95) == pytest.approx(1.9 * n, rel=0.05)


# --- gauge decimation (bounded series memory) -------------------------------

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
