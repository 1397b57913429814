"""Cross-layer observability: span tracing, metrics registry, reports.

``repro.obs`` is the substrate every layer of the stack reports into:

* :mod:`repro.obs.trace` — a bounded sim-time span :class:`Tracer` with
  Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauge time-series, and sim-time histograms, plus the
  :func:`~repro.obs.metrics.percentile` helper every report uses.
* :mod:`repro.obs.critpath` — the one per-invocation analysis row over
  span trees: critical-path attribution per resource (queue / wire /
  serialization / gpu_compute / object_store / cpu), the phase split
  with its coverage, and the RPC call mix; p50/p95/p99 aggregation,
  top-bottleneck tables, and folded flamegraph export.
* :mod:`repro.obs.slo` — a streaming SLO engine over the registry's
  observation stream: multi-window burn-rate availability alerts, GPU
  imbalance and queue-starvation detectors, structured
  :class:`~repro.obs.slo.AlertEvent` logs — plus
  :func:`~repro.obs.slo.evaluate_cluster_slo`, which replays a *merged*
  registry's gauge series so cluster-scope conditions (cross-shard GPU
  imbalance) are evaluated after a sharded run.
* :mod:`repro.obs.flight` — flight-recorder bundles: one self-validating
  artifact directory per sharded run (merged trace, metrics, alerts,
  critpath, folded flame stacks, epoch telemetry, manifest).
* :mod:`repro.obs.sampling` — deterministic head sampling (trace-key
  hash vs ``DgsfConfig.trace_sample_rate``) plus tail-keep rules that
  retain the interesting traces: errored/preempted roots, SLO-alert
  exemplars and overlaps, and each window's latency maximum.  Decisions
  propagate over the cross-shard wire so a trace is kept or dropped
  whole, identically for every shard count.
* :mod:`repro.obs.diff` — differential regression attribution: align
  two runs' tail-cohort critical-path attributions by workload x
  percentile x category and decompose a latency delta additively
  ("steady p99 +40 ms: 80% queue, 15% gpu_compute"), plus a difffolded
  flamegraph diff.

Everything here is pure bookkeeping: recording a span or bumping a
counter reads ``env.now`` and appends to Python lists, but never creates
events, timeouts, or RNG draws — so an instrumented run is
timeline-identical to an uninstrumented one, and the determinism goldens
hold bit-for-bit with tracing, SLO evaluation and critical-path
collection on or off.
"""

from repro.obs.diff import (
    attribution_from_bundle,
    attribution_from_tracer,
    cohort_attribution,
    diff_attribution,
    flame_diff,
    format_diff_row,
    load_attribution,
)
from repro.obs.critpath import (
    aggregate_critpaths,
    bottleneck_table,
    critical_path,
    critpath_report,
    dump_folded,
    folded_stacks,
    invocation_critpaths,
)
from repro.obs.flight import (
    load_bundle_records,
    load_chrome_records,
    validate_flight_bundle,
    write_flight_bundle,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from repro.obs.sampling import TraceSampler
from repro.obs.slo import AlertEvent, SloEngine, default_rules, evaluate_cluster_slo
from repro.obs.trace import NullSpan, Span, SpanRecord, Tracer, trace_digest

__all__ = [
    "AlertEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSpan",
    "SloEngine",
    "Span",
    "SpanRecord",
    "Tracer",
    "TraceSampler",
    "aggregate_critpaths",
    "attribution_from_bundle",
    "attribution_from_tracer",
    "bottleneck_table",
    "cohort_attribution",
    "critical_path",
    "critpath_report",
    "default_rules",
    "diff_attribution",
    "dump_folded",
    "evaluate_cluster_slo",
    "flame_diff",
    "folded_stacks",
    "format_diff_row",
    "invocation_critpaths",
    "load_attribution",
    "load_bundle_records",
    "load_chrome_records",
    "percentile",
    "trace_digest",
    "validate_flight_bundle",
    "write_flight_bundle",
]
