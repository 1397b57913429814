"""LLM serving ablation: continuous vs request-level batching (extension).

Chat-traffic scenario families over the LLM workloads
(:mod:`repro.workloads.llm_workloads`):

* ``steady`` — plain chat traffic; the headline comparison.  Request-
  level batching drains a whole batch before admitting newcomers, so an
  arrival behind a long generation waits out the drain and its first
  token lands late: p99 token latency (which folds in time-to-first-
  token) blows up.  Continuous batching admits between iterations and
  the tail collapses.
* ``long_context`` — 15% retrieval-sized prompts; same comparison with
  bursty KV growth.
* ``eviction_storm`` — two co-resident engines whose declared
  reservations nearly fill the GPU: KV page charges get denied and the
  LIFO preempt/recompute path runs (the counters in the row prove it).
* ``cache_migration`` — two engines packed onto one of two GPUs
  (best-fit) with migration enabled: sustained imbalance moves one
  engine — with its KV charge — to the idle GPU mid-serve.

Every scenario runs under ``mqfq`` queueing so LLM functions exercise
the per-flow scheduler path like any other workload class.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig
from repro.errors import SimulationError
from repro.experiments.runner import make_plan, run_scenario
from repro.obs.diff import attribution_from_tracer
from repro.obs.metrics import percentile

__all__ = ["run", "config", "sections", "SCENARIOS", "EXPERIMENT", "GATES"]

#: ``BENCH_llm.json``: experiment id and its gates — the engine counters
#: and the migration count are exact, latency percentiles banded, and
#: nothing throughput-shaped is recorded
EXPERIMENT = "llm_bench"
GATES = {"rows": {
    "key": ["scenario", "mode"],
    "exact": ["n_requests", "n_tokens", "n_iterations", "n_preemptions",
              "n_kv_denials", "n_recomputes", "n_migrations"],
    "ignore": [],
}}

#: gap between the bursts of concurrent invocations (one per ``copies``)
BURST_GAP_S = 3.0

#: scenario -> (workload, deployment shape); a shape's ``copies`` and
#: ``burst_gap_s`` override the plan's
SCENARIOS = {
    "steady": ("llm_chat", dict(num_gpus=1)),
    "long_context": ("llm_chat_long", dict(num_gpus=1)),
    "eviction_storm": ("llm_chat_storm", dict(num_gpus=1)),
    # exactly two co-resident engines (tight burst, best-fit) so the
    # second GPU stays idle and sustained imbalance can trigger a move
    "cache_migration": (
        "llm_chat_long",
        dict(num_gpus=2, migration_enabled=True, policy="best_fit",
             copies=2, burst_gap_s=0.5),
    ),
}

MODES = ("request", "continuous")


def config(seed: int = 0, **overrides) -> DgsfConfig:
    """The ablation's deployment: two API servers per GPU under ``mqfq``.

    Tracing is on: it is pure bookkeeping (no events, no RNG), so the
    served timeline and every latency number are identical with it off,
    and the spans feed each row's regression attribution.  The batching
    mode reaches the handler through invocation params (``llm_mode``).
    """
    overrides.setdefault("num_gpus", 1)
    overrides.setdefault("tracing_enabled", True)
    return DgsfConfig(api_servers_per_gpu=2, queue_discipline="mqfq",
                      seed=seed, **overrides)


def _row(scenario: str, mode: str, records, dep) -> dict:
    token_obs, ttft_obs = [], []
    for hist in dep.metrics.find("llm.token_latency_s", mode=mode):
        token_obs.extend(hist.observations)
    for hist in dep.metrics.find("llm.ttft_s", mode=mode):
        ttft_obs.extend(hist.observations)
    totals = {"n_requests": 0, "n_tokens": 0, "n_iterations": 0,
              "n_preemptions": 0, "n_kv_denials": 0, "n_recomputes": 0}
    for rec in records:
        for key in totals:
            totals[key] += rec.result[key]
    kv_peak_frac = 0.0
    for gauge in dep.metrics.find("gpu.committed_frac"):
        if gauge.values:
            kv_peak_frac = max(kv_peak_frac, max(gauge.values))
    n_migrations = sum(
        len(server.monitor.migration_records) for server in dep.gpu_servers
    )
    row = {
        "scenario": scenario,
        "mode": mode,
        **totals,
        "n_migrations": n_migrations,
        "p50_token_ms": round(percentile(token_obs, 50) * 1e3, 2),
        "p99_token_ms": round(percentile(token_obs, 99) * 1e3, 2),
        "p99_ttft_s": round(percentile(ttft_obs, 99), 3),
        "committed_peak_frac": round(kv_peak_frac, 3),
    }
    if dep.tracer is not None:
        # tail-cohort critical-path attribution (repro.obs.diff): one
        # deployment per (scenario, mode), so the single workload's
        # entry is the row's.  bench_compare --explain diffs these maps
        # to name the category behind a banded-metric failure.
        attr = attribution_from_tracer(dep.tracer)
        if attr:
            (_, entry), = attr.items()
            row["attribution"] = entry
    return row


def run(seed: int = 0, copies: int = 2,
        scenarios: tuple = tuple(SCENARIOS)) -> list[dict]:
    """Rows: (scenario, mode) -> token-latency tail + engine counters."""
    rows = []
    for scenario in scenarios:
        workload, shape = SCENARIOS[scenario]
        shape = dict(shape)
        plan = make_plan("burst", seed, copies=shape.pop("copies", copies),
                         names=[workload],
                         burst_gap_s=shape.pop("burst_gap_s", BURST_GAP_S))
        for mode in MODES:
            result = run_scenario(config(seed, **shape), plan,
                                  llm_mode=mode).require_completed()
            rows.append(_row(scenario, mode, result.invocations,
                             result.deployment))
    return rows


def sections(seed: int = 0, copies: int = 2) -> dict[str, list[dict]]:
    """``BENCH_llm.json``'s one section.

    Raises :class:`SimulationError` unless the ablation's headline claim
    holds — continuous batching beats request-level batching on
    steady-chat p99 token latency — so a baseline can never record a
    world where it stopped holding.
    """
    rows = run(seed=seed, copies=copies)
    p99 = {row["mode"]: row["p99_token_ms"]
           for row in rows if row["scenario"] == "steady"}
    if p99["continuous"] >= p99["request"]:
        raise SimulationError(
            f"continuous p99 token latency ({p99['continuous']} ms) does not "
            f"beat request-level ({p99['request']} ms) on the steady chat "
            f"scenario"
        )
    return {"rows": rows}
