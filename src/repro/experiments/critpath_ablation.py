"""Critical-path ablation: where does invocation time actually go?

Runs the same arrival mix under a handful of deployment settings with
span tracing on, extracts every invocation's critical path
(:mod:`repro.obs.critpath`), and reports the *dominant resource* —
queue / wire / serialization / gpu_compute / object_store / cpu — at the
median and the tail.  The point of the ablation is that the bottleneck
**moves**:

* ``light_opt`` — uncontended, optimizations on: time is the work itself
  (object-store downloads + GPU compute).
* ``light_unopt`` — uncontended, every optimization off: each CUDA call
  becomes its own synchronous round trip, so wire/serialization time
  swamps compute (the paper's Fig. 4 motivation, seen from the trace).
* ``heavy_fcfs`` — the same mix crammed onto one GPU under FCFS: the
  §VIII-D queue dominates end-to-end latency.
* ``heavy_mqfq`` — contention again but dispatched by MQFQ fair
  queueing: still queue-bound, with the wait redistributed across
  function classes.

Each setting also validates attribution coverage: the critical path must
explain >= 95% of every root span's wall time.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig, OptimizationFlags
from repro.experiments.runner import make_plan, run_scenario
from repro.obs import aggregate_critpaths, invocation_critpaths

__all__ = ["run", "run_settings", "SETTINGS", "MIN_COVERAGE"]

#: attribution floor every invocation must meet (fraction of root wall
#: time explained by non-root spans on the critical path)
MIN_COVERAGE = 0.95

#: small-footprint mix keeps the ablation fast while still exercising
#: downloads, RPC traffic, and GPU queueing
_WORKLOADS = ["kmeans", "face_identification", "nlp_qa"]


def _light(seed: int, **over) -> DgsfConfig:
    return DgsfConfig(num_gpus=2, api_servers_per_gpu=2, seed=seed,
                      tracing_enabled=True, **over)


def _heavy(seed: int, **over) -> DgsfConfig:
    return DgsfConfig(num_gpus=1, api_servers_per_gpu=1, seed=seed,
                      tracing_enabled=True, **over)


#: setting name -> (config factory, load level)
SETTINGS = {
    "light_opt": (_light, "light"),
    "light_unopt": (
        lambda seed: _light(seed, optimizations=OptimizationFlags.none()),
        "light",
    ),
    "heavy_fcfs": (
        lambda seed: _heavy(seed, queue_discipline="fcfs"),
        "heavy",
    ),
    "heavy_mqfq": (
        lambda seed: _heavy(seed, queue_discipline="mqfq"),
        "heavy",
    ),
}


def run_settings(seed: int = 0, copies: int = 2,
                 settings=None) -> dict:
    """Run each setting; returns ``{setting: {"aggregate", "rows", ...}}``.

    Light settings use sparse arrivals (no contention); heavy settings
    fire the same interleaving with near-zero gaps at a single GPU.
    """
    out = {}
    for name, (factory, load) in (settings or SETTINGS).items():
        gap = 8.0 if load == "light" else 0.2
        plan = make_plan("exponential", seed=seed, copies=copies,
                         names=_WORKLOADS, mean_gap_s=gap)
        result = run_scenario(factory(seed), plan).require_completed()
        rows = invocation_critpaths(
            result.deployment.tracer, result.invocations
        )
        out[name] = {
            "rows": rows,
            "aggregate": aggregate_critpaths(rows),
            "deployment": result.deployment,
            "invocations": result.invocations,
        }
    return out


def run(seed: int = 0, copies: int = 2) -> list[dict]:
    """Table rows: one per setting — dominant resource at p50/p95.

    Raises if any invocation's critical-path coverage falls below
    :data:`MIN_COVERAGE` — attribution holes are a bug, not a footnote.
    """
    results = run_settings(seed=seed, copies=copies)
    table = []
    for name, res in results.items():
        agg = res["aggregate"]
        low = [r for r in res["rows"] if r["coverage"] < MIN_COVERAGE]
        if low:
            worst = min(low, key=lambda r: r["coverage"])
            raise AssertionError(
                f"{name}: {len(low)} invocations under {MIN_COVERAGE:.0%} "
                f"critical-path coverage (worst {worst['coverage']:.3f}, "
                f"invocation {worst['invocation_id']})"
            )
        top = agg["top_bottleneck"]
        p50_stats = agg["resources"][top["p50"]]
        p95_stats = agg["resources"][top["p95"]]
        table.append({
            "setting": name,
            "n": agg["count"],
            "bottleneck_p50": top["p50"],
            "p50_share": round(p50_stats["share_p50"], 3),
            "bottleneck_p95": top["p95"],
            "p95_share": round(p95_stats["share_p95"], 3),
            "e2e_p50_s": round(agg["e2e"]["p50"], 2),
            "e2e_p95_s": round(agg["e2e"]["p95"], 2),
            "coverage_min": round(agg["coverage_min"], 4),
        })
    return table
