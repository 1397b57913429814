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
  becomes its own synchronous round trip.  GPU compute still dominates,
  but the wire's share of the critical path grows (at seed 0, copies 2,
  its median share 0.06 -> 0.15 and its p95 share 0.18 -> 0.43), and
  serialization stays at zero: the paper's Fig. 4 motivation, seen from
  the trace.
* ``heavy_fcfs`` — the same mix crammed onto one GPU under FCFS: the
  §VIII-D queue dominates end-to-end latency.
* ``heavy_mqfq`` — contention again but dispatched by MQFQ fair
  queueing: still queue-bound, with the wait redistributed across
  function classes.

Each setting also validates attribution coverage: the critical path must
explain >= 95% of every root span's wall time.  :func:`run` ends with
:func:`check`, which raises :class:`SimulationError` naming the first of
these claims that its rows break.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig, OptimizationFlags
from repro.errors import SimulationError
from repro.experiments.runner import make_plan, run_scenario
from repro.obs import aggregate_critpaths, invocation_critpaths

__all__ = ["run", "run_settings", "check", "SETTINGS", "MIN_COVERAGE"]

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
            "wire_p50_share": round(agg["resources"]["wire"]["share_p50"], 3),
            "e2e_p50_s": round(agg["e2e"]["p50"], 2),
            "e2e_p95_s": round(agg["e2e"]["p95"], 2),
            "coverage_min": round(agg["coverage_min"], 4),
        })
    check(table)
    return table


def _claim(holds: bool, claim: str) -> None:
    if not holds:
        raise SimulationError(f"critical-path claim broken: {claim}")


def check(rows: list[dict]) -> None:
    """Raise :class:`SimulationError` naming the first broken claim."""
    cell = {row["setting"]: row for row in rows}
    _claim(set(cell) == set(SETTINGS),
           f"one row per setting ({sorted(cell)})")
    for name, row in cell.items():
        _claim(row["coverage_min"] >= MIN_COVERAGE,
               f"{name} covers at least {MIN_COVERAGE:.0%} of every "
               f"invocation ({row['coverage_min']})")
    # the dominant resource moves across settings: a profiler that always
    # blames the same thing is useless
    bottlenecks = {row["bottleneck_p50"] for row in rows}
    _claim(len(bottlenecks) >= 2,
           f"the median bottleneck differs across settings ({bottlenecks})")
    # uncontended and optimized, the work itself dominates
    light = cell["light_opt"]
    _claim(light["bottleneck_p50"] == "gpu_compute",
           f"light_opt's median bottleneck is gpu_compute "
           f"({light['bottleneck_p50']})")
    # every optimization off, each CUDA call crosses the wire on its own
    unopt = cell["light_unopt"]
    _claim(unopt["wire_p50_share"] > light["wire_p50_share"],
           f"light_unopt's median wire share exceeds light_opt's "
           f"({unopt['wire_p50_share']} vs {light['wire_p50_share']})")
    # single-GPU contention: queueing dominates under either discipline,
    # with a larger median share than when uncontended
    light_queue = light["p50_share"] if light["bottleneck_p50"] == "queue" \
        else 0.0
    for name in ("heavy_fcfs", "heavy_mqfq"):
        _claim(cell[name]["bottleneck_p50"] == "queue",
               f"{name}'s median bottleneck is queue "
               f"({cell[name]['bottleneck_p50']})")
    _claim(cell["heavy_fcfs"]["p50_share"] > light_queue,
           f"heavy_fcfs's median queue share exceeds light_opt's "
           f"({cell['heavy_fcfs']['p50_share']} vs {light_queue})")
