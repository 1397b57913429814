"""Shard-aware topology builders: what actually runs inside a shard.

The shard runtime (:mod:`repro.sim.shard`) is scenario-agnostic — it
spawns workers, steps epochs, and merges rows.  This module supplies the
scenarios, each a module-level function so ``multiprocessing`` spawn can
pickle it by reference:

* :func:`pool_scenario` — the independent-GPU-pool queueing model of the
  shard ablation (:mod:`repro.experiments.shard_ablation`): per group, a
  pre-drawn Poisson arrival stream feeds an M/M/c GPU pool (a few kernel
  events per invocation), so
  a million-invocation deployment is dominated by event-queue throughput
  — exactly what sharding is meant to scale.  An optional heartbeat
  stream to group 0 (the manager's home) exercises the cross-shard
  envelope path and epoch barriers.
* :func:`plan_scenario` — the full-stack variant: one
  :class:`~repro.core.deployment.DgsfDeployment` of a given
  :class:`~repro.core.config.DgsfConfig` per group sharing the shard's
  environment, each running :func:`drive_plan` — the scenario process
  that :func:`repro.experiments.runner.run_scenario` runs inline — on a
  per-group arrival plan that starts at a fixed absolute time.  Used by
  the shard-count-invariance tests and ``scripts/shard_report.py``.

Invariance rules every scenario here obeys (and new ones must):

* all randomness comes from ``ctx.group_rngs(g)`` — keyed by group id,
  never by shard id or worker index;
* group-to-group traffic goes through ``ctx.port(g)``, even when both
  groups share a shard;
* anything time-synchronized across groups (plan starts) anchors to an
  absolute sim time, not to "after my neighbours finished bring-up";
* collected rows are JSON-shaped with rounded floats, aggregated in
  invocation-index order, so the merged digest is layout-independent.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.faas.workload_gen import ArrivalPlan, draw_plan
from repro.sim.resources import Resource

__all__ = [
    "pool_scenario",
    "pool_collect",
    "pool_metrics_collect",
    "drive_plan",
    "plan_scenario",
    "plan_collect",
    "DEFAULT_LOOKAHEAD_S",
    "DGSF_PLAN_START_S",
]

#: default cross-group link latency (= conservative lookahead) for
#: heartbeat-carrying topologies: LAN-ish 2 ms
DEFAULT_LOOKAHEAD_S = 2e-3

#: absolute sim time at which every group's arrival plan starts in
#: :func:`plan_scenario` — far past any group's bring-up, so plan timing
#: never depends on which groups share a shard
DGSF_PLAN_START_S = 60.0


# ---------------------------------------------------------------------------
# independent-pool queueing scenario (bench + determinism tests)
# ---------------------------------------------------------------------------

def _pool_invocation(env, gpu, service_s, index, stats, tracer=None, group=0):
    t0 = env.now
    request = gpu.request()
    yield request
    t_acquired = env.now
    yield env.timeout(service_s)
    gpu.release(request)
    t_end = env.now
    stats["lat"][index] = t_end - t0
    stats["completed"] += 1
    if tracer is not None:
        # one root span + queue/service children per invocation: enough
        # structure for critpath attribution and the bench tracing section
        root = tracer.begin(
            "invocation", cat="invocation", pid=f"group{group}",
            tid=f"inv-{index}", trace_id=tracer.new_trace_id(),
            t_start=t0, invocation_id=index, group=group,
        )
        root.child_complete("gpu_queue", t0, t_acquired, cat="phase")
        root.child_complete("service", t_acquired, t_end, cat="server")
        root.end(t_end)


def _pool_driver(env, gpu, arrival_times, service_times, stats,
                 tracer=None, group=0):
    arrivals = env.timeout_batch([t - env.now for t in arrival_times])
    for i, arrival in enumerate(arrivals):
        yield arrival
        env.process(_pool_invocation(env, gpu, service_times[i], i, stats,
                                     tracer=tracer, group=group))


def _heartbeat_sender(ctx, group_id, period_s, count):
    port = ctx.port(group_id)
    for k in range(count):
        yield ctx.env.timeout(period_s)
        port.send(0, "hb", {"group": group_id, "k": k})


def _heartbeat_sink(ctx, sink_stats):
    port = ctx.port(0)
    while True:
        envelope = yield port.recv("hb")
        sink_stats["hb_received"] += 1
        sink_stats["hb_last_t"] = ctx.env.now
        sink_stats["hb_groups"].add(envelope.payload["group"])


def pool_scenario(ctx, invocations_per_group=1000, num_gpus=4,
                  mean_gap_s=0.05, service_mean_s=0.18,
                  heartbeat_period_s: Optional[float] = None,
                  heartbeat_count: int = 0):
    """Per group: Poisson arrivals into an M/M/c GPU pool.

    With ``heartbeat_period_s`` set, every group g>0 sends
    ``heartbeat_count`` envelopes to group 0, whose sink counts them —
    the cross-shard sync path under test.  Group 0 always hosts the sink
    (it owns the manager), so ``run_sharded`` must be given a finite
    lookahead no larger than the heartbeat link delay.
    """
    if invocations_per_group <= 0:
        raise ConfigurationError("invocations_per_group must be positive")
    env = ctx.env
    for g in ctx.groups:
        rngs = ctx.group_rngs(g)
        gaps = rngs.stream("arrivals").exponential(
            mean_gap_s, size=invocations_per_group)
        service = rngs.stream("service").exponential(
            service_mean_s, size=invocations_per_group)
        arrival_times = np.cumsum(gaps).tolist()
        stats = {
            "lat": np.zeros(invocations_per_group),
            "completed": 0,
            "hb_received": 0,
            "hb_last_t": -1.0,
            "hb_groups": set(),
        }
        ctx.state[g] = stats
        gpu = Resource(env, capacity=num_gpus)
        env.process(
            _pool_driver(env, gpu, arrival_times, service.tolist(), stats,
                         tracer=ctx.tracer, group=g),
            name=f"pool-{g}",
        )
        if heartbeat_period_s is not None and g != 0:
            env.process(
                _heartbeat_sender(ctx, g, heartbeat_period_s, heartbeat_count),
                name=f"hb-{g}",
            )
        if heartbeat_period_s is not None and g == 0:
            env.process(_heartbeat_sink(ctx, stats), name="hb-sink")


def pool_collect(ctx) -> dict:
    """Per-group latency aggregates, rounded for digest stability."""
    rows = {}
    for g in ctx.groups:
        stats = ctx.state[g]
        lat = stats["lat"]
        if stats["completed"] != len(lat):
            raise ConfigurationError(
                f"group {g}: {stats['completed']}/{len(lat)} invocations completed"
            )
        lat_ms = lat * 1e3
        rows[g] = {
            "n": int(stats["completed"]),
            "mean_ms": round(float(lat_ms.mean()), 6),
            "p50_ms": round(float(np.percentile(lat_ms, 50)), 6),
            "p95_ms": round(float(np.percentile(lat_ms, 95)), 6),
            "max_ms": round(float(lat_ms.max()), 6),
            "hb_received": int(stats["hb_received"]),
            "hb_groups": sorted(stats["hb_groups"]),
            "hb_last_t": round(float(stats["hb_last_t"]), 9),
        }
    return rows


def pool_metrics_collect(ctx) -> list:
    """A tiny per-group metrics snapshot (exercises cross-process merge)."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    for g in ctx.groups:
        stats = ctx.state[g]
        registry.counter("shard.invocations_completed").inc(stats["completed"])
        hist = registry.histogram("shard.invocation_latency_s")
        for value in stats["lat"]:
            hist.observe(float(value))
    return registry.snapshot()




# ---------------------------------------------------------------------------
# full-stack scenario: one DgsfDeployment per group, driven by an arrival plan
# ---------------------------------------------------------------------------

def drive_plan(deployment, plan, sample_utilization: bool = False,
               **invoke_params) -> Generator:
    """The one scenario process: every plan-driven run executes this.

    Brings ``deployment`` up (:meth:`~repro.core.deployment.DgsfDeployment.
    start_servers`, then ``finish_setup`` once every server is ready),
    registers the plan's paper and LLM functions, starts NVML sampling
    when asked, and launches each plan entry ``(t, name)`` at the absolute
    time ``t`` with ``invoke_params``.  Entries due before bring-up ends
    launch as soon as it does.  Returns the invocation records in launch
    order; a failed invocation stays on its record
    (:meth:`~repro.faas.platform.ServerlessPlatform.run_plan`).
    """
    from repro.workloads import register_llm_workloads, register_workloads

    env = deployment.env
    yield env.all_of(deployment.start_servers())
    deployment.finish_setup()
    names = sorted(set(plan.names))
    register_workloads(deployment.platform, names=names)
    register_llm_workloads(deployment.platform, names=names)
    nvml = deployment.gpu_server.nvml
    if sample_utilization:
        nvml.start()
    records = yield from deployment.platform.run_plan(plan, **invoke_params)
    if sample_utilization:
        nvml.stop()
    return records


def plan_scenario(ctx, config, recipe: dict):
    """One DGSF deployment of ``config`` per group, on the shard's env.

    Each group draws its own arrival plan with
    :func:`~repro.faas.workload_gen.draw_plan` from ``ctx.group_rngs(g)``
    (``recipe`` holds every argument but the registry, e.g.
    ``{"mode": "burst", "names": ["llm_chat"], "copies": 2}``), shifts it
    to start at the absolute :data:`DGSF_PLAN_START_S`, and runs
    :func:`drive_plan` on it, so a group's timeline is bit-identical no
    matter which shard it landed on.  Monitor health loops tick forever —
    drive this scenario with ``run_sharded(..., until=<horizon>)``.
    """
    from repro.core.deployment import DgsfDeployment

    for g in ctx.groups:
        group_rngs = ctx.group_rngs(g)
        deployment = DgsfDeployment(
            config,
            env=ctx.env,
            rngs=group_rngs.fork("deployment"),
            # the shard tracer (when the run traces) so every deployment's
            # spans ship home in the harvest; a deployment-private tracer
            # would stay behind in the worker — note_tracer() makes that
            # loss loud instead of silent
            tracer=ctx.tracer,
        )
        ctx.note_tracer(deployment.tracer)
        ctx.register_slo(g, deployment.slo)
        plan = ArrivalPlan(tuple((DGSF_PLAN_START_S + t, name)
                                 for t, name in draw_plan(group_rngs, **recipe)))
        ctx.state[g] = {"deployment": deployment, "records": None}
        ctx.env.process(_plan_group(ctx, g, deployment, plan),
                        name=f"group-{g}")


def _plan_group(ctx, group_id, deployment, plan):
    records = yield from drive_plan(deployment, plan)
    first = plan.entries[0][0]
    if records[0].t_submit > first:
        raise ConfigurationError(
            f"group {group_id} bring-up overran the plan anchor "
            f"(first launch at {records[0].t_submit} > {first})"
        )
    ctx.state[group_id]["records"] = records
    if group_id != 0 and ctx.lookahead_s != float("inf"):
        # completion report to group 0 (the manager's home), carrying the
        # last invocation's trace context — a control-plane hop that
        # stitches a cross-shard leg onto the invocation's trace tree.
        # Gated on a finite lookahead: with no cross-group links declared
        # there is no wire to send it over.
        trace_ctx = None
        if ctx.tracer is not None:
            span = records[-1]._span
            if span is not None:
                trace_ctx = (span.trace_id, span.span_id)
        ctx.port(group_id).send(
            0, "report",
            {"group": group_id, "n": len(records)},
            trace_ctx=trace_ctx,
        )


def plan_collect(ctx) -> dict:
    """Per-group outcome census, latency aggregates and invocation
    timeline (rounded); groups serving LLM functions add their token
    census and per-stream emission CRCs, so the merged digest pins the
    whole token timeline too."""
    from repro.core.stats import summarize_outcomes
    from repro.workloads import LLM_WORKLOADS

    rows = {}
    for g in ctx.groups:
        records = ctx.state[g]["records"]
        if records is None:
            raise ConfigurationError(
                f"group {g} plan did not finish before the horizon"
            )
        e2es = [inv.e2e_s for inv in records if inv.status == "completed"]
        row = {
            "outcomes": summarize_outcomes(records).as_dict(),
            "n": len(records),
            "p50_e2e_s": round(float(np.percentile(e2es, 50)), 6) if e2es else None,
            "p95_e2e_s": round(float(np.percentile(e2es, 95)), 6) if e2es else None,
            "timeline": [[inv.function_name, inv.status,
                          round(inv.t_submit, 9), round(inv.t_end, 9)]
                         for inv in records],
        }
        served = [inv.result for inv in records
                  if inv.status == "completed"
                  and inv.function_name in LLM_WORKLOADS]
        if served:
            row["n_tokens"] = sum(r["n_tokens"] for r in served)
            row["n_iterations"] = sum(r["n_iterations"] for r in served)
            row["emission_crcs"] = sorted(r["emission_crc"] for r in served)
        rows[g] = row
    return rows
