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
* :func:`dgsf_scenario` — the full-stack variant: one
  :class:`~repro.core.deployment.DgsfDeployment` per group sharing the
  shard's environment, brought up concurrently from t=0 and driven by
  per-group arrival plans that start at a fixed absolute time.  Used by
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

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.resources import Resource

__all__ = [
    "pool_scenario",
    "pool_collect",
    "pool_metrics_collect",
    "dgsf_scenario",
    "dgsf_collect",
    "llm_shard_scenario",
    "llm_shard_collect",
    "DEFAULT_LOOKAHEAD_S",
    "DGSF_PLAN_START_S",
]

#: default cross-group link latency (= conservative lookahead) for
#: heartbeat-carrying topologies: LAN-ish 2 ms
DEFAULT_LOOKAHEAD_S = 2e-3

#: absolute sim time at which every group's arrival plan starts in
#: :func:`dgsf_scenario` — far past any group's bring-up, so plan timing
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
        trace_id = tracer.new_trace_id()
        # head-sample on (group, index): stable across shard layouts
        tracer.sample_root(trace_id, key=f"group{group}|pool|{index}",
                           scope=f"group{group}", workload="pool",
                           t_start=t0)
        root = tracer.begin(
            "invocation", cat="invocation", pid=f"group{group}",
            tid=f"inv-{index}", trace_id=trace_id,
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
# full-stack scenario: one DgsfDeployment per group
# ---------------------------------------------------------------------------

def _dgsf_group_driver(ctx, group_id, deployment, ready_events, plan):
    from repro.sim.core import AllOf
    from repro.workloads import register_workloads

    env = ctx.env
    yield AllOf(env, ready_events)
    deployment.finish_setup()
    register_workloads(deployment.platform, names=sorted(set(plan.names)))
    if env.now > DGSF_PLAN_START_S:
        raise ConfigurationError(
            f"group {group_id} bring-up overran the plan anchor "
            f"({env.now} > {DGSF_PLAN_START_S})"
        )
    yield env.timeout(DGSF_PLAN_START_S - env.now)
    records = yield from deployment.platform.run_plan(plan)
    ctx.state[group_id]["records"] = records
    if group_id != 0 and ctx.lookahead_s != float("inf"):
        # completion report to group 0 (the manager's home), carrying the
        # last invocation's trace context — a control-plane hop that
        # stitches a cross-shard leg onto the invocation's trace tree.
        # Gated on a finite lookahead: with no cross-group links declared
        # there is no wire to send it over (and the timeline must stay
        # identical to the historical link-free runs).
        trace_ctx = None
        if ctx.tracer is not None and records:
            span = records[-1]._span
            if span is not None:
                trace_ctx = (span.trace_id, span.span_id)
        ctx.port(group_id).send(
            0, "report",
            {"group": group_id, "n": len(records)},
            trace_ctx=trace_ctx,
        )


def dgsf_scenario(ctx, copies=2, num_gpus=2, mean_gap_s=2.0,
                  workload_names: Optional[list] = None,
                  tracing_enabled: bool = False):
    """One full DGSF deployment per group, co-resident on the shard's env.

    Bring-up runs concurrently from t=0 (see
    :meth:`~repro.core.deployment.DgsfDeployment.start_servers`) and each
    group's arrival plan is anchored at the absolute
    :data:`DGSF_PLAN_START_S`, so a group's timeline is bit-identical no
    matter which shard it landed on.  Monitor health loops tick forever —
    drive this scenario with ``run_sharded(..., until=<horizon>)``.
    """
    from repro.core.config import DgsfConfig
    from repro.core.deployment import DgsfDeployment
    from repro.faas.workload_gen import (
        exponential_gap_arrivals,
        interleave_workloads,
    )
    from repro.workloads import SMALLER_WORKLOAD_NAMES

    names = workload_names or SMALLER_WORKLOAD_NAMES[:2]
    for g in ctx.groups:
        group_rngs = ctx.group_rngs(g)
        deployment = DgsfDeployment(
            DgsfConfig(num_gpus=num_gpus, seed=ctx.seed,
                       tracing_enabled=tracing_enabled),
            env=ctx.env,
            rngs=group_rngs.fork("deployment"),
            # the shard tracer (when the run traces) so every deployment's
            # spans ship home in the harvest; a deployment-private tracer
            # would stay behind in the worker — note_tracer() makes that
            # loss loud instead of silent
            tracer=ctx.tracer,
            sample_scope=f"group{g}",
        )
        ctx.note_tracer(deployment.tracer)
        ctx.register_slo(g, deployment.slo)
        ready_events = deployment.start_servers()
        sequence = interleave_workloads(
            names, copies, group_rngs.stream("interleave"))
        plan = exponential_gap_arrivals(
            sequence, mean_gap_s, group_rngs.stream("gaps"))
        ctx.state[g] = {"deployment": deployment, "records": None}
        ctx.env.process(
            _dgsf_group_driver(ctx, g, deployment, ready_events, plan),
            name=f"group-{g}",
        )


def dgsf_collect(ctx) -> dict:
    """Per-group outcome census + latency aggregates (rounded)."""
    from repro.core.stats import summarize_outcomes

    rows = {}
    for g in ctx.groups:
        records = ctx.state[g]["records"]
        if records is None:
            raise ConfigurationError(
                f"group {g} plan did not finish before the horizon"
            )
        summary = summarize_outcomes(records)
        e2es = [inv.e2e_s for inv in records if inv.status == "completed"]
        rows[g] = {
            "outcomes": summary.as_dict(),
            "n": len(records),
            "p50_e2e_s": round(float(np.percentile(e2es, 50)), 6) if e2es else None,
            "p95_e2e_s": round(float(np.percentile(e2es, 95)), 6) if e2es else None,
        }
    return rows


# ---------------------------------------------------------------------------
# LLM serving scenario: one chat-serving deployment per group
# ---------------------------------------------------------------------------

def _llm_group_driver(ctx, group_id, deployment, ready_events, plan, llm_mode):
    from repro.sim.core import AllOf
    from repro.workloads import register_llm_workloads

    env = ctx.env
    yield AllOf(env, ready_events)
    deployment.finish_setup()
    register_llm_workloads(deployment.platform, names=sorted(set(plan.names)))
    if env.now > DGSF_PLAN_START_S:
        raise ConfigurationError(
            f"group {group_id} bring-up overran the plan anchor "
            f"({env.now} > {DGSF_PLAN_START_S})"
        )
    yield env.timeout(DGSF_PLAN_START_S - env.now)
    records = yield from deployment.platform.run_plan(plan, llm_mode=llm_mode)
    ctx.state[group_id]["records"] = records


def llm_shard_scenario(ctx, copies=2, num_gpus=1, burst_gap_s=3.0,
                       workload: str = "llm_chat",
                       llm_mode: str = "continuous",
                       tracing_enabled: bool = False):
    """One chat-serving DGSF deployment per group (shard-safe).

    Like :func:`dgsf_scenario` but the arrival plan is a burst plan
    (deterministic without RNG) of one LLM workload, and the batching
    mode is threaded through invocation params.  Chat traces come from
    each workload's fixed ``trace_seed``, so per-token timelines — and
    hence the merged digest — are bit-identical no matter which shard a
    group lands on.  Drive with ``run_sharded(..., until=<horizon>)``.
    """
    from repro.core.config import DgsfConfig
    from repro.core.deployment import DgsfDeployment
    from repro.faas.workload_gen import burst_arrivals

    for g in ctx.groups:
        group_rngs = ctx.group_rngs(g)
        deployment = DgsfDeployment(
            DgsfConfig(num_gpus=num_gpus, api_servers_per_gpu=2,
                       queue_discipline="mqfq", seed=ctx.seed,
                       tracing_enabled=tracing_enabled),
            env=ctx.env,
            rngs=group_rngs.fork("deployment"),
            tracer=ctx.tracer,
            sample_scope=f"group{g}",
        )
        ctx.note_tracer(deployment.tracer)
        ctx.register_slo(g, deployment.slo)
        ready_events = deployment.start_servers()
        plan = burst_arrivals([workload], bursts=copies, burst_gap_s=burst_gap_s)
        ctx.state[g] = {"deployment": deployment, "records": None}
        ctx.env.process(
            _llm_group_driver(ctx, g, deployment, ready_events, plan, llm_mode),
            name=f"group-{g}",
        )


def llm_shard_collect(ctx) -> dict:
    """Per-group token/emission census: exact counts plus the per-stream
    emission CRCs, so the merged digest pins the entire token timeline."""
    rows = {}
    for g in ctx.groups:
        records = ctx.state[g]["records"]
        if records is None:
            raise ConfigurationError(
                f"group {g} plan did not finish before the horizon"
            )
        completed = [inv for inv in records if inv.status == "completed"]
        rows[g] = {
            "n": len(records),
            "completed": len(completed),
            "n_tokens": sum(inv.result["n_tokens"] for inv in completed),
            "n_iterations": sum(inv.result["n_iterations"] for inv in completed),
            "emission_crcs": sorted(
                inv.result["emission_crc"] for inv in completed
            ),
        }
    return rows
