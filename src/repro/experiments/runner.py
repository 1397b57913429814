"""Shared experiment machinery: deployments, single runs, mixed scenarios."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.audit import AuditReport, audit_deployment
from repro.core.config import DgsfConfig, OptimizationFlags
from repro.core.deployment import DgsfDeployment, NativeDeployment
from repro.core.stats import (
    OutcomeSummary,
    RunStats,
    summarize_invocations,
    summarize_outcomes,
)
from repro.errors import ConfigurationError
from repro.faas.platform import Invocation
from repro.faas.workload_gen import (
    ArrivalPlan,
    burst_arrivals,
    exponential_gap_arrivals,
    interleave_workloads,
    schedule_arrivals,
)
from repro.sim.rng import RngRegistry
from repro.workloads import register_workloads, ALL_WORKLOAD_NAMES

__all__ = [
    "build_deployment",
    "run_single_invocation",
    "run_single_invocation_traced",
    "run_mixed_scenario",
    "run_chaos_scenario",
    "MixedScenarioResult",
    "ChaosScenarioResult",
]

VARIANTS = ("native", "dgsf", "dgsf_unopt", "dgsf_warm", "lambda", "cpu")

#: artifact-cache capacity used by the ``dgsf_warm`` variant when the
#: caller's config leaves caching off — large enough for any single
#: workload's model + input set (the largest is ~1.3 GB)
WARM_CACHE_BYTES = 4 << 30


def build_deployment(variant: str, config: Optional[DgsfConfig] = None):
    """Create (but do not set up) a deployment for one execution variant."""
    config = config or DgsfConfig(num_gpus=1)
    if variant in ("native", "cpu"):
        return NativeDeployment(
            num_gpus=config.num_gpus if variant == "native" else 1,
            seed=config.seed, tracing_enabled=config.tracing_enabled,
            trace_max_spans=config.trace_max_spans,
            trace_sample_rate=config.trace_sample_rate,
        )
    if variant == "dgsf":
        return DgsfDeployment(config)
    if variant == "dgsf_unopt":
        return DgsfDeployment(config.with_(optimizations=OptimizationFlags.none()))
    if variant == "dgsf_warm":
        if config.artifact_cache_bytes <= 0:
            config = config.with_(artifact_cache_bytes=WARM_CACHE_BYTES)
        return DgsfDeployment(config)
    if variant == "lambda":
        return DgsfDeployment.lambda_deployment(config)
    raise ConfigurationError(f"unknown variant {variant!r} (choose from {VARIANTS})")


def run_single_invocation(
    workload: str,
    variant: str = "dgsf",
    config: Optional[DgsfConfig] = None,
) -> Invocation:
    """Run one uncontended invocation of ``workload`` under ``variant``.

    The ``dgsf_warm`` variant runs a priming invocation first and reports
    the second (warm-cache) one: its artifacts are already staged on the
    API server, so the download phase collapses to local staging time.
    """
    inv, _ = _run_single(workload, variant, config)
    return inv


def run_single_invocation_traced(
    workload: str,
    variant: str = "dgsf",
    config: Optional[DgsfConfig] = None,
):
    """Like :func:`run_single_invocation` but with span tracing forced on.

    Returns ``(invocation, deployment)`` so callers can export the trace
    (``deployment.tracer.dump_chrome``) and the metrics registry alongside
    the invocation itself.
    """
    config = (config or DgsfConfig(num_gpus=1)).with_(tracing_enabled=True)
    return _run_single(workload, variant, config)


def _run_single(workload, variant, config):
    dep = build_deployment(variant, config)
    dep.setup()
    register_workloads(dep.platform, names=[workload], cpu=(variant == "cpu"))
    if variant == "dgsf_warm":
        prime, proc = dep.platform.invoke(workload)
        dep.env.run(until=proc)
        if prime.status != "completed":
            raise RuntimeError(f"{workload}/{variant} priming failed: {prime.result}")
    inv, proc = dep.platform.invoke(workload)
    dep.env.run(until=proc)
    if inv.status != "completed":
        raise RuntimeError(f"{workload}/{variant} failed: {inv.result}")
    return inv, dep


@dataclass
class MixedScenarioResult:
    """Outcome of a mixed-workload scenario run."""

    config: DgsfConfig
    invocations: list[Invocation]
    stats: RunStats
    deployment: DgsfDeployment
    #: average NVML utilization per GPU (%; only when sampling was on)
    avg_utilization: Optional[float] = None


def make_plan(mode: str, seed: int, copies: int = 10,
              names: Optional[list[str]] = None,
              mean_gap_s: float = 2.0, burst_gap_s: float = 2.0) -> ArrivalPlan:
    """Arrival plans used across §VIII-D: exponential gaps or bursts.

    The same ``seed`` yields the same interleaving and gaps for every
    configuration under comparison — the paper's "random (but
    consistent) order".
    """
    names = names or ALL_WORKLOAD_NAMES
    rngs = RngRegistry(seed=seed)
    if mode == "exponential":
        sequence = interleave_workloads(names, copies, rngs.stream("interleave"))
        return exponential_gap_arrivals(sequence, mean_gap_s, rngs.stream("gaps"))
    if mode == "burst":
        return burst_arrivals(names, bursts=copies, burst_gap_s=burst_gap_s)
    raise ConfigurationError(f"unknown arrival mode {mode!r}")


def run_mixed_scenario(
    config: DgsfConfig,
    plan: ArrivalPlan,
    sample_utilization: bool = False,
) -> MixedScenarioResult:
    """Run an arrival plan against one DGSF configuration."""
    dep = DgsfDeployment(config)
    dep.setup()
    register_workloads(dep.platform, names=sorted(set(plan.names)))
    if sample_utilization:
        dep.gpu_server.nvml.start()
    start = dep.env.now
    proc = dep.env.process(dep.platform.run_plan(plan), name="scenario")
    records = dep.env.run(until=proc)
    if sample_utilization:
        dep.gpu_server.nvml.stop()
    stats = summarize_invocations(records)
    avg_util = (
        dep.gpu_server.nvml.average_utilization() if sample_utilization else None
    )
    return MixedScenarioResult(
        config=config,
        invocations=records,
        stats=stats,
        deployment=dep,
        avg_utilization=avg_util,
    )


@dataclass
class ChaosScenarioResult:
    """Outcome of a fault-injected scenario run."""

    config: DgsfConfig
    invocations: list[Invocation]
    outcomes: OutcomeSummary
    audit: AuditReport
    deployment: DgsfDeployment
    #: API-server crashes observed by the monitor's health loop
    crashes_detected: int
    #: orphaned GPU requests re-queued after a crash
    requests_requeued: int
    #: API servers successfully brought back up
    servers_restarted: int
    #: SLO alert transitions (firing/resolved) logged during the run
    alerts: list = None

    @property
    def clean(self) -> bool:
        """Every invocation terminal and every invariant holding."""
        return self.outcomes.all_terminal and self.audit.ok


def run_chaos_scenario(
    config: DgsfConfig,
    plan: ArrivalPlan,
    settle_s: float = 30.0,
    horizon_s: float = 3600.0,
) -> ChaosScenarioResult:
    """Run an arrival plan under fault injection (``config.fault_plan``).

    Unlike :func:`run_mixed_scenario`, individual invocations are allowed
    to fail — a crashed API server turns in-flight calls into function
    failures, which here are data, not errors.  Every invocation process
    gets a joiner that absorbs its exception so a failure neither crashes
    the simulation nor aborts the run.

    After the last invocation terminates (or ``horizon_s`` elapses — the
    liveness backstop), the deployment idles for ``settle_s`` so pending
    recoveries finish, then the invariant auditor inspects the end state.
    """
    dep = DgsfDeployment(config)
    dep.setup()
    register_workloads(dep.platform, names=sorted(set(plan.names)))
    env = dep.env

    def absorb(proc):
        def joiner():
            try:
                yield proc
            except Exception:
                pass  # recorded on the Invocation; chaos runs expect failures

        return env.process(joiner(), name=f"absorb-{proc.name}")

    records: list[Invocation] = []

    def driver():
        joiners = []
        arrivals = schedule_arrivals(env, plan)
        for (t, name), arrival in zip(plan, arrivals):
            if arrival is not None:
                yield arrival
            inv, proc = dep.platform.invoke(name)
            records.append(inv)
            joiners.append(absorb(proc))
        yield env.all_of(joiners)

    done = env.process(driver(), name="chaos-driver")
    # The monitor's health/stats loops run forever, so run-until-drained
    # would never return; bound the run by the driver or the horizon.
    env.run(until=env.any_of([done, env.timeout(horizon_s)]))
    env.run(until=env.now + settle_s)
    # final SLO sweep at the end-of-run clock so alerts that should have
    # cleared during the settle window resolve before we snapshot the log
    dep.slo.evaluate(env.now)

    outcomes = summarize_outcomes(records)
    audit = audit_deployment(dep, end_state=True, check_schedulable=True)
    return ChaosScenarioResult(
        config=config,
        invocations=records,
        outcomes=outcomes,
        audit=audit,
        deployment=dep,
        crashes_detected=sum(g.monitor.crashes_detected for g in dep.gpu_servers),
        requests_requeued=sum(g.monitor.requests_requeued for g in dep.gpu_servers),
        servers_restarted=sum(g.servers_restarted for g in dep.gpu_servers),
        alerts=list(dep.slo.alerts),
    )
