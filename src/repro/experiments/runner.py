"""Shared experiment machinery: deployments, single runs, plan-driven scenarios."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from repro.errors import ConfigurationError, SimulationError
from repro.faas.platform import Invocation
from repro.faas.topology import drive_plan
from repro.faas.workload_gen import ArrivalPlan, draw_plan
from repro.sim.rng import RngRegistry
from repro.workloads import register_workloads, ALL_WORKLOAD_NAMES

__all__ = [
    "build_deployment",
    "run_single_invocation",
    "run_single_invocation_traced",
    "make_plan",
    "run_scenario",
    "ScenarioResult",
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


def make_plan(mode: str, seed: int, copies: int = 10,
              names: Optional[list[str]] = None,
              mean_gap_s: float = 2.0, burst_gap_s: float = 2.0) -> ArrivalPlan:
    """Arrival plans used across §VIII-D: exponential gaps or bursts.

    The same ``seed`` yields the same interleaving and gaps for every
    configuration under comparison — the paper's "random (but
    consistent) order".
    """
    return draw_plan(RngRegistry(seed=seed), mode, names or ALL_WORKLOAD_NAMES,
                     copies=copies, mean_gap_s=mean_gap_s,
                     burst_gap_s=burst_gap_s)


#: liveness backstop: a run stops waiting for its plan this long after
#: the plan's last arrival, leaving any invocation still in flight
#: non-terminal
HORIZON_S = 3600.0
#: idle window after the plan so pending recoveries finish before the
#: end-state audit
SETTLE_S = 30.0


@dataclass
class ScenarioResult:
    """Outcome of one plan-driven run (:func:`run_scenario`)."""

    config: DgsfConfig
    #: every invocation in launch order; failures stay on their records
    invocations: list[Invocation]
    #: the plan's entry count; fewer ``invocations`` means the horizon cut
    #: the plan short
    planned: int
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
    alerts: list
    #: average NVML utilization per GPU (%; only when sampling was on)
    avg_utilization: Optional[float] = None

    @cached_property
    def stats(self) -> RunStats:
        """Latency statistics over the completed invocations."""
        return summarize_invocations(self.invocations)

    @property
    def clean(self) -> bool:
        """Every planned invocation launched and terminal, and every
        invariant holding."""
        return (len(self.invocations) == self.planned
                and self.outcomes.all_terminal and self.audit.ok)

    def require_completed(self) -> "ScenarioResult":
        """Return ``self`` if every planned invocation completed.

        Otherwise raise the first failed invocation's own exception, or a
        :class:`SimulationError` for one still in flight at the horizon or
        never launched before it: a fault-free run whose invocation does
        not complete is a bug.
        """
        for inv in self.invocations:
            if inv.status == "completed":
                continue
            if isinstance(inv.result, Exception):
                raise inv.result
            raise SimulationError(
                f"invocation {inv.invocation_id} ({inv.function_name}) "
                f"ended {inv.status!r}"
            )
        if len(self.invocations) < self.planned:
            raise SimulationError(
                f"the horizon cut the plan short: {len(self.invocations)} "
                f"of {self.planned} invocations launched"
            )
        return self


def run_scenario(
    config: DgsfConfig,
    plan: ArrivalPlan,
    *,
    sample_utilization: bool = False,
    **invoke_params,
) -> ScenarioResult:
    """Run an arrival plan against one DGSF configuration.

    The deployment runs :func:`repro.faas.topology.drive_plan` — the same
    scenario process every shard group runs — with the plan's times
    absolute.  Invocations may fail (a crashed API server under
    ``config.fault_plan`` turns in-flight calls into function failures);
    failures are data on their records.  Callers that expect none chain
    :meth:`ScenarioResult.require_completed`.

    After the plan's last invocation terminates (or :data:`HORIZON_S`
    elapses past its last arrival), the deployment idles for
    :data:`SETTLE_S` so pending recoveries finish; then the SLO engine
    sweeps at the final clock, still-queued GPU waits are flushed into
    the metrics, and the invariant auditor inspects the end state.
    """
    dep = DgsfDeployment(config)
    env = dep.env
    done = env.process(
        drive_plan(dep, plan, sample_utilization=sample_utilization,
                   **invoke_params),
        name="scenario",
    )
    # The monitor's health/stats loops run forever, so run-until-drained
    # would never return; bound the run by the plan or the horizon.
    last_arrival = plan.entries[-1][0] if len(plan) else 0.0
    env.run(until=env.any_of([done, env.timeout(last_arrival + HORIZON_S)]))
    env.run(until=env.now + SETTLE_S)
    # final SLO sweep at the end-of-run clock so alerts that should have
    # cleared during the settle window resolve before we snapshot the log
    dep.slo.evaluate(env.now)
    for server in dep.gpu_servers:
        # fold still-queued waits into the queue-wait metric (abandoned)
        server.monitor.observe_pending_waits()
    records = list(dep.platform.invocations)
    return ScenarioResult(
        config=config,
        invocations=records,
        planned=len(plan),
        outcomes=summarize_outcomes(records),
        audit=audit_deployment(dep, end_state=True, check_schedulable=True),
        deployment=dep,
        crashes_detected=sum(g.monitor.crashes_detected for g in dep.gpu_servers),
        requests_requeued=sum(g.monitor.requests_requeued for g in dep.gpu_servers),
        servers_restarted=sum(g.servers_restarted for g in dep.gpu_servers),
        alerts=list(dep.slo.alerts),
        avg_utilization=(dep.gpu_server.nvml.average_utilization()
                         if sample_utilization else None),
    )
