"""Runs one workload against the program and measures it from outside.

Everything here goes through the program's public surface: deployments
are built and driven through their entry points, counters the program
already keeps are read when a pass ends, metric observations arrive
through ``MetricsRegistry.subscribe``, and spans come from the program's
own tracer.  The traced run adds instance-level wrappers (on
``Network.connect``, on the GPU provider's ``acquire`` and on
``payload_size``) that count work without creating events or drawing
random numbers, so the simulated timeline is unchanged; ``run_workload``
checks that by comparing the traced and untraced digests.

Host time is the process's CPU time: the simulator never waits on I/O,
and CPU time leaves out the time other tenants of the machine hold the
cores.
"""

from __future__ import annotations

import statistics
import struct
import time
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro
import repro.simnet.net
import repro.simnet.rpc
import repro.simnet.serialization
from repro.core.audit import audit_deployment
from repro.core.deployment import DgsfDeployment
from repro.faas.workload_gen import ArrivalPlan
from repro.obs.critpath import RESOURCES, invocation_critpaths
from repro.obs.diff import cohort_attribution
from repro.workloads import LLM_WORKLOADS, WORKLOADS as PAPER_WORKLOADS

from deploy import deploy
from plans import Workload, burst_groups
from sampler import LAYERS, StackSampler

__all__ = ["Run", "run_passes", "run_workload"]

#: histograms whose every observation the benchmark keeps (the program's
#: own histograms decimate past 65,536 samples)
_OBSERVED = ("llm.token_latency_s", "llm.ttft_s", "scheduler.queue_wait_s")
_PHASES = ("download", "cuda_init", "model_load", "processing", "gpu_queue")
#: critical-path categories reported per layer; ``serialization`` is left
#: out because it is always 0: the net and server spans nested in every
#: RPC span cover it completely (critpath.json still carries it)
_CRITPATH = tuple(r for r in RESOURCES if r != "serialization")
#: passes a traced run repeats untraced, as its baseline
_BASELINE_PASSES = 2


class Probe:
    """Observes one deployment at a time and keeps only what the metrics
    need, so a finished pass's deployment can be freed."""

    def __init__(self, instrument: bool):
        self.instrument = instrument
        self.values = {name: array("d") for name in _OBSERVED}
        self.observations = 0
        self.audit_violations = []
        self.llm_tokens_counted = 0
        # instrumented totals
        self.messages = self.wire_bytes = 0
        self.intercepted = self.forwarded = self.offloaded = 0
        self.migrations = 0
        self.spans_produced = self.spans_dropped = 0
        self.critpath_rows = []
        #: (time-weighted mean, peak) of each GPU's committed fraction
        self.committed = []
        self._connections = []
        self._guests = []
        #: gauge -> [last_t, last_value, weighted_sum, span_s, peak]
        self._gauges = {}

    def attach(self, dep) -> None:
        dep.metrics.subscribe(self._observe)
        if self.instrument:
            self._wrap_connect(dep.network)
            self._wrap_acquire(dep.platform.gpu_provider)

    def detach(self, dep) -> None:
        """Harvest a finished deployment."""
        if isinstance(dep, DgsfDeployment):
            self.audit_violations.extend(
                audit_deployment(dep, end_state=True).violations)
            self.migrations += sum(len(s.monitor.migration_records)
                                   for s in dep.gpu_servers)
        self.llm_tokens_counted += dep.metrics.total("llm.tokens")
        for conn in self._connections:
            for ep in conn.endpoints:
                self.messages += ep.messages_sent
                self.wire_bytes += ep.bytes_out
        for guest in self._guests:
            self.intercepted += guest.calls_intercepted
            self.forwarded += guest.calls_forwarded
            self.offloaded += (getattr(guest, "calls_localized", 0)
                               + getattr(guest, "calls_batched", 0))
        tracer = dep.tracer
        if tracer is not None:
            self.critpath_rows.extend(invocation_critpaths(tracer))
            self.spans_produced += len(tracer.records) + tracer.dropped
            self.spans_dropped += tracer.dropped
        self.committed.extend((s[2] / s[3] if s[3] else s[1], s[4])
                              for s in self._gauges.values())
        self._connections, self._guests, self._gauges = [], [], {}

    def _observe(self, metric, value, t) -> None:
        self.observations += 1
        values = self.values.get(metric.name)
        if values is not None:
            values.append(value)
        elif self.instrument and metric.name == "gpu.committed_frac":
            state = self._gauges.get(id(metric))
            if state is None:
                self._gauges[id(metric)] = [t, value, 0.0, 0.0, value]
                return
            dt = t - state[0]
            state[2] += state[1] * dt
            state[3] += dt
            state[0], state[1] = t, value
            state[4] = max(state[4], value)

    def _wrap_connect(self, network) -> None:
        connect = network.connect

        def connect_counted(a, b):
            conn = connect(a, b)
            self._connections.append(conn)
            return conn

        network.connect = connect_counted

    def _wrap_acquire(self, provider) -> None:
        acquire = provider.acquire

        def acquire_recorded(fc, spec):
            lease = yield from acquire(fc, spec)
            self._guests.append(lease.gpu)
            return lease

        provider.acquire = acquire_recorded


@contextmanager
def _count_payload_size_calls():
    """Count every ``payload_size`` call, recursive ones included."""
    modules = (repro.simnet.serialization, repro.simnet.net, repro.simnet.rpc)
    original = repro.simnet.serialization.payload_size
    calls = [0]

    def payload_size_counted(value):
        calls[0] += 1
        return original(value)

    for module in modules:
        module.payload_size = payload_size_counted
    try:
        yield calls
    finally:
        for module in modules:
            module.payload_size = original


@contextmanager
def _measured(run: "Run"):
    """The timed region: yields a one-item list that receives its host
    CPU seconds.  In a traced run the stack sampler and the
    ``payload_size`` counter are live here and nowhere else, so neither
    set-up nor the benchmark's own analysis between passes is counted."""
    clock = [0.0]
    if run.sampler is None:
        t0 = time.process_time()
        yield clock
        clock[0] = time.process_time() - t0
        return
    with _count_payload_size_calls() as calls, run.sampler:
        t0 = time.process_time()
        yield clock
        clock[0] = time.process_time() - t0
    run.payload_size_calls += calls[0]


@dataclass
class Run:
    """All passes of one workload run."""

    workload: Workload
    probe: Probe
    #: invocations in launch order, every pass
    records: list = field(default_factory=list)
    #: planned absolute submit time per record (None: submitted on demand)
    planned: list = field(default_factory=list)
    #: ``faas_burst`` only: record indices of each burst
    groups: list = field(default_factory=list)
    #: ``calibration`` only: (config_seed, workload, variant) per record
    points: list = field(default_factory=list)
    #: per pass: host CPU seconds, units completed, events, processes
    pass_host_s: list = field(default_factory=list)
    pass_units: list = field(default_factory=list)
    pass_events: list = field(default_factory=list)
    pass_processes: list = field(default_factory=list)
    payload_size_calls: int = 0
    sampler: object = None

    def add_pass(self, records, host_s, events, processes) -> None:
        self.records.extend(records)
        self.pass_host_s.append(host_s)
        self.pass_units.append(sum(inv.status == "completed" for inv in records))
        self.pass_events.append(events)
        self.pass_processes.append(processes)

    def host_rate(self) -> float:
        """Units completed per host CPU second: the 90th percentile over
        passes.  Noise from other tenants of a shared machine only ever
        slows a pass down, and slow spells last several passes, so the
        fast passes read the machine's undisturbed speed; the median over
        passes still moved by a tenth between runs."""
        return _pct([u / s for u, s in zip(self.pass_units, self.pass_host_s)], 90)


def _plan_pass(run: Run, seed: int, index: int, traced: bool) -> None:
    wl = run.workload
    plan = wl.pass_input(seed, index)
    dep = deploy(wl, seed, wl.functions, traced=traced)
    run.probe.attach(dep)
    env = dep.env
    start = env.now
    shifted = ArrivalPlan(tuple((start + t, name) for t, name in plan))
    events0, procs0 = env.events_processed, env.processes_created
    with _measured(run) as clock:
        proc = env.process(dep.platform.run_plan(shifted, **wl.invoke_params),
                           name="bench-plan")
        records = env.run(until=proc)
    run.probe.detach(dep)
    offset = len(run.records)
    if wl.name == "faas_burst":
        run.groups.extend([offset + i for i in group] for group in burst_groups(plan))
    run.planned.extend(t for t, _ in shifted)
    run.add_pass(records, clock[0], env.events_processed - events0,
                 env.processes_created - procs0)


def _points_pass(run: Run, seed: int, index: int, traced: bool) -> None:
    points = run.workload.pass_input(seed, index)
    records, host_s, events, procs = [], 0.0, 0, 0
    for config_seed, name, variant in points:
        dep = deploy(run.workload, config_seed, [name], variant=variant, traced=traced)
        run.probe.attach(dep)
        env = dep.env
        events0, procs0 = env.events_processed, env.processes_created
        with _measured(run) as clock:
            inv, proc = dep.platform.invoke(name)
            env.run(until=proc)
        host_s += clock[0]
        run.probe.detach(dep)
        records.append(inv)
        events += env.events_processed - events0
        procs += env.processes_created - procs0
    run.points.extend(points)
    run.planned.extend([None] * len(records))
    run.add_pass(records, host_s, events, procs)


def run_passes(wl: Workload, seed: int, passes: int, traced: bool = False) -> Run:
    """Run ``passes`` passes of the workload; ``traced`` adds tracing and
    instrumentation."""
    one_pass = _points_pass if wl.name == "calibration" else _plan_pass
    run = Run(wl, Probe(instrument=traced))
    if traced:
        run.sampler = StackSampler(repro.__path__[0])
    for index in range(passes):
        one_pass(run, seed, index, traced)
    return run


# -- derived values -------------------------------------------------------------

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def sim_digest(records) -> int:
    """CRC32 over the ordered invocation outcomes plus LLM emission CRCs."""
    crc = 0
    for inv in records:
        line = f"{inv.function_name}|{inv.status}|{inv.t_submit:.9f}|{inv.t_end:.9f}"
        crc = zlib.crc32(line.encode(), crc)
        if isinstance(inv.result, dict) and "emission_crc" in inv.result:
            crc = zlib.crc32(struct.pack("<Q", inv.result["emission_crc"]), crc)
    return crc


def checks(run: Run) -> list[tuple[str, bool, str]]:
    """The correctness checks every run must satisfy."""
    out = []
    records = run.records
    not_done = [inv for inv in records if inv.status != "completed"]
    out.append(("every invocation completed", not not_done,
                ", ".join(f"{i.function_name}={i.status}" for i in not_done[:5])))
    late = [abs(inv.t_submit - planned) for inv, planned in zip(records, run.planned)
            if planned is not None and abs(inv.t_submit - planned) > 1e-6]
    out.append(("every arrival on its planned time (1 us)", not late,
                f"{len(late)} off, worst {max(late, default=0.0):.3g} s"))
    violations = run.probe.audit_violations
    out.append(("audit_deployment(end_state=True) clean", not violations,
                "; ".join(f"[{v.kind}] {v.detail}" for v in violations[:3])))
    sessions = [inv for inv in records if inv.function_name in LLM_WORKLOADS]
    if sessions:
        expected = {name: sum(r.output_tokens for r in p.trace())
                    for name, p in LLM_WORKLOADS.items()}
        wrong = [inv for inv in sessions
                 if not isinstance(inv.result, dict)
                 or inv.result["n_tokens"] != expected[inv.function_name]]
        want = sum(expected[inv.function_name] for inv in sessions)
        counted = run.probe.llm_tokens_counted
        out.append(("LLM tokens equal the traces' output tokens",
                    not wrong and counted == want,
                    f"{len(wrong)} sessions off; counter {counted} vs {want}"))
    return out


def counts(run: Run) -> dict:
    """Sample counts behind every statistic of the run."""
    out = {"n_passes": len(run.pass_host_s),
           "n_invocations": len(run.records),
           "n_completed": sum(run.pass_units)}
    results = [inv.result for inv in run.records if isinstance(inv.result, dict)]
    if results:
        out["n_requests"] = sum(r["n_requests"] for r in results)
        out["n_tokens"] = sum(r["n_tokens"] for r in results)
    if run.workload.name == "faas_burst":
        out["n_bursts"] = len(run.groups)
    return out


def user_metrics(run: Run) -> dict:
    """End-to-end metrics of the simulated system and the host, and the
    workload's own user-visible metrics."""
    e2e = [inv.e2e_s for inv in run.records if inv.status == "completed"]
    out = {
        "invocations_per_host_s": run.host_rate(),
        "e2e_p50_s": _pct(e2e, 50),
        "e2e_p90_s": _pct(e2e, 90),
        "error_rate": 1.0 - len(e2e) / len(run.records),
    }
    name = run.workload.name
    if name == "faas_burst":
        drains = [max(run.records[i].t_end for i in group)
                  - min(run.records[i].t_submit for i in group)
                  for group in run.groups]
        out["burst_drain_p50_s"] = _pct(drains, 50)
    if name == "llm_chat":
        tokens = run.probe.values["llm.token_latency_s"]
        out["token_p50_ms"] = _pct(tokens, 50) * 1e3
        out["token_p99_ms"] = _pct(tokens, 99) * 1e3
        out["ttft_p99_s"] = _pct(run.probe.values["llm.ttft_s"], 99)
    if name == "calibration":
        errors = []
        for inv, (_, workload, variant) in zip(run.records, run.points):
            paper = getattr(PAPER_WORKLOADS[workload], f"paper_{variant}_s")
            errors.append(abs(inv.e2e_s - paper) / paper)
        out["paper_mape_pct"] = 100.0 * _mean(errors)
    return out


def critpath_attribution(run: Run) -> dict:
    """Critical-path attribution per function, plus every traced
    invocation pooled under the workload's own name (the map
    ``python -m repro.obs.diff`` reads)."""
    rows = run.probe.critpath_rows
    attribution = cohort_attribution(rows, percentiles=(50, 90))
    pooled = [dict(row, workload=run.workload.name) for row in rows]
    attribution.update(cohort_attribution(pooled, percentiles=(50, 90)))
    return attribution


def layer_metrics(baseline: Run, traced: Run, attribution: dict) -> dict:
    """Per-layer metrics of the traced run; host timing that tracing
    would distort comes from the untraced ``baseline`` passes."""
    n = len(traced.records)
    probe = traced.probe
    results = [inv.result for inv in traced.records if isinstance(inv.result, dict)]
    sampler = traced.sampler
    out = {f"host.{layer}.share": share for layer, share in sampler.shares().items()}
    out["host.simcuda.payload.share"] = sampler.payload_share()
    out["sim.host_us_per_event"] = 1e6 * _pct(
        [s / e for s, e in zip(baseline.pass_host_s, baseline.pass_events)], 10)
    same = len(baseline.pass_host_s)
    out["trace.overhead_ratio"] = sum(traced.pass_host_s[:same]) / sum(baseline.pass_host_s)

    out["sim.events_per_inv"] = sum(traced.pass_events) / n
    out["sim.processes_per_inv"] = sum(traced.pass_processes) / n
    out["simnet.messages_per_inv"] = probe.messages / n
    out["simnet.wire_bytes_per_inv"] = probe.wire_bytes / n
    out["simnet.payload_size_calls_per_inv"] = traced.payload_size_calls / n

    out["core.guest.intercepted_per_inv"] = probe.intercepted / n
    out["core.guest.forwarded_per_inv"] = probe.forwarded / n
    out["core.guest.offload_ratio"] = (probe.offloaded / probe.intercepted
                                       if probe.intercepted else 0.0)

    waits = probe.values["scheduler.queue_wait_s"]
    out["core.sched.wait_mean_s"] = _mean(waits)
    out["core.sched.wait_p90_s"] = _pct(waits, 90)
    out["core.migrations"] = probe.migrations
    for phase in _PHASES:
        out[f"faas.phase.{phase}_mean_s"] = _mean(
            [inv.phases.get(phase, 0.0) for inv in traced.records])

    iterations = sum(r["n_iterations"] for r in results)
    prefills = sum(r["n_prefills"] for r in results)
    out["core.decode.iterations_per_session"] = iterations / len(results) if results else 0.0
    out["core.decode.tokens_per_iteration"] = (
        sum(r["n_tokens"] for r in results) / iterations if iterations else 0.0)
    out["core.decode.preemptions"] = sum(r["n_preemptions"] for r in results)
    out["core.decode.kv_denials"] = sum(r["n_kv_denials"] for r in results)
    out["core.decode.recompute_ratio"] = (
        sum(r["n_recomputes"] for r in results) / prefills if prefills else 0.0)
    out["simcuda.committed_frac_peak"] = max((p for _, p in probe.committed), default=0.0)
    out["simcuda.committed_frac_mean"] = _mean([m for m, _ in probe.committed])

    out["obs.observations_per_inv"] = probe.observations / n
    out["obs.spans_per_inv"] = probe.spans_produced / n
    out["obs.spans_dropped"] = probe.spans_dropped

    pooled = attribution.get(traced.workload.name, {})
    for pct in (50, 90):
        categories = pooled.get(f"p{pct}", {}).get("categories", {})
        for resource in _CRITPATH:
            out[f"critpath.{resource}.p{pct}_s"] = categories.get(resource, 0.0)
    return out


def _summary(run: Run) -> dict:
    return {
        "host_s": sum(run.pass_host_s),
        "passes": [{"host_s": s, "units": u, "events": e} for s, u, e in zip(
            run.pass_host_s, run.pass_units, run.pass_events)],
        "counts": counts(run),
        "sim_digest": sim_digest(run.records),
        "checks": checks(run),
    }


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run the workload's passes, untraced or traced.

    A traced run first repeats its first :data:`_BASELINE_PASSES` passes
    untraced: the baseline for the tracing overhead and for the check
    that tracing leaves the simulated timeline unchanged.  Returns a
    report with the metrics, sample counts, digest and checks.
    """
    passes = wl.passes(seconds)
    if not traced:
        run = run_passes(wl, seed, passes)
        return dict(_summary(run), user=user_metrics(run))
    baseline = run_passes(wl, seed, min(passes, _BASELINE_PASSES))
    run = run_passes(wl, seed, passes, traced=True)
    report = _summary(run)
    attribution = critpath_attribution(run)
    layers = layer_metrics(baseline, run, attribution)
    share_sum = sum(layers[f"host.{layer}.share"] for layer in LAYERS)
    traced_digest = sim_digest(run.records[:len(baseline.records)])
    report["checks"] += [
        ("tracing leaves the simulated timeline unchanged",
         traced_digest == sim_digest(baseline.records),
         f"traced {traced_digest:#010x}, untraced {sim_digest(baseline.records):#010x}"),
        ("tracer dropped no records", layers["obs.spans_dropped"] == 0,
         f"{layers['obs.spans_dropped']} dropped"),
        ("host shares sum to 1 +- 0.01", abs(share_sum - 1.0) <= 0.01,
         f"sum {share_sum:.4f}"),
    ]
    report.update(
        layers=layers,
        attribution=attribution,
        folded=run.sampler.folded_lines(),
    )
    return report
