"""The serverless platform: function registry and invoker.

The platform is deliberately agnostic to what a function does with a GPU
("DGSF is agnostic to the serverless functions platform", §VI).  A
*gpu_provider* — installed by :mod:`repro.core.deployment` — is asked for
a GPU runtime per invocation; with no provider, functions run CPU-only or
use a locally attached GPU supplied by the handler itself.

Each :class:`Invocation` records the timestamps and phase breakdown the
paper's figures are built from (queueing vs execution delay, download /
init / model-load / processing phases).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.errors import ConfigurationError, ReproError
from repro.sim.core import Environment, Event, Interrupt
from repro.simnet.net import Host
from repro.faas.container import ContainerPool
from repro.faas.storage import ObjectStore
from repro.faas.workload_gen import schedule_arrivals

__all__ = [
    "FunctionSpec",
    "FunctionContext",
    "Invocation",
    "ServerlessPlatform",
    "FunctionTimeLimitExceeded",
]


class FunctionTimeLimitExceeded(ReproError):
    """The provider killed a function that exceeded its time limit."""


@dataclass
class FunctionSpec:
    """A deployed function: code plus declared resource requirements.

    Matching the paper's model, the developer declares host memory and —
    with DGSF — the GPU memory the function needs ("the developer
    specifies the amount of GPU memory a function requires just like it
    does for host memory", §II).
    """

    name: str
    #: generator function taking a FunctionContext
    handler: Callable[["FunctionContext"], Generator]
    memory_mb: int = 3008
    #: GPU memory the function declares (0 = CPU-only function)
    gpu_mem_bytes: int = 0
    min_replicas: int = 10
    #: optional runtime hint for shortest-function-first scheduling
    expected_duration_s: float = 0.0
    #: provider-imposed execution time limit (0 = unlimited); serverless
    #: platforms always bound function runtime (paper §II)
    max_duration_s: float = 0.0


@dataclass
class Invocation:
    """One function invocation and its measured timeline."""

    invocation_id: int
    function_name: str
    t_submit: float
    t_start: float = -1.0
    t_end: float = -1.0
    status: str = "pending"
    #: phase name -> accumulated seconds (download, cuda_init, model_load,
    #: processing, gpu_queue, ...)
    phases: dict[str, float] = field(default_factory=dict)
    result: Any = None
    #: trace id when the platform has a tracer attached (None otherwise)
    trace_id: Optional[int] = None

    # root span handle while tracing (class attr, not a dataclass field:
    # span handles must stay out of repr/compare and of __init__)
    _span = None

    @property
    def e2e_s(self) -> float:
        """Launch-to-completion time (the paper's function E2E)."""
        if self.t_end < 0:
            raise ValueError(f"invocation {self.invocation_id} not finished")
        return self.t_end - self.t_submit

    @property
    def queue_s(self) -> float:
        """Time spent before the handler began executing."""
        if self.t_start < 0:
            raise ValueError(f"invocation {self.invocation_id} never started")
        return self.t_start - self.t_submit

    def add_phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds
        # add_phase is always called at the phase's end, so a traced
        # invocation can emit the span retroactively: [now-seconds, now].
        if self._span is not None and seconds > 0:
            self._span.phase(name, seconds)

    def bind_span(self, span) -> None:
        """Attach a root tracing span (set by the platform when tracing)."""
        self._span = span
        self.trace_id = span.trace_id


class FunctionContext:
    """Everything a handler needs: env, host, storage, GPU access, metrics."""

    def __init__(
        self,
        env: Environment,
        invocation: Invocation,
        host: Host,
        storage: Optional[ObjectStore],
        platform: "ServerlessPlatform",
        params: dict,
        spec: "FunctionSpec" = None,
    ):
        self.env = env
        self.invocation = invocation
        self.host = host
        self.storage = storage
        self.platform = platform
        self.spec = spec
        #: per-invocation parameters passed to invoke()
        self.params = params
        #: populated by acquire_gpu()
        self.gpu = None
        self._gpu_lease = None

    def acquire_gpu(self):
        """Request a GPU at the point of first use (the guest library's
        first interposed call, §V-A) — *after* downloads, matching the
        paper's queueing dynamics.  Returns the GPU session facade."""
        if self._gpu_lease is not None:
            return self.gpu
        provider = self.platform.gpu_provider
        if provider is None:
            raise ConfigurationError("no GPU provider installed")
        self._gpu_lease = yield from provider.acquire(self, self.spec)
        self.gpu = self._gpu_lease.gpu
        return self.gpu

    def add_phase(self, name: str, seconds: float) -> None:
        self.invocation.add_phase(name, seconds)

    def timed_phase(self, name: str, gen) -> Generator:
        """Run ``gen`` (a generator or an event) and account its duration
        to phase ``name``."""
        t0 = self.env.now
        if isinstance(gen, Event):
            result = yield gen
        else:
            result = yield from gen
        self.add_phase(name, self.env.now - t0)
        return result

    def download(self, names: list[str]) -> Generator:
        """Download objects, accounted to the 'download' phase.

        When the GPU provider offers an API-server-local artifact cache
        (``artifact_cache_for``, see :mod:`repro.core.deployment`), the
        download is serviced through it — repeat invocations on the same
        server skip the object-store GET.  With no provider or the cache
        disabled, the plain object-store path is taken unchanged.
        """
        if self.storage is None:
            raise ConfigurationError("no object store configured")
        provider = self.platform.gpu_provider
        hook = getattr(provider, "artifact_cache_for", None)
        cache = None
        if hook is not None:
            cache = yield from hook(self)
        if cache is None:
            return (yield from self.timed_phase(
                "download", self.storage.download_many(self.host, names)
            ))
        return (yield from self.timed_phase(
            "download",
            self.storage.download_through_cache(self.host, names, cache),
        ))


class ServerlessPlatform:
    """Function registry + invoker with warm-container pools."""

    def __init__(
        self,
        env: Environment,
        function_host: Host,
        storage: Optional[ObjectStore] = None,
    ):
        self.env = env
        self.function_host = function_host
        self.storage = storage
        self._specs: dict[str, FunctionSpec] = {}
        self._pools: dict[str, ContainerPool] = {}
        #: hook installed by repro.core.deployment: generator function
        #: (FunctionContext) -> context-ish object with .gpu APIs + release
        self.gpu_provider = None
        self.invocations: list[Invocation] = []
        #: invocation ids count per platform, so the ``inv-N`` names in a
        #: trace do not depend on what else ran earlier in the process
        self._inv_ids = itertools.count(1)
        #: optional repro.obs.Tracer — when set, every invocation gets a
        #: root span plus one child span per measured phase
        self.tracer = None
        #: optional repro.obs.MetricsRegistry — when set, terminal
        #: invocation outcomes and latencies are published to it
        self.metrics = None
        #: invocations submitted but not yet finished (mirrors the
        #: ``invocation.active`` gauge when a registry is attached)
        self.active_invocations = 0

    # -- registry ---------------------------------------------------------------
    def register(self, spec: FunctionSpec) -> None:
        if spec.name in self._specs:
            raise ConfigurationError(f"function {spec.name!r} already registered")
        self._specs[spec.name] = spec
        self._pools[spec.name] = ContainerPool(
            self.env,
            self.function_host,
            spec.name,
            replicas=spec.min_replicas,
            memory_mb=spec.memory_mb,
        )

    def spec(self, name: str) -> FunctionSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(f"unknown function {name!r}") from None

    # -- invocation ---------------------------------------------------------------
    def invoke(self, name: str, **params) -> tuple[Invocation, Event]:
        """Submit an invocation now; returns (record, completion event)."""
        spec = self.spec(name)
        invocation = Invocation(
            invocation_id=next(self._inv_ids),
            function_name=name,
            t_submit=self.env.now,
        )
        self.invocations.append(invocation)
        self.active_invocations += 1
        if self.metrics is not None:
            self.metrics.gauge("invocation.active").set(
                self.active_invocations, t=self.env.now
            )
        if self.tracer is not None:
            invocation.bind_span(self.tracer.begin(
                f"invocation:{name}",
                cat="invocation",
                pid="invocations",
                tid=f"inv-{invocation.invocation_id}",
                trace_id=self.tracer.new_trace_id(),
                workload=name,
                invocation_id=invocation.invocation_id,
            ))
        proc = self.env.process(
            self._run(spec, invocation, params), name=f"inv-{invocation.invocation_id}"
        )
        return invocation, proc

    def run_plan(self, plan, **params) -> Generator:
        """Launch every entry of an :class:`ArrivalPlan`; wait for all.

        Returns the invocation records in launch order.  An invocation
        that fails is data, not an error: its exception stays on its
        record (``status`` and ``result``) and the plan runs on.  The
        arrival timeouts are pre-created in one kernel batch
        (:func:`repro.faas.workload_gen.schedule_arrivals`) instead of one
        ``timeout()`` call per entry; an already-fired arrival (same-time
        burst entries) is yielded and resumes immediately.
        """
        records = []
        done = Event(self.env)
        left = len(plan)

        def landed(proc):
            # a failure is data on the invocation's record, not a crash
            nonlocal left
            if not proc.ok and isinstance(proc.value, Exception):
                proc.defuse()
            left -= 1
            if not left:
                done.succeed()

        if not left:
            done.succeed()
        arrivals = schedule_arrivals(self.env, plan)
        for (t, name), arrival in zip(plan, arrivals):
            if arrival is not None:
                yield arrival
            inv, proc = self.invoke(name, **params)
            records.append(inv)
            proc.callbacks.append(landed)
        yield done
        return records

    # -- internals -------------------------------------------------------------------
    def _run(self, spec: FunctionSpec, invocation: Invocation, params: dict) -> Generator:
        pool = self._pools[spec.name]
        container, token = yield from pool.acquire()
        invocation.status = "running"
        invocation.t_start = self.env.now
        if invocation._span is not None and invocation.t_start > invocation.t_submit:
            # Pre-start wait is a phase of the trace's breakdown but is
            # deliberately NOT an Invocation.phases entry: phases holds
            # only handler-measured intervals (queue_s already covers it).
            invocation._span.child_complete(
                "platform_queue", invocation.t_submit, invocation.t_start,
                cat="phase",
            )
        ctx = FunctionContext(
            self.env, invocation, container.host, self.storage, self, params,
            spec=spec,
        )
        watchdog = None
        try:
            if spec.max_duration_s > 0:
                body = self.env.process(
                    spec.handler(ctx), name=f"body-{invocation.invocation_id}"
                )
                watchdog = self.env.process(
                    self._watchdog(body, spec.max_duration_s),
                    name=f"watchdog-{invocation.invocation_id}",
                )
                try:
                    invocation.result = yield body
                except Interrupt:
                    invocation.status = "timeout"
                    invocation.result = FunctionTimeLimitExceeded(
                        f"{spec.name} exceeded its {spec.max_duration_s}s limit"
                    )
                    raise invocation.result
                invocation.status = "completed"
            else:
                invocation.result = yield from spec.handler(ctx)
                invocation.status = "completed"
        except FunctionTimeLimitExceeded:
            raise
        except Exception as exc:
            invocation.status = "failed"
            invocation.result = exc
            raise
        finally:
            invocation.t_end = self.env.now
            if invocation._span is not None:
                # Close at t_end: lease release below may consume further
                # sim time that belongs to the platform, not the function.
                invocation._span.end(
                    t_end=invocation.t_end, status=invocation.status
                )
            self.active_invocations -= 1
            if self.metrics is not None:
                self.metrics.gauge("invocation.active").set(
                    self.active_invocations, t=self.env.now
                )
                self.metrics.counter(
                    "invocation.status",
                    workload=invocation.function_name,
                    status=invocation.status,
                ).inc(trace_id=invocation.trace_id)
                self.metrics.histogram(
                    "invocation.e2e_s",
                    workload=invocation.function_name,
                    status=invocation.status,
                ).observe(invocation.e2e_s, trace_id=invocation.trace_id)
                self.metrics.histogram(
                    "invocation.queue_s", workload=invocation.function_name
                ).observe(invocation.queue_s, trace_id=invocation.trace_id)
            if ctx._gpu_lease is not None:
                yield from ctx._gpu_lease.release()
            pool.release(container, token)

    def _watchdog(self, body, limit_s: float):
        """Kill the function body if it outlives the provider's limit."""
        deadline = self.env.timeout(limit_s)
        try:
            yield self.env.any_of([body, deadline])
        except Exception:
            # The body failed before the deadline; _run observes and
            # reports that failure — the watchdog must not crash the sim.
            pass
        finally:
            # On early completion/failure the deadline would otherwise sit
            # in the event heap until it fires, keeping the run alive for
            # up to the full limit.
            deadline.cancel()
        if body.is_alive:
            body.interrupt("time limit exceeded")
