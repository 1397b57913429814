"""DGSF deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.core.faults import FaultPlan

__all__ = ["OptimizationFlags", "DgsfConfig"]


@dataclass(frozen=True)
class OptimizationFlags:
    """The serverless specializations of §V-C, individually toggleable.

    The ablation study (Fig. 4) adds them cumulatively in this order:
    handle pooling → descriptor pooling → batching + unnecessary-API
    avoidance.
    """

    #: pre-created CUDA contexts and cuDNN/cuBLAS handle pools on the API
    #: server ("startup optimizations")
    handle_pooling: bool = True
    #: guest-side pooling of cuDNN descriptors — descriptor create/set/
    #: destroy never leave the guest
    descriptor_pooling: bool = True
    #: accumulate enqueue-only APIs locally and ship them in batches
    batching: bool = True
    #: emulate localizable APIs on the guest (cudaPointerGetAttributes,
    #: __cudaPushCallConfiguration, cudaMallocHost, device-count caching)
    avoid_unnecessary: bool = True
    #: forward enqueue-only APIs immediately on a pipelined channel instead
    #: of buffering them for a batched flush; errors are deferred to the
    #: next synchronization point.  Off by default (and excluded from
    #: :meth:`all`) so pre-existing timelines stay bit-identical.
    async_forward: bool = False

    @classmethod
    def none(cls) -> "OptimizationFlags":
        """Unoptimized DGSF (the ablation baseline)."""
        return cls(False, False, False, False)

    @classmethod
    def all(cls) -> "OptimizationFlags":
        """Every §V-C optimization of the paper's ablation (Fig. 4).

        ``async_forward`` is this reproduction's extension beyond the
        paper's final ablation step, so it stays off here; enable it
        explicitly with ``all().with_(async_forward=True)``.
        """
        return cls(True, True, True, True)

    def with_(self, **kwargs) -> "OptimizationFlags":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DgsfConfig:
    """Configuration of one DGSF deployment."""

    #: number of physical GPUs in the GPU server (paper: 4, also 3 and 2)
    num_gpus: int = 4
    #: API servers per GPU; 1 = "no sharing", 2 = "Sharing (Two)"
    api_servers_per_gpu: int = 1
    #: GPU assignment policy: "best_fit" | "worst_fit" | "first_fit"
    policy: str = "best_fit"
    #: queue discipline at the monitor: "fcfs" (the paper's deployed
    #: policy), "sff" — shortest-function-first, which the paper leaves
    #: as future work ("could improve throughput at some loss of
    #: fairness", §VIII-D) — "sff_aged" (SFF with a wait-time credit that
    #: bounds starvation), or "mqfq" (MQFQ-style per-function-class fair
    #: queueing with GPU stickiness; an extension beyond the paper)
    queue_discipline: str = "fcfs"
    #: aging credit rate for ``sff_aged``: a request's effective SFF key
    #: shrinks by ``sff_aging_factor`` seconds per second waited, and once
    #: the credit covers its full expected duration (wait ≥ expected /
    #: factor) it is dispatched FCFS-style, ahead of any shorter work
    sff_aging_factor: float = 0.1
    #: MQFQ throttle window ``T`` (seconds of virtual time): a flow whose
    #: start tag leads global virtual time by more than this is throttled
    #: until the laggards catch up
    mqfq_throttle_window_s: float = 60.0
    #: number of disaggregated GPU servers behind the backend (§IV:
    #: "Scaling up GPU servers in DGSF is simple")
    num_gpu_servers: int = 1
    #: how the backend picks a GPU server per function: "least_loaded"
    #: (optimize latency) or "round_robin"; §IV discusses the policy space
    backend_policy: str = "least_loaded"
    #: enable monitor-driven migration (§V-D)
    migration_enabled: bool = False
    #: consecutive imbalance observations required before migrating — a
    #: transient idle GPU (e.g. a function still downloading) must not
    #: trigger a move
    migration_confirm_checks: int = 4
    #: optimization flags for guests attached to this deployment
    optimizations: OptimizationFlags = field(default_factory=OptimizationFlags)
    #: experiment seed (drives arrivals, jitter, input selection)
    seed: int = 0
    #: faults to inject (None = perfect hardware, the default)
    fault_plan: Optional[FaultPlan] = None
    #: guest RPC reply deadline; 0 disables timeouts (waits forever)
    rpc_timeout_s: float = 0.0
    #: retry budget for idempotent remotable calls after an RPC timeout
    rpc_max_retries: int = 2
    #: base of the bounded exponential backoff between retries
    rpc_retry_backoff_s: float = 0.25
    #: capacity of each API server's artifact cache (bytes).  Repeat
    #: invocations on the same server skip the object-store download for
    #: cached artifacts; 0 (the default) disables caching entirely so the
    #: download path is untouched.
    artifact_cache_bytes: int = 0
    #: record nested sim-time spans for every invocation into a
    #: :class:`repro.obs.Tracer` (Chrome trace-event export).  Tracing is
    #: pure bookkeeping — it creates no events and draws no RNG — so the
    #: timeline is identical with it on or off; it defaults off only to
    #: avoid the memory cost on large runs.
    tracing_enabled: bool = False
    #: bound on stored trace records; past it the tracer counts drops
    #: (never silently) instead of growing
    trace_max_spans: int = 250_000
    #: deployment-wide cap on concurrently decoding sequences per LLM
    #: engine — ``llmConfigure`` clamps the guest's requested batch to it
    llm_max_decode_batch: int = 8

    def __post_init__(self):
        if self.num_gpus <= 0:
            raise ConfigurationError("num_gpus must be positive")
        if self.api_servers_per_gpu <= 0:
            raise ConfigurationError("api_servers_per_gpu must be positive")
        if self.policy not in ("best_fit", "worst_fit", "first_fit"):
            raise ConfigurationError(f"unknown policy {self.policy!r}")
        if self.queue_discipline not in ("fcfs", "sff", "sff_aged", "mqfq"):
            raise ConfigurationError(
                f"unknown queue discipline {self.queue_discipline!r}"
            )
        if self.sff_aging_factor <= 0:
            raise ConfigurationError("sff_aging_factor must be positive")
        if self.mqfq_throttle_window_s < 0:
            raise ConfigurationError("mqfq_throttle_window_s must be non-negative")
        if self.num_gpu_servers <= 0:
            raise ConfigurationError("num_gpu_servers must be positive")
        if self.backend_policy not in ("least_loaded", "round_robin"):
            raise ConfigurationError(
                f"unknown backend policy {self.backend_policy!r}"
            )
        if self.rpc_timeout_s < 0:
            raise ConfigurationError("rpc_timeout_s must be non-negative")
        if self.rpc_max_retries < 0:
            raise ConfigurationError("rpc_max_retries must be non-negative")
        if self.rpc_retry_backoff_s < 0:
            raise ConfigurationError("rpc_retry_backoff_s must be non-negative")
        if self.artifact_cache_bytes < 0:
            raise ConfigurationError("artifact_cache_bytes must be non-negative")
        if self.trace_max_spans <= 0:
            raise ConfigurationError("trace_max_spans must be positive")
        if self.llm_max_decode_batch <= 0:
            raise ConfigurationError("llm_max_decode_batch must be positive")

    @property
    def sharing_enabled(self) -> bool:
        return self.api_servers_per_gpu > 1

    def with_(self, **kwargs) -> "DgsfConfig":
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)
