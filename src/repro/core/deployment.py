"""End-to-end deployments: wiring functions to GPUs.

Three ways a workload gets a GPU, all behind the same *GPU session
facade* (the method set of :class:`repro.core.guest.GuestLibrary`):

* :class:`NativeGpuSession`/:class:`NativeGpuProvider` — the paper's
  *native* baseline: the function executes on a machine with physically
  attached GPUs; first CUDA call pays the 3.2 s initialization.
* :class:`DgsfDeployment` with the default network — DGSF over the
  OpenFaaS-style deployment (10 Gbps, low jitter).
* :class:`DgsfDeployment.lambda_deployment` — the AWS Lambda variant:
  same GPU server, but the function-side network is slower and noisier
  and S3 throughput is degraded (§VIII-B).
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.errors import ConfigurationError
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.simcuda.context import CudaContext
from repro.simcuda.costs import CostModel, DEFAULT_COSTS
from repro.simcuda.device import SimGPU
from repro.simcuda.errors import CudaError, cudaError
from repro.simcuda.kernels import KernelRegistry, builtin_registry
from repro.simcuda.libs import VendorLibrary
from repro.simcuda.types import Dim3, PointerAttributes
from repro.simnet.link import NetworkProfile
from repro.simnet.net import Network
from repro.simnet.rpc import RpcClient
from repro.faas.platform import ServerlessPlatform, FunctionContext, FunctionSpec
from repro.faas.storage import ObjectStore, StorageProfile, S3_DEFAULT, S3_LAMBDA
from repro.core.api_server import ApiServerDown
from repro.core.backend import GpuBackend
from repro.core.config import DgsfConfig
from repro.core.faults import FaultDirector
from repro.core.gpu_server import GpuServer
from repro.core.guest import GuestLibrary, GuestGpuBundle, GuestRpcError
from repro.obs import MetricsRegistry, SloEngine, Tracer

__all__ = [
    "NativeGpuSession",
    "NativeGpuProvider",
    "DgsfGpuProvider",
    "DgsfDeployment",
    "NativeDeployment",
]


# ======================================================================
# Native baseline
# ======================================================================

#: first pinned host pointer a native ``cudaMallocHost`` hands out
_HOST_PTR_BASE = 0x5500_0000_0000


class NativeGpuSession:
    """The GPU session facade executed directly on a locally attached GPU.

    Every call pays the local API-call cost; the first one also creates
    the CUDA context — its 303 MB footprint and the 3.2 s initialization
    land on the critical path, as for any native process ("Native GPU
    applications cannot pre-initialize their own runtime", §V-C).  The
    session sees its one GPU as device 0.
    """

    def __init__(self, env: Environment, device: SimGPU,
                 kernel_registry: Optional[KernelRegistry] = None,
                 costs: CostModel = DEFAULT_COSTS):
        self.env = env
        self.device = device
        self.kernels = kernel_registry or builtin_registry()
        self.costs = costs
        self._ctx: Optional[CudaContext] = None
        self._lib: Optional[VendorLibrary] = None
        self._host_allocs: dict[int, int] = {}
        self._host_ids = itertools.count(_HOST_PTR_BASE, 0x1_0000)
        # facade-level counters (parity with GuestLibrary)
        self.calls_intercepted = 0
        self.calls_forwarded = 0  # native: nothing crosses a network

    def _context(self) -> Generator:
        """Charge one local API call; the first also initializes CUDA."""
        yield from self.env.sleep(self.costs.api_call_local_s)
        if self._ctx is None:
            self._ctx = yield from CudaContext.create(self.env, self.device, self.kernels)
        return self._ctx

    def _call(self) -> Generator:
        """Intercept one CUDA runtime call; returns the context."""
        self.calls_intercepted += 1
        return (yield from self._context())

    def _library(self) -> Generator:
        """Intercept one cuDNN/cuBLAS call; the first builds the library
        facade, which costs one more local call."""
        self.calls_intercepted += 1
        if self._lib is None:
            ctx = yield from self._context()
            self._lib = VendorLibrary(self.env, ctx, self.costs)
        return self._lib

    def close(self) -> None:
        """Process exit: tear the context down and free its device memory."""
        ctx, self._ctx = self._ctx, None
        if ctx is None:
            return
        ctx.destroy()
        if self.device.mem_used:
            # what is left is the library handles' footprint
            self.device.unreserve_bytes(self.device.mem_used)

    @staticmethod
    def _check_device(device: int) -> None:
        if device != 0:
            raise CudaError(cudaError.cudaErrorInvalidDevice, str(device))

    # --- device management ---
    def cudaGetDeviceCount(self) -> Generator:
        yield from self._call()
        return 1

    def cudaGetDeviceProperties(self, device: int = 0) -> Generator:
        yield from self._call()
        self._check_device(device)
        return self.device.properties.as_dict()

    def cudaSetDevice(self, device: int) -> Generator:
        self.calls_intercepted += 1
        self._check_device(device)
        yield self.env.timeout(self.costs.api_call_local_s)

    # --- memory ---
    def cudaMalloc(self, size: int) -> Generator:
        ctx = yield from self._call()
        return (yield from ctx.malloc(size))

    def cudaFree(self, ptr: int) -> Generator:
        ctx = yield from self._call()
        yield from ctx.free(ptr)

    def memcpyH2D(self, dst: int, size: int, payload=None, sync: bool = True,
                  stream: int = 0) -> Generator:
        ctx = yield from self._call()
        done = ctx.copy_h2d(ctx.stream(stream), dst, size, payload)
        if sync:
            yield done

    def memcpyD2H(self, src: int, size: int, stream: int = 0) -> Generator:
        """Returns the bytes the copy read: the payload window's share."""
        ctx = yield from self._call()
        return (yield from ctx.copy_d2h(ctx.stream(stream), src, size))

    def memcpyD2D(self, dst: int, src: int, size: int, sync: bool = True,
                  stream: int = 0) -> Generator:
        ctx = yield from self._call()
        done = ctx.copy_d2d(ctx.stream(stream), dst, src, size)
        if sync:
            yield done

    def cudaMemset(self, ptr: int, value: int, size: int, sync: bool = True,
                   stream: int = 0) -> Generator:
        ctx = yield from self._call()
        done = ctx.memset(ctx.stream(stream), ptr, value, size)
        if sync:
            yield done

    def cudaMallocHost(self, size: int) -> Generator:
        """Pinned host allocation — host-side only, negligible cost."""
        yield from self._call()
        ptr = next(self._host_ids)
        self._host_allocs[ptr] = size
        return ptr

    def cudaFreeHost(self, ptr: int) -> Generator:
        yield from self._call()
        if ptr not in self._host_allocs:
            raise CudaError(cudaError.cudaErrorInvalidValue, f"{ptr:#x} not host-allocated")
        del self._host_allocs[ptr]

    def cudaPointerGetAttributes(self, ptr: int) -> Generator:
        ctx = yield from self._call()
        if ctx.address_space.is_device_pointer(ptr):
            mapping, _ = ctx.address_space.translate(ptr)
            return PointerAttributes(True, 0, mapping.size)
        if ptr in self._host_allocs:
            return PointerAttributes(False, -1, self._host_allocs[ptr])
        raise CudaError(cudaError.cudaErrorInvalidValue, f"unknown pointer {ptr:#x}")

    def cudaMemGetInfo(self) -> Generator:
        """(free, total) device memory in bytes."""
        yield from self._call()
        return (self.device.mem_free, self.device.total_mem)

    # --- kernels ---
    def cudaGetFunction(self, name: str) -> Generator:
        """Resolve a registered kernel to a function pointer (stands in for
        the ``__cudaRegisterFunction`` calls real applications run at load)."""
        ctx = yield from self._call()
        return ctx.get_function(name)

    def pushCallConfiguration(self, grid=(1, 1, 1), block=(1, 1, 1),
                              stream: int = 0) -> Generator:
        """Host-side bookkeeping the compiler emits before every launch."""
        yield from self._call()

    def cudaLaunchKernel(self, token: int, grid=(1, 1, 1), block=(1, 1, 1),
                         args: tuple = (), stream: int = 0,
                         work: Optional[float] = None) -> Generator:
        ctx = yield from self._call()
        yield from self.env.sleep(self.costs.kernel_launch_s)
        ctx.launch_kernel(token, Dim3(*grid), Dim3(*block), tuple(args),
                          stream_handle=stream, work_override=work)

    # --- streams / events / sync ---
    def cudaStreamCreate(self) -> Generator:
        ctx = yield from self._call()
        yield self.env.timeout(self.costs.stream_create_s)
        return ctx.create_stream().handle

    def cudaStreamSynchronize(self, stream: int) -> Generator:
        ctx = yield from self._call()
        yield ctx.stream(stream).synchronize()

    def cudaStreamDestroy(self, stream: int) -> Generator:
        ctx = yield from self._call()
        ctx.destroy_stream(stream)

    def cudaEventCreate(self) -> Generator:
        ctx = yield from self._call()
        return ctx.create_event().handle

    def cudaEventRecord(self, event: int, stream: int = 0) -> Generator:
        ctx = yield from self._call()
        ctx.event(event).record(ctx.stream(stream))

    def cudaEventSynchronize(self, event: int) -> Generator:
        ctx = yield from self._call()
        yield ctx.event(event).synchronize()

    def cudaEventElapsedTime(self, start: int, end: int) -> Generator:
        ctx = yield from self._call()
        return ctx.event(end).elapsed_ms(ctx.event(start))

    def cudaDeviceSynchronize(self) -> Generator:
        ctx = yield from self._call()
        yield ctx.synchronize()

    # --- cuDNN / cuBLAS ---
    def cudnnCreate(self) -> Generator:
        lib = yield from self._library()
        return (yield from lib.create("cudnn")).handle

    def cudnnCreateDescriptor(self, kind: str) -> Generator:
        lib = yield from self._library()
        return (yield from lib.create_descriptor(kind))

    def cudnnSetDescriptor(self, desc: int, **settings) -> Generator:
        lib = yield from self._library()
        return (yield from lib.set_descriptor(desc, **settings))

    def cudnnDestroyDescriptor(self, desc: int) -> Generator:
        lib = yield from self._library()
        return (yield from lib.destroy_descriptor(desc))

    def cudnnOp(self, handle: int, op: str, work: float, sync: bool = False,
                stream: int = 0) -> Generator:
        lib = yield from self._library()
        done = yield from lib.op(handle, op, work, stream=stream)
        if sync:
            yield done

    def cublasCreate(self) -> Generator:
        lib = yield from self._library()
        return (yield from lib.create("cublas")).handle

    def cublasOp(self, handle: int, op: str, work: float, sync: bool = False,
                 stream: int = 0) -> Generator:
        lib = yield from self._library()
        done = yield from lib.op(handle, op, work, stream=stream)
        if sync:
            yield done


class _NativeLease:
    def __init__(self, provider, gpu_session: NativeGpuSession, request):
        self.gpu = gpu_session
        self._provider = provider
        self._request = request

    def release(self) -> Generator:
        self.gpu.close()
        self._provider._free.append(self.gpu.device)
        self._provider._gate.release(self._request)
        if False:
            yield
        return None


class NativeGpuProvider:
    """The native baseline: one function at a time per local GPU."""

    def __init__(self, env: Environment, num_gpus: int = 1,
                 kernel_registry: Optional[KernelRegistry] = None,
                 costs: CostModel = DEFAULT_COSTS):
        self.env = env
        self.costs = costs
        self.kernels = kernel_registry or builtin_registry()
        self.devices = [SimGPU(env, i, costs=costs) for i in range(num_gpus)]
        self._gate = Resource(env, capacity=num_gpus)
        self._free = list(self.devices)

    def acquire(self, fc: FunctionContext, spec: FunctionSpec) -> Generator:
        t0 = self.env.now
        request = self._gate.request()
        yield request
        fc.add_phase("gpu_queue", self.env.now - t0)
        # native: a fresh process gets a fresh (uninitialized) session
        session = NativeGpuSession(self.env, self._free.pop(), self.kernels, self.costs)
        return _NativeLease(self, session, request)


# ======================================================================
# DGSF deployment
# ======================================================================

class _DgsfLease:
    def __init__(self, provider, bundle: GuestGpuBundle, fc: FunctionContext):
        self._provider = provider
        self._bundle = bundle
        self._fc = fc

    @property
    def gpu(self) -> GuestLibrary:
        return self._bundle.guest

    @property
    def api_server(self):
        return self._bundle.api_server

    def release(self) -> Generator:
        yield from self._provider._release(self._bundle)
        return None


class DgsfGpuProvider:
    """Installs DGSF GPUs into the serverless platform.

    ``acquire`` performs the §V-A handshake: ① ask the monitor for an API
    server (this is where functions queue under load — recorded as the
    ``gpu_queue`` phase), then connect and ② register kernels.
    """

    def __init__(self, deployment: "DgsfDeployment"):
        self.deployment = deployment
        self.control_rtt_s = 2 * deployment.network.default_profile.latency_s
        #: numbers the guests this deployment builds (their metric labels)
        self._guest_ids = itertools.count(1)

    def acquire(self, fc: FunctionContext, spec: FunctionSpec) -> Generator:
        dep = self.deployment
        t0 = fc.env.now
        # the backend chooses a GPU server, then ① the guest library talks
        # to that server's monitor
        gpu_server = dep.backend.choose(spec.gpu_mem_bytes)
        request = None
        try:
            yield fc.env.timeout(self.control_rtt_s)
            span = fc.invocation._span
            request = gpu_server.monitor.submit_request(
                spec.gpu_mem_bytes,
                fc.invocation.invocation_id,
                expected_duration_s=spec.expected_duration_s,
                trace_ctx=(span.trace_id, span.span_id) if span is not None else None,
                flow_key=spec.name,
            )
            while True:
                api_server = yield request.granted
                yield fc.env.timeout(self.control_rtt_s)
                if not api_server.dead:
                    break
                # The server died during the grant's network hop and the
                # monitor re-queued us; wait for the replacement grant.
                request = yield request.resubmitted
        except BaseException:
            # Died waiting (watchdog kill, …): the queued/charged request
            # would otherwise hold a server forever.
            if request is not None:
                gpu_server.monitor.cancel(request)
            dep.backend.note_release(gpu_server)
            raise
        fc.add_phase("gpu_queue", fc.env.now - t0)

        connection = dep.network.connect(fc.host, gpu_server.host)
        if dep.fault_director is not None:
            connection.faults = dep.fault_director.link_injector()
        connection.tracer = dep.tracer
        connection.label = f"inv-{fc.invocation.invocation_id}"
        root = fc.invocation._span
        if root is not None:
            # xfer spans join the invocation's trace: the critical-path
            # report needs wire time inside the per-invocation span tree
            connection.trace_ctx = (root.trace_id, root.span_id)
        try:
            api_server.begin_session(
                spec.gpu_mem_bytes, invocation_id=fc.invocation.invocation_id
            )
            rpc_server = api_server.serve_endpoint(connection.b)
            guest = GuestLibrary(
                fc.env,
                RpcClient(connection.a),
                flags=dep.config.optimizations,
                costs=dep.costs,
                rpc_timeout_s=dep.config.rpc_timeout_s,
                rpc_max_retries=dep.config.rpc_max_retries,
                rpc_retry_backoff_s=dep.config.rpc_retry_backoff_s,
                metrics=dep.metrics,
                tracer=dep.tracer,
                span=fc.invocation._span,
                guest_id=next(self._guest_ids),
            )
            kernel_names = fc.params.get("kernel_names", dep.kernels.names())
            # The attach handshake happens here; workloads time their own
            # "cuda_init" phase around acquire_gpu(), so it is not recorded
            # twice.  With the startup optimization the remote context already
            # exists; without it, attach pays the on-demand 3.2 s init.
            yield from guest.attach(kernel_names)
        except BaseException:
            api_server.stop_serving()
            if not api_server.dead and api_server.busy:
                yield from api_server.end_session()
            gpu_server.monitor.release(api_server)
            dep.backend.note_release(gpu_server)
            raise
        bundle = GuestGpuBundle(guest, api_server, connection, rpc_server)
        return _DgsfLease(self, bundle, fc)

    def artifact_cache_for(self, fc: FunctionContext) -> Generator:
        """Resolve the artifact cache of the API server serving ``fc``.

        Called from :meth:`FunctionContext.download`.  With caching off
        (the default) this returns None without consuming simulated time,
        leaving the download path — and the event timeline — untouched.

        With caching on, the GPU must be acquired *before* the download so
        the server identity (and hence its local cache) is known; that is
        the structural cost of server-side caching, traded against warm
        downloads dropping from seconds to milliseconds.  ``acquire_gpu``
        is idempotent, so the workload's own later call is a no-op.
        """
        if self.deployment.config.artifact_cache_bytes <= 0:
            return None
        if fc.spec is None or fc.spec.gpu_mem_bytes <= 0:
            return None  # CPU-only function: never grab a GPU for a download
        yield from fc.acquire_gpu()
        return fc._gpu_lease.api_server.artifact_cache

    def _release(self, bundle: GuestGpuBundle) -> Generator:
        server = bundle.api_server
        try:
            yield from bundle.guest.detach()
        except (GuestRpcError, ApiServerDown):
            # The server died (or the link stayed down) under this
            # function; the lease must still come home so the monitor can
            # finish recovery and free the slot.
            pass
        server.stop_serving()
        if not server.dead and server.busy:
            yield from server.end_session()
        server.gpu_server.monitor.release(server)
        self.deployment.backend.note_release(server.gpu_server)
        return None


class DgsfDeployment:
    """A complete DGSF world: platform + network + storage + GPU server."""

    def __init__(
        self,
        config: DgsfConfig = DgsfConfig(),
        kernel_registry: Optional[KernelRegistry] = None,
        costs: CostModel = DEFAULT_COSTS,
        network_profile: Optional[NetworkProfile] = None,
        storage_profile: StorageProfile = S3_DEFAULT,
        env: Optional[Environment] = None,
        rngs: Optional[RngRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.costs = costs
        self.env = env or Environment()
        # Sharded runs pass a forked per-group registry so this world's
        # streams are independent of every co-resident deployment; solo
        # runs keep the historical root-registry derivation bit-identical.
        self.rngs = rngs if rngs is not None else RngRegistry(seed=config.seed)
        self.kernels = kernel_registry or builtin_registry()
        # Observability: one registry + SLO engine + (optional) tracer
        # shared by every layer.  All three only read ``env.now`` and
        # append to Python lists, so enabling them cannot perturb the
        # event timeline.  An injected ``tracer`` (a shard's namespaced
        # tracer, typically) takes precedence over building one from the
        # config — in a worker process only the shard tracer's spans make
        # it home to the coordinator.
        self.metrics = MetricsRegistry(clock=lambda: self.env.now)
        self.slo = SloEngine().attach(self.metrics)
        if tracer is not None:
            self.tracer: Optional[Tracer] = tracer
        else:
            self.tracer = (
                Tracer(self.env, max_spans=config.trace_max_spans)
                if config.tracing_enabled
                else None
            )
        profile = network_profile or NetworkProfile(latency_s=1.2e-3)
        self.network = Network(
            self.env, default_profile=profile, rng=self.rngs.stream("network")
        )
        self.fn_host = self.network.add_host("fn-server", bandwidth_bps=10e9)
        self.gpu_host = self.network.add_host("gpu-server", bandwidth_bps=10e9)
        self.storage = ObjectStore(
            self.env, profile=storage_profile, rng=self.rngs.stream("storage")
        )
        self.platform = ServerlessPlatform(self.env, self.fn_host, storage=self.storage)
        self.platform.metrics = self.metrics
        self.platform.tracer = self.tracer
        # one or more disaggregated GPU servers behind the backend (§IV)
        self.backend = GpuBackend(policy=config.backend_policy)
        self.gpu_servers: list[GpuServer] = []
        for i in range(config.num_gpu_servers):
            host = self.gpu_host if i == 0 else self.network.add_host(
                f"gpu-server-{i}", bandwidth_bps=10e9
            )
            server = GpuServer(self.env, config, host=host,
                               kernel_registry=self.kernels, costs=costs,
                               metrics=self.metrics, tracer=self.tracer)
            server.nvml.bind_metrics(self.metrics, gpu_server=i)
            self.gpu_servers.append(server)
        self.platform.gpu_provider = DgsfGpuProvider(self)
        # Fault injection: one director per deployment, drawing from its own
        # RNG stream so fault-free runs keep their exact event timeline.
        self.fault_director: Optional[FaultDirector] = None
        if config.fault_plan is not None:
            self.fault_director = FaultDirector(
                config.fault_plan, self.rngs.stream("faults")
            )
            injector = self.fault_director.server_injector()
            for server in self.gpu_servers:
                for api_server in server.api_servers:
                    api_server.fault_injector = injector
        self._ready = False

    @property
    def gpu_server(self) -> GpuServer:
        """The first GPU server (single-server deployments' shorthand)."""
        return self.gpu_servers[0]

    @classmethod
    def lambda_deployment(cls, config: DgsfConfig = DgsfConfig(), **kwargs) -> "DgsfDeployment":
        """AWS-Lambda-flavoured deployment: slower, noisier networking."""
        lam_profile = NetworkProfile(
            latency_s=1.6e-3,
            jitter_stddev=400e-6,
            bandwidth_factor_range=(0.12, 0.35),
        )
        return cls(
            config=config,
            network_profile=lam_profile,
            storage_profile=S3_LAMBDA,
            **kwargs,
        )

    def start_servers(self) -> list:
        """Begin GPU-server bring-up; returns the servers' ready events.

        Split out of :meth:`setup` so sharded topologies can bring several
        co-resident deployments up *concurrently* from t=0 — sequential
        ``setup()`` calls would shift the later groups' timelines by the
        earlier groups' bring-up time, making outcomes depend on how
        groups were packed onto shards.
        """
        if self._ready:
            raise ConfigurationError("deployment already set up")
        for server in self.gpu_servers:
            server.start()
        return [s.ready for s in self.gpu_servers]

    def finish_setup(self) -> None:
        """Register brought-up servers; pair with :meth:`start_servers`."""
        # "it announces it is ready" — register with the backend
        for server in self.gpu_servers:
            self.backend.register(server)
        self._ready = True

    def setup(self) -> None:
        """Run GPU-server bring-up to completion (pre-experiment time)."""
        ready_events = self.start_servers()
        from repro.sim.core import AllOf

        self.env.run(until=AllOf(self.env, ready_events))
        self.finish_setup()

    @property
    def ready(self) -> bool:
        return self._ready


class NativeDeployment:
    """Baseline world: same platform/storage, locally attached GPUs."""

    def __init__(
        self,
        num_gpus: int = 1,
        kernel_registry: Optional[KernelRegistry] = None,
        costs: CostModel = DEFAULT_COSTS,
        storage_profile: StorageProfile = S3_DEFAULT,
        seed: int = 0,
        env: Optional[Environment] = None,
        tracing_enabled: bool = False,
        trace_max_spans: int = 250_000,
    ):
        self.env = env or Environment()
        self.costs = costs
        self.rngs = RngRegistry(seed=seed)
        self.kernels = kernel_registry or builtin_registry()
        self.metrics = MetricsRegistry(clock=lambda: self.env.now)
        self.slo = SloEngine().attach(self.metrics)
        self.tracer: Optional[Tracer] = (
            Tracer(self.env, max_spans=trace_max_spans)
            if tracing_enabled else None
        )
        self.network = Network(self.env, rng=self.rngs.stream("network"))
        self.fn_host = self.network.add_host("gpu-machine", bandwidth_bps=10e9)
        self.storage = ObjectStore(
            self.env, profile=storage_profile, rng=self.rngs.stream("storage")
        )
        self.platform = ServerlessPlatform(self.env, self.fn_host, storage=self.storage)
        self.platform.metrics = self.metrics
        self.platform.tracer = self.tracer
        self.platform.gpu_provider = NativeGpuProvider(
            self.env, num_gpus=num_gpus,
            kernel_registry=self.kernels, costs=costs,
        )

    def setup(self) -> None:
        """Nothing to bring up natively; provided for interface parity."""
        return None
