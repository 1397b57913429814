"""The DGSF API server (paper §V-A/§V-B/§V-C).

An API server is a process on the GPU server that "handles exclusively
one serverless function at a time and executes them on an actual physical
GPU".  It:

* pre-creates its CUDA context and one cuDNN + one cuBLAS handle on its
  *home* GPU at bring-up — the 755 MB idle footprint of §V-C — so none of
  that initialization is on any function's critical path,
* realizes guest allocations through its memory context's low-level
  lifecycle (:meth:`~repro.simcuda.context.CudaContext.malloc`:
  ``cuMemCreate``/``cuMemAddressReserve``/``cuMemMap``) so the virtual
  address map can be reproduced on another GPU during migration,
* *simulates* restricted APIs — ``cudaGetDeviceCount`` always answers 1,
  property queries describe only the currently assigned GPU,
* tracks every allocation — the memory context's address map is the
  session's allocation table — so DGSF "knows exactly how much memory an
  application is using" and enforces the function's declared limit,
* keeps guest-visible handles (streams, events, kernel functions, cuDNN/
  cuBLAS handles) as opaque tokens mapped to per-context objects, the
  translation-map mechanism migration relies on (§V-D).

Execution is serialized with migration through an exec lock: "Migration
occurs at API call boundaries."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.core.decode import DecodeEngine
from repro.errors import ReproError, SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.simcuda.context import CudaContext
from repro.simcuda.costs import CostModel
from repro.simcuda.errors import CudaError, cudaError
from repro.simcuda.libs import LIBRARY_KINDS, LibraryHandle, VendorLibrary
from repro.simcuda.stream import Stream
from repro.simcuda.types import Dim3
from repro.simnet.rpc import RpcRequest, RpcServer

__all__ = ["ApiServer", "ApiServerDown", "FunctionSession", "ApiServerStats"]

_token_ids = itertools.count(0xA000_0000)


class ApiServerDown(ReproError):
    """The API server process died (injected crash or detected failure).

    Raised locally when a guest reaches a dead/recovering server; on the
    wire the crash manifests as silence — no reply ever arrives and the
    guest's RPC timeout fires instead.
    """


@dataclass(frozen=True)
class ApiServerStats:
    """One §V-A step-③ update message: "The API server constantly sends
    updates messages to the monitor so that it can keep track of
    utilization of each GPU"."""

    server_id: int
    t: float
    busy: bool
    current_device_id: int
    used_bytes: int
    api_calls: int


@dataclass
class FunctionSession:
    """Per-function state held by the API server while serving it."""

    declared_bytes: int
    invocation_id: int = -1
    #: bytes mapped in the memory context (its address map lists them)
    used_bytes: int = 0
    peak_bytes: int = 0
    #: guest stream token -> {device_id: Stream}
    streams: dict[int, dict[int, Stream]] = field(default_factory=dict)
    #: guest event token -> CudaEvent (in current context)
    events: dict[int, object] = field(default_factory=dict)
    #: guest function token -> kernel name
    kernel_names: dict[int, str] = field(default_factory=dict)
    #: guest cuDNN/cuBLAS token -> {device_id: LibraryHandle}
    handles: dict[int, dict[int, LibraryHandle]] = field(default_factory=dict)
    #: handles borrowed from the shared pools (to give back at session end)
    borrowed: list[LibraryHandle] = field(default_factory=list)
    api_calls: int = 0
    #: server-side LLM decode engine, created by ``llmConfigure``
    llm: Optional[DecodeEngine] = None


class ApiServer:
    """One API server of a GPU server."""

    def __init__(self, env: Environment, gpu_server, server_id: int, home_device_id: int):
        self.env = env
        self.gpu_server = gpu_server
        self.server_id = server_id
        self.home_device_id = home_device_id
        self.current_device_id = home_device_id
        #: where the session's memory lives — normally equals
        #: ``current_device_id``; DCUDA-style peer-access migration leaves
        #: it behind on the source GPU
        self.memory_device_id = home_device_id
        #: multiplicative slowdown applied to kernel work (peer access)
        self.kernel_work_multiplier = 1.0
        #: device_id -> pre-created context (home at bring-up; target
        #: contexts are claimed from the per-GPU migration slot)
        self.contexts: dict[int, CudaContext] = {}
        #: per-context library facades (created alongside contexts)
        self._libs: dict[int, VendorLibrary] = {}
        #: kind -> the server's own precreated handle on its home GPU (§V-C)
        self._own: dict[str, LibraryHandle] = {}
        #: kinds whose own handle the current session holds
        self._own_lent: set[str] = set()
        self.session: Optional[FunctionSession] = None
        self.exec_lock = Resource(env, capacity=1)
        self.migrations = 0
        self.requests_handled = 0
        #: set by the monitor between grant and release so a server cannot
        #: be handed to two functions (begin_session happens later, after
        #: the reply network hop)
        self.reserved = False
        self._rpc: Optional[RpcServer] = None
        # -- fault/recovery state --------------------------------------------
        #: the process is gone; nothing can be served until re-bring-up
        self.dead = False
        #: the monitor noticed the death and a replacement is being set up
        self.recovering = False
        #: did the crash orphan an *attached* function (vs. an idle server)?
        self.crashed_mid_session = False
        self.crashes = 0
        #: API-server-local artifact cache (None when disabled).  Host-side
        #: staging state: it survives GPU-to-GPU migration (the server
        #: stays on the same machine) but dies with the process on crash.
        self.artifact_cache = None
        cache_bytes = getattr(
            getattr(gpu_server, "config", None), "artifact_cache_bytes", 0
        )
        if cache_bytes:
            from repro.faas.storage import ArtifactCache

            self.artifact_cache = ArtifactCache(
                cache_bytes,
                metrics=getattr(gpu_server, "metrics", None),
                server=server_id,
            )
        #: optional :class:`repro.obs.Tracer` (set by the deployment):
        #: execution of each remoted call/batch becomes a "server" span
        self.tracer = None
        #: optional :class:`~repro.core.faults.ServerFaultInjector`
        self.fault_injector = None
        #: calls remaining until the injected crash fires (None = no crash)
        self._crash_countdown: Optional[int] = None
        #: bumped on crash/restart so stale heartbeat loops exit
        self._stats_generation = 0

    # -- bring-up ----------------------------------------------------------------
    @property
    def costs(self) -> CostModel:
        return self.gpu_server.costs

    @property
    def charged_bytes(self) -> int:
        """Declared bytes the monitor's charge ledger holds against this
        server's current assignment (0 while idle)."""
        monitor = getattr(self.gpu_server, "monitor", None)
        return monitor.charged_bytes(self) if monitor is not None else 0

    def setup(self) -> Generator:
        """Create the home context + own handle pair (off critical path)."""
        ctx = yield from CudaContext.create(
            self.env, self.gpu_server.device(self.home_device_id),
            self.gpu_server.kernels,
        )
        self._adopt_context(self.home_device_id, ctx)
        for kind in LIBRARY_KINDS:
            self._own[kind] = yield from self._libs[self.home_device_id].create(kind)

    def _adopt_context(self, device_id: int, ctx: CudaContext) -> None:
        self.contexts[device_id] = ctx
        self._libs[device_id] = VendorLibrary(self.env, ctx, self.costs)

    def release_context(self, device_id: int) -> CudaContext:
        """Detach a non-home context (returning a migration slot)."""
        if device_id == self.home_device_id:
            raise SimulationError("cannot release the home context")
        del self._libs[device_id]
        return self.contexts.pop(device_id)

    def install_twins(self, device_id: int) -> Generator:
        """Give the session's streams, events and library handles twins in
        the ``device_id`` context — the translation maps of §V-D.

        Stream twins pre-created at ``cudaStreamCreate`` are kept; events
        are recreated.  Handle twins come from the GPU's shared pool, or
        are created inline on a pool miss: all cuDNN twins, then all
        cuBLAS twins.
        """
        session = self._session()
        ctx = self.contexts[device_id]
        for twins in session.streams.values():
            if device_id not in twins:
                twins[device_id] = ctx.create_stream()
        for token in list(session.events):
            session.events[token] = ctx.create_event()
        for kind in LIBRARY_KINDS:
            for twins in session.handles.values():
                if device_id not in twins and _kind_of(twins) == kind:
                    twins[device_id] = yield from self._borrow_or_create(kind, device_id)

    # -- state ----------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.session is not None

    @property
    def schedulable(self) -> bool:
        """May the monitor grant this server to a new function?"""
        return not self.busy and not self.reserved and not self.dead and not self.recovering

    @property
    def migrated(self) -> bool:
        return self.current_device_id != self.home_device_id

    @property
    def context(self) -> CudaContext:
        """The *compute* context (kernels, streams)."""
        return self.contexts[self.current_device_id]

    @property
    def memory_context(self) -> CudaContext:
        """The context owning the session's memory (usually == context)."""
        return self.contexts[self.memory_device_id]

    @property
    def device(self):
        return self.context.device

    @property
    def used_bytes(self) -> int:
        return self.session.used_bytes if self.session else 0

    # -- serving ---------------------------------------------------------------------
    def serve_endpoint(self, endpoint) -> RpcServer:
        """Start an RPC server for one function's connection."""
        if self._rpc is not None:
            raise SimulationError("API server already serving a connection")
        self._rpc = RpcServer(endpoint, self.handle, batch_handler=self.handle_batch)
        self._rpc.start()
        return self._rpc

    def stop_serving(self) -> None:
        if self._rpc is not None:
            self._rpc.stop()
            self._rpc = None

    def begin_session(self, declared_bytes: int, invocation_id: int = -1) -> None:
        if self.dead or self.recovering:
            raise ApiServerDown(f"API server {self.server_id} is down")
        if self.busy:
            raise SimulationError(f"API server {self.server_id} already busy")
        self.session = FunctionSession(
            declared_bytes=declared_bytes, invocation_id=invocation_id
        )
        if self.fault_injector is not None:
            self._crash_countdown = self.fault_injector.draw_session_crash()

    def end_session(self) -> Generator:
        """Tear down function state; return home if migrated (§V-A)."""
        if self.session is None:
            raise SimulationError("no active session")
        with self.exec_lock.request() as lock:
            yield lock
            yield self.context.synchronize()
            session = self.session
            # Free leftover allocations (functions should free, but the
            # server guarantees cleanup like a process exit would).
            for va, _ in self.memory_context.address_space.snapshot():
                yield from self._free_va(va)
            self.release_handles(session)
            # Destroy per-function streams (all twins).
            for twins in session.streams.values():
                for dev_id, stream in twins.items():
                    ctx = self.contexts.get(dev_id)
                    if ctx is not None and stream.handle in ctx.streams:
                        ctx.destroy_stream(stream.handle)
            self.session = None
            if self.migrated:
                # "the API server changes its current GPU to the originally
                # assigned one" — no data left to move at this point.
                self.gpu_server.release_migration_slot(self, self.current_device_id)
                self.current_device_id = self.home_device_id
            self.memory_device_id = self.home_device_id
            self.kernel_work_multiplier = 1.0

    def release_handles(self, session: Optional[FunctionSession],
                        own: bool = False) -> None:
        """Release library handles without using simulated time.

        The one release path of session end, crash and shutdown: the
        session's borrowed handles go back to the shared pool, handles it
        created inline (unpooled baseline, pool miss) free their device
        footprint, and the server's own handles are free for the next
        function — or, with ``own``, freed as well (the process is gone).
        """
        freed: list[LibraryHandle] = list(self._own.values()) if own else []
        if session is not None:
            for handle in session.borrowed:
                self.gpu_server.pools.give_back(handle)
            kept = set(session.borrowed).union(self._own.values())
            freed += [h for twins in session.handles.values()
                      for h in twins.values() if h not in kept]
        for handle in freed:
            self.gpu_server.device(handle.device_id).unreserve_bytes(handle.nbytes)
        if own:
            self._own = {}
        self._own_lent.clear()

    # -- RPC dispatch -------------------------------------------------------------------
    def _trace_track(self) -> tuple[str, str]:
        host = getattr(self.gpu_server, "host", None)
        pid = host.name if host is not None else "gpu-server"
        return pid, f"api-{self.server_id}"

    def _trace_server_span(self, name, t0, request, status, calls=1) -> None:
        """Record execution of a remoted call/batch (t0 = arrival, so the
        exec-lock wait is visible inside the span)."""
        trace_id, parent_id = getattr(request, "_trace", (None, None))
        pid, tid = self._trace_track()
        self.tracer.complete(
            name, t0, self.env.now, cat="server", pid=pid, tid=tid,
            trace_id=trace_id, parent_id=parent_id, status=status,
            server=self.server_id, msg_id=request.msg_id, calls=calls,
        )

    def handle(self, request: RpcRequest) -> Generator:
        """Dispatch one remoted API call (the RpcServer handler)."""
        [result] = yield from self._execute([request], f"srv:{request.method}")
        return result

    def handle_batch(self, requests: list) -> Generator:
        """Execute a shipped batch (the RpcServer batch handler)."""
        return (yield from self._execute(requests, "srv:__batch__"))

    def _execute(self, requests: list, span_name: str) -> Generator:
        """Run ``requests`` in order under one exec-lock acquisition.

        Per-call unmarshal/dispatch cost is charged as a single aggregate
        timeout; migration still only happens at (batch) boundaries.
        Returns the calls' results.
        """
        t0 = self.env.now
        status = "error"
        try:
            with self.exec_lock.request() as lock:
                yield lock
                self.requests_handled += len(requests)
                if self.session is not None:
                    self.session.api_calls += len(requests)
                yield from self.env.sleep(self.costs.api_call_server_s * len(requests))
                self._maybe_crash(len(requests))
                values = []
                for request in requests:
                    method = getattr(self, "_rpc_" + request.method, None)
                    if method is None:
                        raise CudaError(
                            cudaError.cudaErrorNotSupported,
                            f"unknown API {request.method!r}",
                        )
                    values.append((yield from method(*request.args, **request.kwargs)))
                status = "ok"
                return values
        finally:
            if self.tracer is not None and requests:
                self._trace_server_span(
                    span_name, t0, requests[0], status, calls=len(requests)
                )

    # Each _rpc_* method below implements one remoted API.

    def _rpc_attach(self, kernel_names: list[str], pooled: bool = True) -> Generator:
        """Step ② of §V-A: the guest sends information about its kernels.

        Without the startup optimization (``pooled=False``, the ablation
        baseline) the runtime context is initialized on demand here —
        putting the full 3.2 s CUDA initialization back on the critical
        path, exactly what handle pooling removes (§VIII-C).
        """
        session = self._session()
        if not pooled:
            yield self.env.timeout(self.costs.cuda_init_s)
        tokens = {}
        for name in kernel_names:
            token = next(_token_ids)
            session.kernel_names[token] = name
            # resolving also warms the per-context function pointer
            self.context.get_function(name)
            tokens[name] = token
        yield self.env.timeout(self.costs.api_call_server_s)
        return tokens

    # --- device management (restricted APIs, §V-B) ---
    def _rpc_cudaGetDeviceCount(self) -> Generator:
        # "the API server should always reply with 1"
        if False:
            yield
        return 1

    def _rpc_cudaGetDeviceProperties(self, device: int) -> Generator:
        if device != 0:
            raise CudaError(
                cudaError.cudaErrorInvalidDevice,
                "functions see exactly one GPU (index 0)",
            )
        if False:
            yield
        return self.device.properties.as_dict()

    def _rpc_pushCallConfiguration(self, *args) -> Generator:
        """Host-side no-op some unoptimized guests still forward."""
        if False:
            yield
        return None

    def _rpc_cudaSetDevice(self, device: int) -> Generator:
        if device != 0:
            raise CudaError(cudaError.cudaErrorInvalidDevice, str(device))
        if False:
            yield
        return None

    # --- memory management (DGSF-managed, §V-B) ---
    def _rpc_cudaMalloc(self, size: int) -> Generator:
        session = self._session()
        if session.used_bytes + size > session.declared_bytes:
            raise CudaError(
                cudaError.cudaErrorMemoryAllocation,
                f"function exceeded its declared GPU memory "
                f"({session.used_bytes + size} > {session.declared_bytes})",
            )
        return (yield from self._alloc_va(size))

    def _rpc_cudaFree(self, va: int) -> Generator:
        yield from self._free_va(va)
        return None

    def _free_va(self, va: int) -> Generator:
        session = self._session()
        freed = yield from self.memory_context.free(va)
        session.used_bytes -= freed

    def _alloc_va(self, size: int) -> Generator:
        """Allocate and map ``size`` bytes in the memory context.

        ``cudaMalloc`` checks the function's declared limit first; KV-cache
        pages skip that check: cache growth is runtime-managed,
        admission-controlled through the monitor's charge ledger
        (``charge_extra``) instead of the static declaration."""
        session = self._session()
        va = yield from self.memory_context.malloc(size)
        session.used_bytes += size
        session.peak_bytes = max(session.peak_bytes, session.used_bytes)
        return va

    # --- copies: the memory context moves the bytes, ordered on the
    # compute context's stream (they differ after a peer-access move) ---
    def _rpc_memcpyH2D(self, dst: int, size: int, payload=None, sync: bool = True,
                       stream: int = 0) -> Generator:
        done = self.memory_context.copy_h2d(self._stream(stream), dst, size, payload)
        if sync:
            yield done
        return None

    def _rpc_memcpyD2H(self, src: int, size: int, stream: int = 0) -> Generator:
        return (yield from self.memory_context.copy_d2h(self._stream(stream), src, size))

    def _rpc_memcpyD2D(self, dst: int, src: int, size: int, sync: bool = True,
                       stream: int = 0) -> Generator:
        done = self.memory_context.copy_d2d(self._stream(stream), dst, src, size)
        if sync:
            yield done
        return None

    def _rpc_cudaMemset(self, ptr: int, value: int, size: int, sync: bool = True,
                        stream: int = 0) -> Generator:
        done = self.memory_context.memset(self._stream(stream), ptr, value, size)
        if sync:
            yield done
        return None

    # --- kernels ---
    def _rpc_cudaGetFunction(self, name: str) -> Generator:
        session = self._session()
        self.context.get_function(name)  # validates + warms
        token = next(_token_ids)
        session.kernel_names[token] = name
        if False:
            yield
        return token

    def _rpc_cudaLaunchKernel(self, token: int, grid, block, args, stream: int = 0,
                              work=None) -> Generator:
        session = self._session()
        name = session.kernel_names.get(token)
        if name is None:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"kernel token {token:#x}"
            )
        ctx = self.context
        # "the API server must make sure it is using the correct pointer
        # for the current context in case the API server has migrated"
        fptr = ctx.get_function(name)
        yield from self.env.sleep(self.costs.kernel_launch_s)
        if work is not None and self.kernel_work_multiplier != 1.0:
            # remote (peer) memory access slowdown after a DCUDA-style move
            work = work * self.kernel_work_multiplier
        ctx.launch_kernel(
            fptr,
            Dim3(*grid),
            Dim3(*block),
            tuple(args),
            stream_handle=self._stream(stream).handle,
            work_override=work,
        )
        return None

    # --- streams / events ---
    def _rpc_cudaStreamCreate(self) -> Generator:
        session = self._session()
        yield self.env.timeout(self.costs.stream_create_s)
        token = next(_token_ids)
        # "the API server preemptively creates streams on each context when
        # one stream is created and keeps a translation map" (§V-D)
        twins = {}
        for dev_id, ctx in self.contexts.items():
            twins[dev_id] = ctx.create_stream()
        session.streams[token] = twins
        return token

    def _rpc_cudaStreamSynchronize(self, token: int) -> Generator:
        yield self._stream(token).synchronize()
        return None

    def _rpc_cudaStreamDestroy(self, token: int) -> Generator:
        session = self._session()
        twins = session.streams.pop(token, None)
        if twins is None:
            raise CudaError(cudaError.cudaErrorInvalidResourceHandle, f"stream {token:#x}")
        for dev_id, stream in twins.items():
            ctx = self.contexts.get(dev_id)
            if ctx is not None and stream.handle in ctx.streams:
                ctx.destroy_stream(stream.handle)
        if False:
            yield
        return None

    def _rpc_cudaEventCreate(self) -> Generator:
        session = self._session()
        token = next(_token_ids)
        session.events[token] = self.context.create_event()
        if False:
            yield
        return token

    def _rpc_cudaEventRecord(self, token: int, stream: int = 0) -> Generator:
        event = self._event(token)
        event.record(self._stream(stream))
        if False:
            yield
        return None

    def _rpc_cudaEventSynchronize(self, token: int) -> Generator:
        yield self._event(token).synchronize()
        return None

    def _rpc_cudaEventElapsedTime(self, start: int, end: int) -> Generator:
        if False:
            yield
        return self._event(end).elapsed_ms(self._event(start))

    def _rpc_cudaMemGetInfo(self) -> Generator:
        """Restricted like device properties: the function sees only its
        own declared budget, not the whole GPU server's memory state."""
        if False:
            yield
        session = self._session()
        free = session.declared_bytes - session.used_bytes
        return (free, session.declared_bytes)

    def _rpc_cudaDeviceSynchronize(self) -> Generator:
        yield self.context.synchronize()
        return None

    # --- cuDNN / cuBLAS ---
    def _rpc_cudnnCreate(self, pooled: bool = True) -> Generator:
        return (yield from self._create_handle("cudnn", pooled))

    def _rpc_cublasCreate(self, pooled: bool = True) -> Generator:
        return (yield from self._create_handle("cublas", pooled))

    def _create_handle(self, kind: str, pooled: bool) -> Generator:
        """Create (or hand out a pooled) library handle.

        With handle pooling the server returns its own precreated handle
        (or borrows from the per-GPU shared pool); without it, the full
        creation (1.2 s for cuDNN) happens inline — the ablation baseline.
        """
        session = self._session()
        device_id = self.current_device_id
        if pooled and kind not in self._own_lent and device_id == self.home_device_id:
            self._own_lent.add(kind)
            handle = self._own[kind]
        elif pooled:
            handle = yield from self._borrow_or_create(kind, device_id)
        else:
            handle = yield from self._libs[device_id].create(kind)
        token = next(_token_ids)
        session.handles[token] = {device_id: handle}
        return token

    def _borrow_or_create(self, kind: str, device_id: int) -> Generator:
        """A handle from the GPU's shared pool, or one created inline."""
        handle = self.gpu_server.pools.borrow(kind, device_id)
        if handle is None:
            return (yield from self._libs[device_id].create(kind))
        self._session().borrowed.append(handle)
        return handle

    def _rpc_cudnnDescriptorOp(self, kind: str, op: str) -> Generator:
        """Unpooled descriptor traffic (ablation baseline): host-side work."""
        if op == "create":
            return (yield from self._libs[self.current_device_id].create_descriptor(kind))
        # set/destroy: tiny host-side cost, nothing to return
        yield self.env.timeout(self.costs.api_call_local_s)
        return None

    def _rpc_cudnnOp(self, token: int, op: str, work: float, sync: bool = False,
                     stream: int = 0) -> Generator:
        return (yield from self._library_op("cudnn", token, op, work, sync, stream))

    def _rpc_cublasOp(self, token: int, op: str, work: float, sync: bool = False,
                      stream: int = 0) -> Generator:
        return (yield from self._library_op("cublas", token, op, work, sync, stream))

    def _library_op(self, kind: str, token: int, op: str, work: float, sync: bool,
                    stream: int) -> Generator:
        handle = self._library_handle(kind, token)
        lib = self._libs[self.current_device_id]
        lib.adopt(handle)
        done = yield from lib.op(
            handle.handle, op, work * self.kernel_work_multiplier,
            stream=self._stream(stream).handle,
        )
        if sync:
            yield done
        return None

    # --- LLM decode engine (iteration-level batching + KV paging) ---
    def _rpc_llmConfigure(self, **engine_kwargs) -> Generator:
        session = self._session()
        if session.llm is not None:
            raise CudaError(
                cudaError.cudaErrorInvalidValue, "decode engine already configured"
            )
        config = getattr(self.gpu_server, "config", None)
        batch_cap = getattr(config, "llm_max_decode_batch", 0) if config else 0
        session.llm = DecodeEngine(self, batch_cap=batch_cap, **engine_kwargs)
        if False:
            yield
        return session.llm.max_batch

    def _rpc_llmSubmit(self, req_id: int, prompt_tokens: int,
                       output_tokens: int) -> Generator:
        self._llm_engine().submit(req_id, prompt_tokens, output_tokens)
        if False:
            yield
        return None

    def _rpc_llmStep(self) -> Generator:
        return (yield from self._llm_engine().step())

    def _rpc_llmStats(self) -> Generator:
        if False:
            yield
        return self._llm_engine().stats()

    def _llm_engine(self) -> DecodeEngine:
        engine = self._session().llm
        if engine is None:
            raise CudaError(
                cudaError.cudaErrorInitializationError, "no decode engine configured"
            )
        return engine

    # -- helpers ----------------------------------------------------------------------
    def _session(self) -> FunctionSession:
        if self.session is None:
            raise CudaError(
                cudaError.cudaErrorInitializationError, "no function attached"
            )
        return self.session

    def _stream(self, token: int) -> Stream:
        if token in (0, None):
            return self.context.default_stream
        session = self._session()
        twins = session.streams.get(token)
        if twins is None:
            raise CudaError(cudaError.cudaErrorInvalidResourceHandle, f"stream {token:#x}")
        # the translation map in action: pick this context's twin
        return twins[self.current_device_id]

    def _event(self, token: int):
        session = self._session()
        event = session.events.get(token)
        if event is None:
            raise CudaError(cudaError.cudaErrorInvalidResourceHandle, f"event {token:#x}")
        return event

    def _library_handle(self, kind: str, token: int) -> LibraryHandle:
        twins = self._session().handles.get(token)
        if twins is None or _kind_of(twins) != kind:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"{kind} handle {token:#x}"
            )
        handle = twins.get(self.current_device_id)
        if handle is None:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle,
                f"handle {token:#x} has no twin on GPU {self.current_device_id} "
                "(migration should have installed one)",
            )
        return handle

    # -- crash / recovery ---------------------------------------------------------
    def _maybe_crash(self, calls: int) -> None:
        """Tick the injected-crash countdown; fires mid-call when it hits 0."""
        if self._crash_countdown is None:
            return
        self._crash_countdown -= calls
        if self._crash_countdown <= 0:
            self.crash()
            raise ApiServerDown(
                f"API server {self.server_id} crashed mid-call (injected)"
            )

    def crash(self) -> None:
        """Kill the API server process, as the OS would tear it down.

        Everything the *process* owned vanishes instantly and synchronously:
        its RPC loop dies without replying, its CUDA contexts are destroyed
        (which drops all session allocations and the 303 MB context
        footprint), its own cuDNN/cuBLAS handles are gone.  Shared-pool
        handles live in the manager's slot contexts and survive — they only
        return to stock.  The monitor notices via missed heartbeats and
        runs recovery; ``crash()`` itself does no re-bring-up.
        """
        if self.dead:
            return
        self.dead = True
        self.crashes += 1
        self.crashed_mid_session = self.busy
        if self.tracer is not None:
            pid, tid = self._trace_track()
            self.tracer.instant(
                "server_crash", pid=pid, tid=tid, server=self.server_id,
                mid_session=self.busy,
            )
        self._crash_countdown = None
        if self.artifact_cache is not None:
            # staged artifacts died with the process's scratch directory
            self.artifact_cache.invalidate_all()
        self._stats_generation += 1  # silence the heartbeat loop
        session, self.session = self.session, None
        rpc, self._rpc = self._rpc, None
        if rpc is not None:
            rpc.kill()
        # Shared-pool handles are not process-owned: back to stock.  The
        # server's own handles and those the session created inline die
        # with the process.
        self.release_handles(session, own=True)
        for device_id, ctx in self.contexts.items():
            if device_id != self.home_device_id:
                # this context was claimed from the per-GPU migration slot
                self.gpu_server.note_slot_lost(device_id)
            # OS teardown frees the process's device memory in one sweep
            # (no cuMemRelease latency: the process is not there to pay it)
            ctx.destroy()
        self.contexts.clear()
        self._libs.clear()
        self.current_device_id = self.home_device_id
        self.memory_device_id = self.home_device_id
        self.kernel_work_multiplier = 1.0

    def stats(self) -> ApiServerStats:
        """Snapshot for the periodic monitor update (§V-A ③)."""
        return ApiServerStats(
            server_id=self.server_id,
            t=self.env.now,
            busy=self.busy,
            current_device_id=self.current_device_id,
            used_bytes=self.used_bytes,
            api_calls=self.session.api_calls if self.session else 0,
        )

    def start_stats_reporting(self, monitor, period_s: float) -> None:
        """Begin the periodic update-message loop to the monitor.

        The loop is generation-tagged: a crash (or a later restart) bumps
        the generation, so a dead server's heartbeats stop — which is
        exactly the signal the monitor's failure detector watches for.
        """
        self._stats_generation += 1
        generation = self._stats_generation

        def loop():
            while self._stats_generation == generation:
                yield self.env.timeout(period_s)
                if self._stats_generation != generation:
                    return
                monitor.receive_stats(self.stats())

        self.env.process(loop(), name=f"stats-{self.server_id}")

    def __repr__(self) -> str:
        return (
            f"<ApiServer {self.server_id} home={self.home_device_id} "
            f"now={self.current_device_id} {'busy' if self.busy else 'idle'}>"
        )


def _kind_of(twins: dict[int, LibraryHandle]) -> str:
    """The library kind of one guest handle token (all twins share it)."""
    return next(iter(twins.values())).kind
