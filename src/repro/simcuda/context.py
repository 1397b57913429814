"""CUDA contexts.

A context owns a virtual address space, streams, events and per-context
kernel *function pointers*, and performs the stream-ordered data movement
(H2D/D2H/D2D copies, memset) on the memory it maps.  Function pointers
being context-local is a real CUDA property the paper leans on: after
migrating to another GPU (hence another context) the API server must
re-resolve every kernel handle (§V-B "Kernel launches").

The context also owns the device-memory lifecycle, built from the CUDA
10.2 low-level calls DGSF's API server uses instead of ``cudaMalloc`` so
that migration can rebuild the same virtual addresses on another GPU
(§V-B "Memory management", §V-D): :meth:`~CudaContext.malloc` is
``cuMemCreate`` + ``cuMemAddressReserve`` + ``cuMemMap``,
:meth:`~CudaContext.free` is ``cuMemUnmap`` + ``cuMemAddressFree`` +
``cuMemRelease``, :meth:`~CudaContext.copy_peer` is migration's
``cuMemcpyPeer``, and :meth:`~CudaContext.destroy` is the process-exit
teardown.  The address space's mappings are the one allocation table.

Context *creation* (:meth:`~CudaContext.create`) is expensive (3.2 s,
~303 MB — paper §V-C); the caller decides when to pay it: native
applications pay on first CUDA call, DGSF API servers pre-create contexts
off the critical path.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

import numpy as np

from repro.sim.core import Environment, Event
from repro.simcuda.device import SimGPU
from repro.simcuda.errors import CudaError, cudaError
from repro.simcuda.kernels import KernelRegistry, LaunchParams
from repro.simcuda.stream import Stream, CudaEvent
from repro.simcuda.types import Dim3
from repro.simcuda.va import AddressSpace

__all__ = ["CudaContext"]

_ctx_ids = itertools.count(1)


class CudaContext:
    """One CUDA context on one GPU."""

    def __init__(self, env: Environment, device: SimGPU, kernel_registry: KernelRegistry):
        self.env = env
        self.device = device
        self.kernels = kernel_registry
        self.context_id = next(_ctx_ids)
        self.address_space = AddressSpace()
        self.default_stream = Stream(env, self)
        self.streams: dict[int, Stream] = {self.default_stream.handle: self.default_stream}
        self.events: dict[int, CudaEvent] = {}
        #: kernel name -> per-context function pointer (and back)
        self._fptr_by_name: dict[str, int] = {}
        self._name_by_fptr: dict[int, str] = {}
        self._next_fptr = (self.context_id << 24) | 0x10
        self.destroyed = False

    @classmethod
    def create(cls, env: Environment, device: SimGPU,
               kernel_registry: KernelRegistry) -> Generator:
        """``cuCtxCreate``: reserve the context footprint, wait the CUDA
        initialization, return the context."""
        device.reserve_bytes(device.costs.cuda_context_bytes)
        yield env.timeout(device.costs.cuda_init_s)
        return cls(env, device, kernel_registry)

    # -- device memory ---------------------------------------------------------------
    def malloc(self, size: int, va: Optional[int] = None) -> Generator:
        """``cuMemCreate`` + ``cuMemAddressReserve`` + ``cuMemMap``: allocate
        ``size`` bytes on this context's GPU and map them; returns the VA.

        With ``va`` the range is reserved at that fixed address — how
        migration recreates the source context's address map here.
        """
        yield self.env.timeout(self.device.costs.malloc_time(size))
        allocation = self.device.alloc_phys(size)
        va = self.address_space.reserve(size, fixed_addr=va)
        self.address_space.map(va, allocation)
        return va

    def free(self, va: int) -> Generator:
        """``cuMemUnmap`` + ``cuMemAddressFree`` + ``cuMemRelease`` of the
        allocation mapped at ``va``; returns its size."""
        try:
            allocation = self.address_space.unmap(va)
        except CudaError:
            raise CudaError(
                cudaError.cudaErrorInvalidValue, f"{va:#x} not allocated"
            ) from None
        self.address_space.free_reservation(va)
        yield self.env.timeout(self.device.costs.free_s)
        self.device.free_phys(allocation)
        return allocation.size

    def copy_peer(self, va: int, src_ctx: "CudaContext", src_va: int) -> Generator:
        """``cuMemcpyPeer`` of a whole allocation: copy the one mapped at
        ``src_va`` in another context (possibly on another GPU) into the
        one mapped at ``va`` here, on this GPU's copy engine, and wait for
        it — migration's data move, outside any stream."""
        src = src_ctx.address_space.translate(src_va)[0].allocation
        dst = self.address_space.translate(va)[0].allocation
        yield self.device.copy_d2d(src.size)
        dst.copy_payload_from(src)

    # -- kernel function pointers ------------------------------------------------
    def get_function(self, name: str) -> int:
        """Resolve a kernel name to this context's function pointer."""
        self._check_live()
        kernel = self.kernels.get(name)  # validates existence
        if kernel.name not in self._fptr_by_name:
            fptr = self._next_fptr
            self._next_fptr += 0x10
            self._fptr_by_name[name] = fptr
            self._name_by_fptr[fptr] = name
        return self._fptr_by_name[name]

    def function_name(self, fptr: int) -> str:
        try:
            return self._name_by_fptr[fptr]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle,
                f"function pointer {fptr:#x} does not belong to context {self.context_id}",
            ) from None

    # -- streams / events ---------------------------------------------------------
    def create_stream(self) -> Stream:
        self._check_live()
        stream = Stream(self.env, self)
        self.streams[stream.handle] = stream
        return stream

    def stream(self, handle: Optional[int]) -> Stream:
        if handle is None or handle == 0:
            return self.default_stream
        try:
            return self.streams[handle]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"stream {handle:#x}"
            ) from None

    def destroy_stream(self, handle: int) -> None:
        stream = self.stream(handle)
        if stream is self.default_stream:
            raise CudaError(cudaError.cudaErrorInvalidValue, "cannot destroy default stream")
        stream.destroy()
        del self.streams[handle]

    def create_event(self) -> CudaEvent:
        self._check_live()
        event = CudaEvent(self.env)
        self.events[event.handle] = event
        return event

    def event(self, handle: int) -> CudaEvent:
        try:
            return self.events[handle]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"event {handle:#x}"
            ) from None

    # -- memory helpers -------------------------------------------------------------
    def resolve_view(self, ptr: int, nbytes: int) -> np.ndarray:
        """Writable uint8 view of device memory at ``ptr`` (payload window)."""
        mapping, offset = self.address_space.translate(ptr)
        alloc = mapping.allocation
        if offset >= alloc.payload_bytes:
            return np.zeros(0, dtype=np.uint8)
        end = min(offset + nbytes, alloc.payload_bytes)
        return alloc.data[offset:end]

    # -- data movement ------------------------------------------------------------------
    # Each op is ordered on ``stream``, which may belong to another context:
    # after a peer-access migration the API server computes on the new GPU
    # while this context still owns (and translates) the memory.  Addresses
    # are translated when the op starts, not when it is enqueued.
    def copy_h2d(self, stream: Stream, dst: int, size: int,
                 payload: Optional[np.ndarray] = None) -> Event:
        """Enqueue a host-to-device copy; returns its completion event."""

        def start() -> Event:
            if payload is not None:
                mapping, offset = self.address_space.translate(dst)
                mapping.allocation.write(offset, payload)
            return self.device.copy_h2d(size)

        return stream.enqueue(start, name="h2d")

    def copy_d2h(self, stream: Stream, src: int, size: int) -> Generator:
        """Copy device-to-host and wait for it; returns the bytes read (the
        payload window's share of ``size``)."""
        read = [None]

        def start() -> Event:
            mapping, offset = self.address_space.translate(src)
            read[0] = mapping.allocation.read(offset, size)
            return self.device.copy_d2h(size)

        yield stream.enqueue(start, name="d2h")
        return read[0]

    def copy_d2d(self, stream: Stream, dst: int, src: int, size: int) -> Event:
        """Enqueue a device-to-device copy; returns its completion event."""

        def start() -> Event:
            smap, soff = self.address_space.translate(src)
            dmap, doff = self.address_space.translate(dst)
            dmap.allocation.write(doff, smap.allocation.read(soff, size))
            return self.device.copy_d2d(size)

        return stream.enqueue(start, name="d2d")

    def memset(self, stream: Stream, ptr: int, value: int, size: int) -> Event:
        """Enqueue a memset of ``size`` bytes; returns its completion event."""

        def start() -> Event:
            self.resolve_view(ptr, size)[:] = value & 0xFF
            return self.device.memset(size)

        return stream.enqueue(start, name="memset")

    # -- launching -------------------------------------------------------------------
    def launch_kernel(
        self,
        fptr: int,
        grid: Dim3,
        block: Dim3,
        args: tuple,
        stream_handle: Optional[int] = None,
        work_override: Optional[float] = None,
    ) -> Event:
        """Enqueue a kernel launch; returns its stream-completion event.

        ``work_override`` replaces the kernel's timing model — used by
        trace-driven workloads that carry measured durations.
        """
        self._check_live()
        name = self.function_name(fptr)
        kernel = self.kernels.get(name)
        params = LaunchParams(grid=grid, block=block, args=args)
        work = work_override if work_override is not None else kernel.timing(params)
        stream = self.stream(stream_handle)
        if work == 0.0 and kernel.payload is None:
            # Zero-work glue launch: completes exactly when the work already
            # enqueued completes — no new stream op needed (keeps the event
            # count of chatty frameworks tractable).
            return stream.synchronize()

        def start() -> Event:
            if kernel.payload is not None:
                kernel.payload(self.resolve_view, params)
            return self.device.launch(work, demand=kernel.demand, owner=self)

        return stream.enqueue(start, name=name)

    # -- synchronization --------------------------------------------------------------
    def synchronize(self) -> Event:
        """cudaDeviceSynchronize scope: all streams of this context."""
        tails = [s.synchronize() for s in self.streams.values()]
        return self.env.all_of(tails)

    # -- teardown ----------------------------------------------------------------------
    def destroy(self) -> None:
        """``cuCtxDestroy`` as process exit does it, in zero time: every
        mapping, every reservation and the context footprint are freed."""
        self.destroyed = True
        space = self.address_space
        for mapping in space.mappings:
            space.unmap(mapping.va)
            self.device.free_phys(mapping.allocation)
        for va in space.reservations:
            space.free_reservation(va)
        self.device.unreserve_bytes(self.device.costs.cuda_context_bytes)
        for stream in self.streams.values():
            stream.destroy()

    def _check_live(self) -> None:
        if self.destroyed:
            raise CudaError(cudaError.cudaErrorInvalidResourceHandle, "context destroyed")

    def __repr__(self) -> str:
        return f"<CudaContext {self.context_id} on GPU {self.device.device_id}>"
