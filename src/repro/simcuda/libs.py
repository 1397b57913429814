"""cuDNN and cuBLAS: handle-based vendor libraries.

Both libraries share one lifecycle and differ only in what a handle costs
(paper §V-C), which comes from the :class:`CostModel` by kind:

* ``cudnn`` — creation ≈1.2 s and ≈386 MB of device memory,
* ``cublas`` — creation ≈0.2 s and ≈70 MB.

Creation is *expensive*, so the DGSF API server pre-creates a pool of
handles.  cuDNN descriptor-create/set/destroy calls are *cheap host-side*
operations ("simply allocate memory on the host side to hold the opaque
structure") but extremely frequent during model loading — which is why
pooling them on the guest side removes a large number of round trips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator

from repro.sim.core import Environment
from repro.simcuda.context import CudaContext
from repro.simcuda.costs import CostModel, DEFAULT_COSTS
from repro.simcuda.errors import CudaError, cudaError
from repro.simcuda.types import Dim3

__all__ = [
    "LIBRARY_KINDS",
    "LibraryHandle",
    "VendorLibrary",
    "CudnnDescriptor",
    "DESCRIPTOR_KINDS",
]

_handle_ids = itertools.count(0x0DDD_0000)

#: handle kinds, in the order an API server creates them
LIBRARY_KINDS = ("cudnn", "cublas")

#: descriptor kinds the workloads create (subset of real cuDNN's)
DESCRIPTOR_KINDS = (
    "tensor",
    "filter",
    "convolution",
    "activation",
    "pooling",
)


@dataclass(eq=False)
class LibraryHandle:
    """An initialized cuDNN or cuBLAS handle bound to one context.

    Compared by identity: a handle is one live object, never a value.
    """

    handle: int
    kind: str
    context_id: int
    device_id: int
    #: device bytes the handle holds until destroyed or torn down
    nbytes: int


@dataclass
class CudnnDescriptor:
    """An opaque host-side descriptor (tensor/filter/convolution/...)."""

    handle: int
    kind: str
    settings: dict = field(default_factory=dict)


class VendorLibrary:
    """cuDNN and cuBLAS bound to one context.

    Handles created elsewhere (the DGSF API server's pools) become usable
    here through :meth:`adopt`.
    """

    def __init__(
        self,
        env: Environment,
        context: CudaContext,
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.env = env
        self.context = context
        self.costs = costs
        self._handles: dict[int, LibraryHandle] = {}
        self._descriptors: dict[int, CudnnDescriptor] = {}

    # -- handles ---------------------------------------------------------------
    def create(self, kind: str) -> Generator:
        """Create a ``kind`` handle, paying its time and footprint."""
        nbytes = getattr(self.costs, f"{kind}_handle_bytes")
        self.context.device.reserve_bytes(nbytes)
        yield self.env.timeout(getattr(self.costs, f"{kind}_handle_create_s"))
        handle = LibraryHandle(
            handle=next(_handle_ids),
            kind=kind,
            context_id=self.context.context_id,
            device_id=self.context.device.device_id,
            nbytes=nbytes,
        )
        self._handles[handle.handle] = handle
        return handle

    def destroy(self, handle: int) -> Generator:
        nbytes = self._get_handle(handle).nbytes
        del self._handles[handle]
        self.context.device.unreserve_bytes(nbytes)
        yield self.env.timeout(self.costs.api_call_local_s)

    def adopt(self, handle: LibraryHandle) -> None:
        """Register an externally precreated handle (API server pooling)."""
        self._handles[handle.handle] = handle

    # -- compute ops -----------------------------------------------------------------
    def op(self, handle: int, op: str, work: float, stream: int = 0) -> Generator:
        """Launch one library compute op (async; returns completion event)."""
        self._get_handle(handle)
        if work < 0:
            raise CudaError(cudaError.cudaErrorInvalidValue, "negative work")
        fptr = self.context.get_function("timed")
        yield from self.env.sleep(self.costs.kernel_launch_s)
        return self.context.launch_kernel(
            fptr, Dim3(1), Dim3(1), (work,), stream_handle=stream
        )

    # -- cuDNN descriptors -------------------------------------------------------------
    def create_descriptor(self, kind: str) -> Generator:
        if kind not in DESCRIPTOR_KINDS:
            raise CudaError(cudaError.cudaErrorInvalidValue, f"descriptor kind {kind!r}")
        yield self.env.timeout(self.costs.cudnn_descriptor_create_s)
        desc = CudnnDescriptor(handle=next(_handle_ids), kind=kind)
        self._descriptors[desc.handle] = desc
        return desc.handle

    def set_descriptor(self, desc: int, **settings) -> Generator:
        self._get_descriptor(desc).settings.update(settings)
        yield self.env.timeout(self.costs.api_call_local_s)

    def destroy_descriptor(self, desc: int) -> Generator:
        self._get_descriptor(desc)
        del self._descriptors[desc]
        yield self.env.timeout(self.costs.api_call_local_s)

    # -- internals -----------------------------------------------------------------------
    def _get_handle(self, handle: int) -> LibraryHandle:
        try:
            return self._handles[handle]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"library handle {handle:#x}"
            ) from None

    def _get_descriptor(self, desc: int) -> CudnnDescriptor:
        try:
            return self._descriptors[desc]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"cudnn descriptor {desc:#x}"
            ) from None
