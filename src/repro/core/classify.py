"""API classification: remotable vs localizable vs special (paper §V-B).

"There are two classes of APIs: remotable and localizable.  Localizable
APIs are not forwarded since they can be immediately responded by the
guest library using internally cached information or can be safely
ignored.  Remotable APIs require the guest library to use our TCP-based
RPC mechanism."

Within the remotable class, DGSF further distinguishes:

* *batchable* — "APIs that don't cause an immediate change to GPU state
  are accumulated locally and sent in batches" (§V-C): kernel launches,
  async memcpys/memsets, event records.
* *special* — remoted but not realized as-is: ``cudaGetDeviceCount``
  (always answers 1), pooled handle creation, DGSF-managed allocation.

Which class applies can depend on the active optimization flags — e.g.
cuDNN descriptor APIs are remotable in unoptimized DGSF and localizable
once guest-side descriptor pooling is enabled.  :func:`classify` takes the
flags and returns the effective class.
"""

from __future__ import annotations

import enum

from repro.core.config import OptimizationFlags

__all__ = ["ApiClass", "classify", "LOCALIZABLE", "BATCHABLE", "SPECIAL"]


class ApiClass(enum.Enum):
    #: answered entirely on the guest; never crosses the network
    LOCALIZABLE = "localizable"
    #: forwarded synchronously (caller needs the result or ordering)
    REMOTABLE_SYNC = "remotable_sync"
    #: enqueue-only; may be accumulated and shipped in a batch
    BATCHABLE = "batchable"


#: APIs that are localizable *when the corresponding optimization is on*.
#: Maps API name -> the OptimizationFlags attribute that enables local
#: handling ("" = always localizable in DGSF).
LOCALIZABLE: dict[str, str] = {
    # host-state-only APIs: "fully emulated on the client side" (§V-C)
    "cudaMallocHost": "avoid_unnecessary",
    "cudaFreeHost": "avoid_unnecessary",
    # guest tracks device allocations, so attributes are known locally
    "cudaPointerGetAttributes": "avoid_unnecessary",
    # ... and its declared budget, once the first query has returned it
    "cudaMemGetInfo": "avoid_unnecessary",
    # piggybacked onto the launch API
    "__cudaPushCallConfiguration": "avoid_unnecessary",
    # device count is fixed at 1 for the function's lifetime: cacheable
    "cudaGetDeviceCount": "avoid_unnecessary",
    "cudaSetDevice": "avoid_unnecessary",
    # cuDNN descriptors pooled/managed guest-side
    "cudnnCreateDescriptor": "descriptor_pooling",
    "cudnnSetDescriptor": "descriptor_pooling",
    "cudnnDestroyDescriptor": "descriptor_pooling",
}

#: Enqueue-only APIs eligible for batching.
BATCHABLE: frozenset[str] = frozenset(
    {
        "cudaLaunchKernel",
        "cudaMemcpyAsync",
        "cudaMemsetAsync",
        "cudaEventRecord",
        "cudnnOpAsync",
        "cublasOpAsync",
    }
)

#: Remoted but specially realized on the API server (documentation aid;
#: dispatch happens in the server handler).
SPECIAL: frozenset[str] = frozenset(
    {
        "cudaGetDeviceCount",       # always answers 1
        "cudaGetDeviceProperties",  # properties of the *assigned* GPU only
        "cudnnCreate",              # served from the handle pool
        "cublasCreate",             # served from the handle pool
        "cudaMalloc",               # realized via low-level VA management
    }
)


def classify(api: str, flags: OptimizationFlags) -> ApiClass:
    """Effective class of ``api`` under the given optimization flags.

    BATCHABLE covers every enqueue-only API the guest need not wait on;
    the guest then either buffers it for a batched flush (``batching``) or
    forwards it immediately on the pipelined channel (``async_forward``).
    """
    gate = LOCALIZABLE.get(api)
    if gate is not None:
        if gate == "" or getattr(flags, gate):
            return ApiClass.LOCALIZABLE
    if api in BATCHABLE and (flags.batching or flags.async_forward):
        return ApiClass.BATCHABLE
    return ApiClass.REMOTABLE_SYNC
