"""Simulated CUDA stack.

A behavioural model of the NVIDIA software stack DGSF interposes:

* :mod:`~repro.simcuda.context` — CUDA contexts: creation, the
  device-memory lifecycle built from the CUDA 10.2 low-level calls
  (``cuMemCreate`` / ``cuMemAddressReserve`` / ``cuMemMap`` and their
  inverses) that DGSF's live migration is built on, address space,
  streams, events, per-context kernel function pointers, and the
  stream-ordered copies and memsets that both the native session
  (:class:`repro.core.deployment.NativeGpuSession`) and the DGSF API
  server execute,
* :mod:`~repro.simcuda.phys` and :mod:`~repro.simcuda.va` — the mechanism
  under that lifecycle: physical allocations, and VA reservations and
  mappings with fixed-address re-reservation,
* :mod:`~repro.simcuda.libs` — cuDNN and cuBLAS, one handle-based library
  model with the paper's measured creation costs and footprints per kind,
* :mod:`~repro.simcuda.device` — the GPU itself: memory accounting, a
  processor-sharing compute engine (Hyper-Q), and copy engines,
* :mod:`~repro.simcuda.nvml` — utilization sampling with NVML's
  "was any kernel running during the sample period" semantics (Fig. 7).

Device buffers carry real (size-capped) numpy payloads, so data integrity
across memcpys and migration is testable, while *timing* comes from the
calibrated cost model in :mod:`~repro.simcuda.costs`.
"""

from repro.simcuda.errors import CudaError, cudaError, CUresult
from repro.simcuda.types import (
    Dim3,
    DeviceProperties,
    PointerAttributes,
    V100_PROPERTIES,
)
from repro.simcuda.costs import CostModel, DEFAULT_COSTS
from repro.simcuda.device import SimGPU
from repro.simcuda.phys import PhysicalAllocation
from repro.simcuda.va import AddressSpace
from repro.simcuda.context import CudaContext
from repro.simcuda.stream import Stream, CudaEvent
from repro.simcuda.kernels import KernelDef, KernelRegistry, builtin_registry
from repro.simcuda.libs import (
    LIBRARY_KINDS,
    CudnnDescriptor,
    LibraryHandle,
    VendorLibrary,
)
from repro.simcuda.nvml import NvmlSampler, moving_average

__all__ = [
    "CudaError",
    "cudaError",
    "CUresult",
    "Dim3",
    "DeviceProperties",
    "PointerAttributes",
    "V100_PROPERTIES",
    "CostModel",
    "DEFAULT_COSTS",
    "SimGPU",
    "PhysicalAllocation",
    "AddressSpace",
    "CudaContext",
    "Stream",
    "CudaEvent",
    "KernelDef",
    "KernelRegistry",
    "builtin_registry",
    "LIBRARY_KINDS",
    "CudnnDescriptor",
    "LibraryHandle",
    "VendorLibrary",
    "NvmlSampler",
    "moving_average",
]
