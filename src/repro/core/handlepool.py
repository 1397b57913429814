"""Pre-created CUDA contexts and cuDNN/cuBLAS handle pools (paper §V-C).

"Each GPU node maintains a pool of GPU API servers with their GPU runtime
initialized... Each API server pre-creates a set of cuDNN and cuBLAS
handles, which are returned directly to serve the corresponding API
calls."

:class:`HandlePools` owns one stock of initialized library handles per
(kind, GPU); their device-memory footprint is charged at creation time,
off any function's critical path.  API servers borrow handles when
serving ``cudnnCreate``/``cublasCreate`` from the pool and give them back
when the function finishes; migration borrows *twin* handles on the
destination GPU.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import ConfigurationError
from repro.sim.core import Environment
from repro.simcuda.context import CudaContext
from repro.simcuda.costs import CostModel
from repro.simcuda.libs import LIBRARY_KINDS, LibraryHandle, VendorLibrary

__all__ = ["HandlePools"]


class HandlePools:
    """Per-(kind, GPU) stocks of pre-initialized library handles."""

    def __init__(self, env: Environment, costs: CostModel):
        self.env = env
        self.costs = costs
        #: (kind, device_id) -> available handles
        self._stock: dict[tuple[str, int], list[LibraryHandle]] = {}
        #: device_id -> library used to mint pool handles
        self._libs: dict[int, VendorLibrary] = {}

    def prefill(self, context: CudaContext, count: int) -> Generator:
        """Create ``count`` handles of each kind on the context's GPU.

        Called by the manager at GPU-server bring-up; consumes real
        simulated time (count × (1.2 s + 0.2 s)) but runs before any
        function arrives.
        """
        if count <= 0:
            raise ConfigurationError("pool count must be positive")
        device_id = context.device.device_id
        lib = self._libs.setdefault(
            device_id, VendorLibrary(self.env, context, self.costs)
        )
        for _ in range(count):
            for kind in LIBRARY_KINDS:
                self.give_back((yield from lib.create(kind)))

    def borrow(self, kind: str, device_id: int) -> Optional[LibraryHandle]:
        """Take a pre-created handle for this GPU (None if exhausted)."""
        stock = self._stock.get((kind, device_id))
        return stock.pop() if stock else None

    def give_back(self, handle: LibraryHandle) -> None:
        self._stock.setdefault((handle.kind, handle.device_id), []).append(handle)

    def available(self, kind: str, device_id: int) -> int:
        """Handles of ``kind`` in stock for one GPU."""
        return len(self._stock.get((kind, device_id), []))

    def drain(self) -> list[LibraryHandle]:
        """Empty every stock, returning what it held (GPU-server shutdown)."""
        handles = [h for stock in self._stock.values() for h in stock]
        self._stock.clear()
        return handles
