"""Physical device memory allocations (the ``cuMemCreate`` object).

A :class:`PhysicalAllocation` is a chunk of one GPU's memory.  It carries
a real numpy byte buffer so data written through the simulated APIs can be
read back and verified — including after a migration copies the allocation
to another GPU.  Buffers are size-capped (see
:attr:`repro.simcuda.costs.CostModel.payload_cap_bytes`): the declared
``size`` drives memory accounting and copy timing, while the backing
buffer holds ``payload_bytes = min(size, cap)`` real bytes.  The buffer
is zero-filled on first touch — the first write or view — so an
allocation nothing writes costs no host memory; reading it returns zeros.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.simcuda.errors import CudaError, CUresult

__all__ = ["PhysicalAllocation"]

_ids = itertools.count(1)


class PhysicalAllocation:
    """A physical chunk of device memory on one GPU."""

    __slots__ = ("handle", "device_id", "size", "payload_bytes", "_data", "released")

    def __init__(self, device_id: int, size: int, payload_cap: int):
        if size <= 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, "allocation size must be > 0")
        self.handle = next(_ids)
        self.device_id = device_id
        self.size = int(size)
        #: number of *real* bytes backing this allocation
        self.payload_bytes = min(self.size, int(payload_cap))
        self._data: Optional[np.ndarray] = None
        self.released = False

    @property
    def data(self) -> np.ndarray:
        """The writable payload buffer, zero-filled on first access."""
        if self._data is None:
            self._data = np.zeros(self.payload_bytes, dtype=np.uint8)
        return self._data

    def write(self, offset: int, buf: np.ndarray) -> None:
        """Write real bytes at ``offset`` (clipped to the payload window)."""
        self._check_live()
        buf = np.ascontiguousarray(buf).view(np.uint8).ravel()
        if offset >= self.payload_bytes:
            return  # beyond the materialized window: accounted, not stored
        n = min(len(buf), self.payload_bytes - offset)
        self.data[offset : offset + n] = buf[:n]

    def read(self, offset: int, length: int) -> np.ndarray:
        """Read up to ``length`` real bytes starting at ``offset``."""
        self._check_live()
        if offset >= self.payload_bytes:
            return np.zeros(0, dtype=np.uint8)
        end = min(offset + length, self.payload_bytes)
        if self._data is None:
            return np.zeros(max(0, end - offset), dtype=np.uint8)
        return self._data[offset:end].copy()

    def copy_payload_from(self, other: "PhysicalAllocation") -> None:
        """Clone the materialized bytes of ``other`` (migration data move)."""
        self._check_live()
        other._check_live()
        n = min(self.payload_bytes, other.payload_bytes)
        if other._data is not None:
            self.data[:n] = other._data[:n]
        elif self._data is not None:
            self._data[:n] = 0

    def release(self) -> None:
        if self.released:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, "double release")
        self.released = True
        self.payload_bytes = 0
        self._data = None

    def _check_live(self) -> None:
        if self.released:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, "use after release")

    def __repr__(self) -> str:
        return (
            f"<PhysAlloc #{self.handle} dev={self.device_id} "
            f"size={self.size} {'released' if self.released else 'live'}>"
        )
