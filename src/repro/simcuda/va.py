"""Virtual-address management (CUDA 10.2 low-level memory APIs).

This is the mechanism DGSF's migration depends on (paper §V-B/§V-D):
virtual address ranges are *reserved* independently of physical memory
(``cuMemAddressReserve``), physical chunks are created per GPU
(``cuMemCreate``) and *mapped* into the reserved range (``cuMemMap``).
Because reservation and backing are decoupled, an API server can re-create
the exact same virtual addresses on a different GPU and remap freshly
copied physical memory there — application pointers (including indirect
device pointers stored inside device data structures) remain valid.

:class:`AddressSpace` models one CUDA context's VA space: reservations,
mappings, interior-pointer translation, and fixed-address re-reservation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.simcuda.errors import CudaError, CUresult
from repro.simcuda.phys import PhysicalAllocation

__all__ = ["AddressSpace", "Mapping", "VA_BASE", "VA_ALIGNMENT"]

#: Base of the device VA region (mirrors CUDA's high canonical range).
VA_BASE = 0x7F00_0000_0000

#: Each address space gets its own sub-region, as real per-context VA
#: layouts differ — so an address minted by one context is never
#: *coincidentally* valid in another.  Fixed-address reservation (the
#: migration mechanism) works across sub-regions regardless.
_SPACE_STRIDE = 1 << 44
_space_ids = itertools.count(0)
#: Minimum reservation granularity (CUDA requires 2 MB granularity for
#: cuMemAddressReserve; we use 64 KB to keep small test allocations exact).
VA_ALIGNMENT = 64 * 1024


@dataclass
class Mapping:
    """A physical allocation mapped at a virtual address."""

    va: int
    size: int
    allocation: PhysicalAllocation

    @property
    def end(self) -> int:
        return self.va + self.size


class AddressSpace:
    """One context's virtual address space."""

    def __init__(self, base: Optional[int] = None, alignment: int = VA_ALIGNMENT):
        if base is None:
            base = VA_BASE + next(_space_ids) * _SPACE_STRIDE
        self.base = base
        self.alignment = alignment
        self._next = base
        #: va -> reserved size
        self._reservations: dict[int, int] = {}
        #: va -> Mapping (mappings are whole-reservation in this model, as
        #: DGSF maps one allocation per reserved range)
        self._mappings: dict[int, Mapping] = {}

    # -- reservation -----------------------------------------------------------
    def reserve(self, size: int, fixed_addr: Optional[int] = None) -> int:
        """Reserve ``size`` bytes of VA; optionally at a fixed address.

        Fixed-address reservation is what migration uses to reproduce the
        source context's address map in the destination context.
        """
        if size <= 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, "reserve size must be > 0")
        size = self._round_up(size)
        if fixed_addr is not None:
            if fixed_addr % self.alignment != 0:
                raise CudaError(
                    CUresult.CUDA_ERROR_INVALID_VALUE,
                    f"fixed address {fixed_addr:#x} not aligned",
                )
            if self._overlaps(fixed_addr, size):
                raise CudaError(
                    CUresult.CUDA_ERROR_INVALID_VALUE,
                    f"range {fixed_addr:#x}+{size:#x} overlaps an existing reservation",
                )
            va = fixed_addr
            self._next = max(self._next, va + size)
        else:
            va = self._next
            self._next = va + size
        self._reservations[va] = size
        return va

    def free_reservation(self, va: int) -> None:
        """``cuMemAddressFree``: release a reservation (must be unmapped)."""
        if va not in self._reservations:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, f"{va:#x} not reserved")
        if va in self._mappings:
            raise CudaError(CUresult.CUDA_ERROR_MAP_FAILED, f"{va:#x} still mapped")
        del self._reservations[va]

    # -- mapping -----------------------------------------------------------------
    def map(self, va: int, allocation: PhysicalAllocation) -> Mapping:
        """``cuMemMap``: back a reserved range with physical memory."""
        if va not in self._reservations:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, f"{va:#x} not reserved")
        if va in self._mappings:
            raise CudaError(CUresult.CUDA_ERROR_ALREADY_MAPPED, f"{va:#x} already mapped")
        if allocation.size > self._reservations[va]:
            raise CudaError(
                CUresult.CUDA_ERROR_INVALID_VALUE,
                "allocation larger than reserved range",
            )
        mapping = Mapping(va=va, size=allocation.size, allocation=allocation)
        self._mappings[va] = mapping
        return mapping

    def unmap(self, va: int) -> PhysicalAllocation:
        """``cuMemUnmap``: detach the physical backing (returned to caller)."""
        mapping = self._mappings.pop(va, None)
        if mapping is None:
            raise CudaError(CUresult.CUDA_ERROR_NOT_MAPPED, f"{va:#x} not mapped")
        return mapping.allocation

    # -- translation ----------------------------------------------------------------
    def translate(self, ptr: int) -> tuple[Mapping, int]:
        """Resolve a (possibly interior) device pointer to (mapping, offset).

        This is what lets the simulated GPU honour pointers that the
        application stored inside its own data structures.
        """
        for va, mapping in self._mappings.items():
            if va <= ptr < mapping.end:
                return mapping, ptr - va
        raise CudaError(
            CUresult.CUDA_ERROR_INVALID_VALUE, f"pointer {ptr:#x} is not mapped"
        )

    def is_device_pointer(self, ptr: int) -> bool:
        try:
            self.translate(ptr)
            return True
        except CudaError:
            return False

    # -- inspection --------------------------------------------------------------
    @property
    def mappings(self) -> list[Mapping]:
        return list(self._mappings.values())

    @property
    def reservations(self) -> dict[int, int]:
        return dict(self._reservations)

    def mapped_bytes(self) -> int:
        return sum(m.size for m in self._mappings.values())

    def snapshot(self) -> list[tuple[int, int]]:
        """(va, size) of every mapping — the address map migration recreates."""
        return sorted((m.va, m.size) for m in self._mappings.values())

    # -- internals ----------------------------------------------------------------
    def _round_up(self, size: int) -> int:
        return (size + self.alignment - 1) // self.alignment * self.alignment

    def _overlaps(self, start: int, size: int) -> bool:
        end = start + size
        for va, rsize in self._reservations.items():
            if va < end and start < va + rsize:
                return True
        return False
