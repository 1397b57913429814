"""Unit tests for physical allocations and virtual-address management."""

import tracemalloc

import numpy as np
import pytest

from repro.simcuda.errors import CudaError
from repro.simcuda.phys import PhysicalAllocation
from repro.simcuda.va import AddressSpace, VA_ALIGNMENT


# --- PhysicalAllocation --------------------------------------------------------

def test_allocation_payload_capped():
    alloc = PhysicalAllocation(device_id=0, size=10 * 1024 * 1024, payload_cap=4096)
    assert alloc.size == 10 * 1024 * 1024
    assert alloc.payload_bytes == 4096


def test_allocation_small_fully_materialized():
    alloc = PhysicalAllocation(0, 100, payload_cap=4096)
    assert alloc.payload_bytes == 100


def test_allocation_write_read_roundtrip():
    alloc = PhysicalAllocation(0, 1024, payload_cap=4096)
    data = np.arange(64, dtype=np.uint8)
    alloc.write(10, data)
    back = alloc.read(10, 64)
    assert np.array_equal(back, data)


def test_allocation_write_beyond_window_ignored():
    alloc = PhysicalAllocation(0, 1 << 20, payload_cap=256)
    alloc.write(1000, np.ones(16, dtype=np.uint8))  # beyond window: no-op
    assert np.count_nonzero(alloc.data) == 0


def test_allocation_write_clipped_at_window_edge():
    alloc = PhysicalAllocation(0, 1 << 20, payload_cap=256)
    alloc.write(250, np.full(16, 7, dtype=np.uint8))
    assert np.all(alloc.data[250:256] == 7)


def test_allocation_zero_size_rejected():
    with pytest.raises(CudaError):
        PhysicalAllocation(0, 0, payload_cap=256)


def test_allocation_release_and_use_after_release():
    alloc = PhysicalAllocation(0, 128, payload_cap=256)
    alloc.release()
    with pytest.raises(CudaError):
        alloc.read(0, 4)
    with pytest.raises(CudaError):
        alloc.release()


def test_copy_payload_between_allocations():
    src = PhysicalAllocation(0, 512, payload_cap=4096)
    dst = PhysicalAllocation(1, 512, payload_cap=4096)
    src.write(0, np.arange(256, dtype=np.uint8))
    dst.copy_payload_from(src)
    assert np.array_equal(dst.read(0, 256), np.arange(256, dtype=np.uint8))


def test_untouched_allocation_holds_no_buffer_and_reads_zeros():
    alloc = PhysicalAllocation(0, 1 << 20, payload_cap=4096)
    assert alloc._data is None
    back = alloc.read(100, 64)
    assert back.dtype == np.uint8 and np.array_equal(back, np.zeros(64, np.uint8))
    assert len(alloc.read(4000, 500)) == 96  # clipped to the window
    assert alloc._data is None  # reading does not materialize


def test_copy_from_untouched_source_zeroes_touched_destination():
    src = PhysicalAllocation(0, 512, payload_cap=4096)
    dst = PhysicalAllocation(1, 1024, payload_cap=4096)
    dst.write(0, np.full(1024, 9, dtype=np.uint8))
    dst.copy_payload_from(src)
    assert np.count_nonzero(dst.read(0, 512)) == 0
    assert np.all(dst.read(512, 512) == 9)  # outside the source's window
    assert src._data is None


def test_release_drops_the_buffer():
    alloc = PhysicalAllocation(0, 256, payload_cap=4096)
    alloc.write(0, np.ones(8, dtype=np.uint8))
    alloc.release()
    assert alloc._data is None
    assert alloc.payload_bytes == 0


def test_untouched_allocations_cost_no_host_memory():
    tracemalloc.start()
    try:
        allocs = [PhysicalAllocation(0, 1 << 20, payload_cap=1 << 20)
                  for _ in range(64)]
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(allocs) == 64
    assert traced < 1 << 20


# --- AddressSpace ------------------------------------------------------------------

def test_reserve_returns_aligned_disjoint_ranges():
    space = AddressSpace()
    a = space.reserve(1000)
    b = space.reserve(1000)
    assert a % VA_ALIGNMENT == 0
    assert b % VA_ALIGNMENT == 0
    assert b >= a + VA_ALIGNMENT


def test_reserve_fixed_address():
    space = AddressSpace()
    va = space.reserve(4096)
    space2 = AddressSpace()
    assert space2.reserve(4096, fixed_addr=va) == va


def test_reserve_fixed_overlap_rejected():
    space = AddressSpace()
    va = space.reserve(VA_ALIGNMENT * 2)
    with pytest.raises(CudaError):
        space.reserve(4096, fixed_addr=va + VA_ALIGNMENT)


def test_reserve_fixed_unaligned_rejected():
    space = AddressSpace()
    with pytest.raises(CudaError):
        space.reserve(4096, fixed_addr=12345)


def test_reserve_invalid_size():
    space = AddressSpace()
    with pytest.raises(CudaError):
        space.reserve(0)


def test_map_requires_reservation():
    space = AddressSpace()
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    with pytest.raises(CudaError):
        space.map(0xDEAD0000, alloc)


def test_map_unmap_cycle():
    space = AddressSpace()
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    va = space.reserve(4096)
    mapping = space.map(va, alloc)
    assert mapping.allocation is alloc
    returned = space.unmap(va)
    assert returned is alloc
    with pytest.raises(CudaError):
        space.unmap(va)


def test_double_map_rejected():
    space = AddressSpace()
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    va = space.reserve(4096)
    space.map(va, alloc)
    with pytest.raises(CudaError):
        space.map(va, PhysicalAllocation(0, 4096, payload_cap=4096))


def test_map_larger_than_reservation_rejected():
    space = AddressSpace()
    va = space.reserve(4096)  # rounds up to alignment
    big = PhysicalAllocation(0, VA_ALIGNMENT * 2, payload_cap=4096)
    with pytest.raises(CudaError):
        space.map(va, big)


def test_free_reservation_requires_unmapped():
    space = AddressSpace()
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    va = space.reserve(4096)
    space.map(va, alloc)
    with pytest.raises(CudaError):
        space.free_reservation(va)
    space.unmap(va)
    space.free_reservation(va)
    with pytest.raises(CudaError):
        space.free_reservation(va)


def test_translate_interior_pointer():
    space = AddressSpace()
    alloc = PhysicalAllocation(0, 8192, payload_cap=8192)
    va = space.reserve(8192)
    space.map(va, alloc)
    mapping, offset = space.translate(va + 100)
    assert mapping.allocation is alloc
    assert offset == 100


def test_translate_unmapped_pointer_fails():
    space = AddressSpace()
    with pytest.raises(CudaError):
        space.translate(0x1234)


def test_is_device_pointer():
    space = AddressSpace()
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    va = space.reserve(4096)
    space.map(va, alloc)
    assert space.is_device_pointer(va)
    assert space.is_device_pointer(va + 4095)
    assert not space.is_device_pointer(va + VA_ALIGNMENT)


def test_snapshot_lists_mappings():
    space = AddressSpace()
    sizes = [4096, 8192, 1024]
    vas = []
    for s in sizes:
        alloc = PhysicalAllocation(0, s, payload_cap=4096)
        va = space.reserve(s)
        space.map(va, alloc)
        vas.append(va)
    snap = space.snapshot()
    assert len(snap) == 3
    assert [v for v, _ in snap] == sorted(vas)


def test_mapped_bytes_accounting():
    space = AddressSpace()
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    va = space.reserve(4096)
    assert space.mapped_bytes() == 0
    space.map(va, alloc)
    assert space.mapped_bytes() == 4096
