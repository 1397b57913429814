"""Property-based tests for the simulated CUDA memory subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.simcuda import CostModel, CudaContext, SimGPU, CudaError, builtin_registry
from repro.simcuda.phys import PhysicalAllocation
from repro.simcuda.va import AddressSpace, VA_ALIGNMENT
from repro.simnet.serialization import payload_size


sizes = st.lists(st.integers(min_value=1, max_value=1 << 22), min_size=1, max_size=12)


@given(sizes)
@settings(max_examples=50, deadline=None)
def test_address_space_reservations_never_overlap(size_list):
    space = AddressSpace()
    ranges = []
    for size in size_list:
        va = space.reserve(size)
        ranges.append((va, va + size))
    ranges.sort()
    for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
        assert e1 <= s2, "reserved ranges must be disjoint"


@given(sizes)
@settings(max_examples=50, deadline=None)
def test_address_space_snapshot_rebuild_roundtrip(size_list):
    """Any mapping layout can be reproduced exactly at fixed addresses in
    a fresh space — the migration invariant."""
    src = AddressSpace()
    for size in size_list:
        alloc = PhysicalAllocation(0, size, payload_cap=64)
        va = src.reserve(size)
        src.map(va, alloc)
    dst = AddressSpace()
    for va, size in src.snapshot():
        got = dst.reserve(size, fixed_addr=va)
        assert got == va
        dst.map(va, PhysicalAllocation(1, size, payload_cap=64))
    assert dst.snapshot() == src.snapshot()


@given(sizes)
@settings(max_examples=50, deadline=None)
def test_translate_agrees_with_mapping_layout(size_list):
    space = AddressSpace()
    mapped = []
    for size in size_list:
        alloc = PhysicalAllocation(0, size, payload_cap=64)
        va = space.reserve(size)
        space.map(va, alloc)
        mapped.append((va, size, alloc))
    for va, size, alloc in mapped:
        for offset in {0, size // 2, size - 1}:
            mapping, got_offset = space.translate(va + offset)
            assert mapping.allocation is alloc
            assert got_offset == offset


@given(st.lists(st.integers(min_value=1, max_value=1 << 28), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_device_memory_accounting_balances(size_list):
    env = Environment()
    gpu = SimGPU(env, 0)
    live = []
    for size in size_list:
        try:
            live.append(gpu.alloc_phys(size))
        except CudaError:
            break
    assert gpu.mem_used == sum(a.size for a in live)
    for alloc in live:
        gpu.free_phys(alloc)
    assert gpu.mem_used == 0


#: (True, size) mallocs ``size`` bytes; (False, n) frees the n-th live VA
lifecycle_steps = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=1 << 22)),
    min_size=1, max_size=16,
)


@given(lifecycle_steps)
@settings(max_examples=30, deadline=None)
def test_context_lifecycle_rebuilds_on_a_second_gpu(steps):
    """Random malloc/free on one context, then every live VA rebuilt at
    the same address on a second GPU: equal address maps and bytes, and
    destroying both contexts returns both GPUs to zero."""
    env = Environment()
    costs = CostModel(payload_cap_bytes=4096)
    gpus = [SimGPU(env, i, costs=costs) for i in range(2)]

    def drive(gen):
        return env.run(until=env.process(gen))

    src, dst = (drive(CudaContext.create(env, gpu, builtin_registry())) for gpu in gpus)
    live = []
    for step, (is_malloc, n) in enumerate(steps):
        if is_malloc:
            va = drive(src.malloc(n))
            src.address_space.translate(va)[0].allocation.write(
                0, np.full(min(n, costs.payload_cap_bytes), step + 1, dtype=np.uint8))
            live.append((va, n))
        elif live:
            va, size = live.pop(n % len(live))
            assert drive(src.free(va)) == size
    assert src.address_space.snapshot() == sorted(live)
    for va, size in src.address_space.snapshot():
        assert drive(dst.malloc(size, va=va)) == va
        drive(dst.copy_peer(va, src, va))
    assert dst.address_space.snapshot() == src.address_space.snapshot()
    for va, size in src.address_space.snapshot():
        assert np.array_equal(
            dst.address_space.translate(va)[0].allocation.read(0, size),
            src.address_space.translate(va)[0].allocation.read(0, size),
        )
    src.destroy()
    dst.destroy()
    assert gpus[0].mem_used == gpus[1].mem_used == 0


@given(st.integers(min_value=1, max_value=1 << 20), st.integers(min_value=16, max_value=4096))
@settings(max_examples=50, deadline=None)
def test_payload_window_write_read_consistent(size, cap):
    alloc = PhysicalAllocation(0, size, payload_cap=cap)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=min(size, cap), dtype=np.uint8)
    alloc.write(0, data)
    back = alloc.read(0, len(data))
    assert np.array_equal(back, data)


payload_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2**31, max_value=2**31),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=30),
        st.binary(max_size=64),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@given(payload_values)
@settings(max_examples=80, deadline=None)
def test_payload_size_positive_and_superadditive(value):
    size = payload_size(value)
    assert size >= 1
    # wrapping in a list adds container overhead, never shrinks
    assert payload_size([value]) > size


@given(st.integers(min_value=1, max_value=1 << 30))
@settings(max_examples=30, deadline=None)
def test_va_alignment_always_respected(size):
    space = AddressSpace()
    va = space.reserve(size)
    assert va % VA_ALIGNMENT == 0
    assert space.reservations[va] >= size
