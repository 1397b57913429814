"""Unit tests for the driver-level memory lifecycle on :class:`CudaContext`
(``cuCtxCreate``, ``cuMemCreate``/``cuMemAddressReserve``/``cuMemMap`` and
their inverses, ``cuMemcpyPeer``)."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.simcuda import CudaContext, SimGPU, builtin_registry
from repro.simcuda.types import MB


@pytest.fixture
def setup():
    env = Environment()
    gpus = [SimGPU(env, i) for i in range(2)]
    return env, gpus


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def create(env, gpu):
    return drive(env, CudaContext.create(env, gpu, builtin_registry()))


def test_ctx_create_costs_init_time_and_memory(setup):
    env, gpus = setup
    ctx = create(env, gpus[0])
    assert env.now == pytest.approx(3.2)
    assert gpus[0].mem_used == 303 * MB
    drive(env, ctx.malloc(4 * MB))
    ctx.destroy()
    assert gpus[0].mem_used == 0
    assert ctx.address_space.reservations == {}


def test_mem_create_map_translate(setup):
    env, gpus = setup
    ctx = create(env, gpus[0])
    t0 = env.now
    va = drive(env, ctx.malloc(4 * MB))
    assert env.now - t0 == pytest.approx(gpus[0].costs.malloc_time(4 * MB))
    mapping, offset = ctx.address_space.translate(va + 5)
    assert (mapping.va, mapping.size, offset) == (va, 4 * MB, 5)
    assert mapping.allocation.device_id == 0


def test_dtod_cross_gpu_copy_moves_payload(setup):
    env, gpus = setup
    ctx0, ctx1 = create(env, gpus[0]), create(env, gpus[1])
    src = drive(env, ctx0.malloc(1 * MB))
    dst = drive(env, ctx1.malloc(1 * MB))
    ctx0.address_space.translate(src)[0].allocation.write(
        0, np.arange(100, dtype=np.uint8))
    drive(env, ctx1.copy_peer(dst, ctx0, src))
    moved = ctx1.address_space.translate(dst)[0].allocation
    assert np.array_equal(moved.read(0, 100), np.arange(100, dtype=np.uint8))


def test_mem_release_frees_device_memory(setup):
    env, gpus = setup
    ctx = create(env, gpus[0])
    va = drive(env, ctx.malloc(8 * MB))
    assert gpus[0].mem_used == 303 * MB + 8 * MB
    assert drive(env, ctx.free(va)) == 8 * MB
    assert gpus[0].mem_used == 303 * MB
    assert ctx.address_space.snapshot() == []


def test_fixed_va_rebuild_across_contexts(setup):
    """Migration invariant: the destination context can reproduce the
    source context's address map exactly via fixed-address reservation."""
    env, gpus = setup
    ctx0 = create(env, gpus[0])
    for size in (1 * MB, 2 * MB, 4 * MB):
        drive(env, ctx0.malloc(size))

    ctx1 = create(env, gpus[1])
    for va, size in ctx0.address_space.snapshot():
        assert drive(env, ctx1.malloc(size, va=va)) == va
    assert ctx1.address_space.snapshot() == ctx0.address_space.snapshot()
    assert gpus[1].mem_used == gpus[0].mem_used
