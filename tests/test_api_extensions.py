"""Tests for the extended API surface: cudaMemGetInfo, event timing."""

import pytest

from repro.core import DgsfConfig
from repro.core.deployment import NativeGpuSession
from repro.simcuda import CudaError, SimGPU
from repro.simcuda.types import GB, MB
from repro.sim import Environment
from repro.testing import make_world


def drive(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


# --- native session -----------------------------------------------------------

def test_native_mem_get_info_tracks_allocations():
    env = Environment()
    gpu = SimGPU(env, 0)
    rt = NativeGpuSession(env, gpu)
    free0, total = drive(env, rt.cudaMemGetInfo())
    assert total == 16 * GB
    assert free0 == total - 303 * MB  # context footprint
    ptr = drive(env, rt.cudaMalloc(1 * GB))
    free1, _ = drive(env, rt.cudaMemGetInfo())
    assert free0 - free1 == 1 * GB
    drive(env, rt.cudaFree(ptr))


def test_native_event_elapsed_time():
    env = Environment()
    gpu = SimGPU(env, 0)
    rt = NativeGpuSession(env, gpu)
    fptr = drive(env, rt.cudaGetFunction("timed"))

    def run(env):
        e1 = yield from rt.cudaEventCreate()
        e2 = yield from rt.cudaEventCreate()
        yield from rt.cudaEventRecord(e1)
        yield from rt.cudaLaunchKernel(fptr, args=(0.75,))
        yield from rt.cudaEventRecord(e2)
        yield from rt.cudaEventSynchronize(e2)
        return (yield from rt.cudaEventElapsedTime(e1, e2))

    ms = drive(env, run(env))
    assert ms == pytest.approx(750.0, abs=20.0)


def test_native_elapsed_time_requires_completed_events():
    env = Environment()
    rt = NativeGpuSession(env, SimGPU(env, 0))

    def run(env):
        e1 = yield from rt.cudaEventCreate()
        e2 = yield from rt.cudaEventCreate()
        return (yield from rt.cudaEventElapsedTime(e1, e2))

    with pytest.raises(CudaError):
        drive(env, run(env))


# --- DGSF guest ------------------------------------------------------------------

def test_guest_mem_get_info_is_restricted_to_declared_budget():
    """The function must see its *declared* budget, not the GPU server's
    real memory state (information hiding, §V-B)."""
    world = make_world(DgsfConfig(num_gpus=2))
    guest, server, rpc = world.attach_guest(declared_bytes=2 * GB)
    free, total = world.drive(guest.cudaMemGetInfo())
    assert total == 2 * GB
    assert free == 2 * GB
    ptr = world.drive(guest.cudaMalloc(512 * MB))
    free2, total2 = world.drive(guest.cudaMemGetInfo())
    assert total2 == 2 * GB
    assert free2 == 2 * GB - 512 * MB
    world.drive(guest.cudaFree(ptr))
    world.detach_guest(guest, server, rpc)


def test_guest_mem_get_info_cached_locally_after_first_call():
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest(declared_bytes=1 * GB)
    world.drive(guest.cudaMemGetInfo())
    before = guest.calls_forwarded
    world.drive(guest.cudaMemGetInfo())
    assert guest.calls_forwarded == before  # localized on second call
    world.detach_guest(guest, server, rpc)


def test_guest_event_elapsed_time_over_network():
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest()
    fptr = world.drive(guest.cudaGetFunction("timed"))

    def run(env):
        e1 = yield from guest.cudaEventCreate()
        e2 = yield from guest.cudaEventCreate()
        yield from guest.cudaEventRecord(e1)
        yield from guest.cudaLaunchKernel(fptr, args=(0.5,))
        yield from guest.cudaEventRecord(e2)
        yield from guest.cudaEventSynchronize(e2)
        return (yield from guest.cudaEventElapsedTime(e1, e2))

    ms = world.drive(run(world.env))
    assert ms == pytest.approx(500.0, abs=30.0)
    world.detach_guest(guest, server, rpc)
