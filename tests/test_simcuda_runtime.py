"""Unit tests for native execution: the GPU session facade on a local GPU."""

import numpy as np
import pytest

from repro.core.deployment import NativeGpuSession
from repro.sim import Environment
from repro.simcuda import CudaError, SimGPU
from repro.simcuda.costs import CostModel
from repro.simcuda.types import MB


@pytest.fixture
def setup():
    env = Environment()
    gpu = SimGPU(env, 0)
    rt = NativeGpuSession(env, gpu)
    return env, gpu, rt


def drive(env, gen):
    """Run one session-call generator to completion, return its value."""
    p = env.process(gen)
    return env.run(until=p)


def test_first_call_pays_cuda_init(setup):
    env, gpu, rt = setup
    count = drive(env, rt.cudaGetDeviceCount())
    assert count == 1
    assert env.now >= 3.2  # paper: CUDA init 3.2 s on the critical path


def test_second_call_does_not_pay_init_again(setup):
    env, gpu, rt = setup
    drive(env, rt.cudaGetDeviceCount())
    t1 = env.now
    drive(env, rt.cudaGetDeviceCount())
    assert env.now - t1 < 0.001


def test_init_reserves_context_memory(setup):
    env, gpu, rt = setup
    drive(env, rt.cudaGetDeviceCount())
    assert gpu.mem_used == 303 * MB


def test_malloc_free_roundtrip(setup):
    env, gpu, rt = setup
    ptr = drive(env, rt.cudaMalloc(64 * MB))
    assert gpu.mem_used == 303 * MB + 64 * MB
    drive(env, rt.cudaFree(ptr))
    assert gpu.mem_used == 303 * MB


def test_free_unknown_pointer_fails(setup):
    env, gpu, rt = setup
    drive(env, rt.cudaGetDeviceCount())
    with pytest.raises(CudaError):
        drive(env, rt.cudaFree(0xBAD))


def test_memcpy_h2d_d2h_roundtrip(setup):
    env, gpu, rt = setup
    data = np.arange(1024, dtype=np.uint8)
    ptr = drive(env, rt.cudaMalloc(1024))
    drive(env, rt.memcpyH2D(ptr, 1024, payload=data))
    out = drive(env, rt.memcpyD2H(ptr, 1024))
    assert np.array_equal(out, data)


def test_memcpy_d2d_moves_data(setup):
    env, gpu, rt = setup
    data = np.full(256, 9, dtype=np.uint8)
    src = drive(env, rt.cudaMalloc(256))
    dst = drive(env, rt.cudaMalloc(256))
    drive(env, rt.memcpyH2D(src, 256, payload=data))
    drive(env, rt.memcpyD2D(dst, src, 256))
    out = drive(env, rt.memcpyD2H(dst, 256))
    assert np.array_equal(out, data)


def test_memcpy_time_scales_with_size():
    env = Environment()
    costs = CostModel(h2d_bandwidth_Bps=1e9, memcpy_overhead_s=0.0)
    gpu = SimGPU(env, 0, costs=costs)
    rt = NativeGpuSession(env, gpu, costs=costs)
    ptr = drive(env, rt.cudaMalloc(2_000_000_000))
    t0 = env.now
    drive(env, rt.memcpyH2D(ptr, 1_000_000_000))
    assert env.now - t0 == pytest.approx(1.0, rel=0.01)


def test_memset_writes_value(setup):
    env, gpu, rt = setup
    ptr = drive(env, rt.cudaMalloc(128))
    drive(env, rt.cudaMemset(ptr, 7, 128))
    out = drive(env, rt.memcpyD2H(ptr, 128))
    assert np.all(out == 7)


def test_kernel_launch_with_payload(setup):
    env, gpu, rt = setup
    ptr = drive(env, rt.cudaMalloc(64))
    fptr = drive(env, rt.cudaGetFunction("fill"))

    def run(env):
        yield from rt.cudaLaunchKernel(
            fptr, grid=(1, 1, 1), block=(64, 1, 1), args=(0.001, ptr, 64, 0xAB)
        )
        yield from rt.cudaDeviceSynchronize()

    drive(env, run(env))
    out = drive(env, rt.memcpyD2H(ptr, 64))
    assert np.all(out == 0xAB)


def test_kernel_launches_on_stream_are_ordered(setup):
    env, gpu, rt = setup
    ptr = drive(env, rt.cudaMalloc(16))
    inc = drive(env, rt.cudaGetFunction("increment"))

    def run(env):
        for _ in range(5):
            yield from rt.cudaLaunchKernel(inc, args=(0.01, ptr, 16))
        yield from rt.cudaDeviceSynchronize()

    drive(env, run(env))
    out = drive(env, rt.memcpyD2H(ptr, 16))
    assert np.all(out == 5)


def test_unknown_kernel_rejected(setup):
    env, gpu, rt = setup
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        drive(env, rt.cudaGetFunction("no_such_kernel"))


def test_streams_create_sync_destroy(setup):
    env, gpu, rt = setup
    stream = drive(env, rt.cudaStreamCreate())
    fptr = drive(env, rt.cudaGetFunction("timed"))

    def run(env):
        yield from rt.cudaLaunchKernel(fptr, args=(0.5,), stream=stream)
        t0 = env.now
        yield from rt.cudaStreamSynchronize(stream)
        return env.now - t0

    waited = drive(env, run(env))
    assert waited == pytest.approx(0.5, abs=0.01)
    drive(env, rt.cudaStreamDestroy(stream))
    with pytest.raises(CudaError):
        drive(env, rt.cudaStreamSynchronize(stream))


def test_events_record_and_synchronize(setup):
    env, gpu, rt = setup
    fptr = drive(env, rt.cudaGetFunction("timed"))
    event = drive(env, rt.cudaEventCreate())

    def run(env):
        yield from rt.cudaLaunchKernel(fptr, args=(1.0,))
        yield from rt.cudaEventRecord(event)
        t0 = env.now
        yield from rt.cudaEventSynchronize(event)
        return env.now - t0

    waited = drive(env, run(env))
    assert waited == pytest.approx(1.0, abs=0.01)


def test_malloc_host_and_pointer_attributes(setup):
    env, gpu, rt = setup
    hptr = drive(env, rt.cudaMallocHost(4096))
    dptr = drive(env, rt.cudaMalloc(4096))
    ha = drive(env, rt.cudaPointerGetAttributes(hptr))
    da = drive(env, rt.cudaPointerGetAttributes(dptr))
    assert not ha.is_device
    assert da.is_device and da.device_id == 0
    drive(env, rt.cudaFreeHost(hptr))
    with pytest.raises(CudaError):
        drive(env, rt.cudaFreeHost(hptr))


def test_set_device_validates(setup):
    env, gpu, rt = setup
    drive(env, rt.cudaSetDevice(0))
    with pytest.raises(CudaError):
        drive(env, rt.cudaSetDevice(3))


def test_device_synchronize_waits_all_streams(setup):
    env, gpu, rt = setup
    fptr = drive(env, rt.cudaGetFunction("timed"))
    s1 = drive(env, rt.cudaStreamCreate())

    def run(env):
        yield from rt.cudaLaunchKernel(fptr, args=(1.0,), stream=0)
        yield from rt.cudaLaunchKernel(fptr, args=(1.0,), stream=s1)
        t0 = env.now
        yield from rt.cudaDeviceSynchronize()
        return env.now - t0

    waited = drive(env, run(env))
    # both streams run concurrently on the shared engine: 2 s total
    assert waited == pytest.approx(2.0, abs=0.05)
