"""Full coverage of the native GPU session facade (interface parity with
the guest library — the same workload code must run on both)."""

import numpy as np
import pytest

from repro.core.deployment import NativeGpuSession
from repro.simcuda import SimGPU, CudaError
from repro.simcuda.types import GB, MB
from repro.sim import Environment


@pytest.fixture
def native():
    env = Environment()
    gpu = SimGPU(env, 0)
    session = NativeGpuSession(env, gpu)
    return env, gpu, session


def drive(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


def test_facade_method_parity_with_guest():
    """Every public GPU-API method of the guest must exist on the native
    facade with the same name (the workload contract)."""
    from repro.core.guest import GuestLibrary

    guest_api = {
        name for name in dir(GuestLibrary)
        if name.startswith(("cuda", "cudnn", "cublas", "memcpy", "pushCall"))
    }
    native_api = {
        name for name in dir(NativeGpuSession)
        if name.startswith(("cuda", "cudnn", "cublas", "memcpy", "pushCall"))
    }
    missing = guest_api - native_api
    assert not missing, f"native facade missing: {sorted(missing)}"


def test_device_management(native):
    env, gpu, s = native
    assert drive(env, s.cudaGetDeviceCount()) == 1
    props = drive(env, s.cudaGetDeviceProperties(0))
    assert "V100" in props["name"]
    drive(env, s.cudaSetDevice(0))


def test_memory_roundtrip(native):
    env, gpu, s = native
    data = np.arange(512, dtype=np.uint8)
    ptr = drive(env, s.cudaMalloc(512))
    drive(env, s.memcpyH2D(ptr, 512, payload=data))
    back = drive(env, s.memcpyD2H(ptr, 512))
    assert np.array_equal(back[:512], data)
    drive(env, s.cudaFree(ptr))


def test_d2d_and_memset(native):
    env, gpu, s = native
    a = drive(env, s.cudaMalloc(128))
    b = drive(env, s.cudaMalloc(128))
    drive(env, s.cudaMemset(a, 0x3C, 128))
    drive(env, s.memcpyD2D(b, a, 128))
    back = drive(env, s.memcpyD2H(b, 128))
    assert np.all(back[:128] == 0x3C)


def test_host_memory_and_attrs(native):
    env, gpu, s = native
    hptr = drive(env, s.cudaMallocHost(4096))
    attrs = drive(env, s.cudaPointerGetAttributes(hptr))
    assert not attrs.is_device
    drive(env, s.cudaFreeHost(hptr))
    dptr = drive(env, s.cudaMalloc(4096))
    attrs = drive(env, s.cudaPointerGetAttributes(dptr))
    assert attrs.is_device


def test_kernels_streams_events(native):
    env, gpu, s = native
    fptr = drive(env, s.cudaGetFunction("timed"))
    stream = drive(env, s.cudaStreamCreate())
    event = drive(env, s.cudaEventCreate())

    def run(env):
        yield from s.pushCallConfiguration(grid=(2, 1, 1), block=(32, 1, 1))
        yield from s.cudaLaunchKernel(fptr, grid=(2, 1, 1), block=(32, 1, 1),
                                      args=(0.4,), stream=stream)
        yield from s.cudaEventRecord(event, stream)
        t0 = env.now
        yield from s.cudaEventSynchronize(event)
        return env.now - t0

    waited = drive(env, run(env))
    assert waited == pytest.approx(0.4, abs=0.02)
    drive(env, s.cudaStreamDestroy(stream))


def test_cudnn_and_cublas(native):
    env, gpu, s = native
    h = drive(env, s.cudnnCreate())
    d = drive(env, s.cudnnCreateDescriptor("tensor"))
    drive(env, s.cudnnSetDescriptor(d, n=4))
    drive(env, s.cudnnDestroyDescriptor(d))
    t0 = env.now
    drive(env, s.cudnnOp(h, "conv_fwd", 0.3, sync=True))
    assert env.now - t0 == pytest.approx(0.3, abs=0.02)
    hb = drive(env, s.cublasCreate())
    drive(env, s.cublasOp(hb, "gemm", 0.1, sync=True))


def test_device_synchronize_and_counters(native):
    env, gpu, s = native
    fptr = drive(env, s.cudaGetFunction("timed"))

    def run(env):
        yield from s.cudaLaunchKernel(fptr, args=(0.2,))
        yield from s.cudaDeviceSynchronize()

    drive(env, run(env))
    assert s.calls_intercepted > 0
    assert s.calls_forwarded == 0  # nothing crosses a network natively


def _stream_program(env, gpu):
    """Queue a 1 s kernel and a fill on a created stream, read the bytes
    back on that stream, then overwrite them there without waiting."""
    ptr = yield from gpu.cudaMalloc(64)
    s = yield from gpu.cudaStreamCreate()
    timed = yield from gpu.cudaGetFunction("timed")
    fill = yield from gpu.cudaGetFunction("fill")
    yield from gpu.cudaLaunchKernel(timed, args=(1.0,), stream=s)
    yield from gpu.cudaLaunchKernel(fill, args=(0.0, ptr, 64, 0xAB), stream=s)
    filled = yield from gpu.memcpyD2H(ptr, 64, stream=s)
    yield from gpu.cudaLaunchKernel(timed, args=(1.0,), stream=s)
    t0 = env.now
    yield from gpu.cudaMemset(ptr, 0x5A, 64, sync=False, stream=s)
    memset_waited = env.now - t0
    cleared = yield from gpu.memcpyD2H(ptr, 64, stream=s)
    return bytes(filled[:64]), memset_waited < 0.5, bytes(cleared[:64])


def test_d2h_and_memset_honor_their_stream_like_dgsf(native):
    """The same program reads the same bytes natively and through DGSF:
    the D2H waits for the work queued on its stream, and an async memset
    is ordered on its stream without blocking the caller."""
    from repro.core import DgsfConfig
    from repro.testing import make_world

    env, gpu, s = native
    native_result = drive(env, _stream_program(env, s))
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest()
    dgsf_result = world.drive(_stream_program(world.env, guest))
    world.detach_guest(guest, server, rpc)
    assert dgsf_result == (b"\xab" * 64, True, b"\x5a" * 64)
    assert native_result == dgsf_result


def _read_past_the_window(gpu):
    """Read 64 B from the middle of a 4 MB allocation, past its 1 MB
    materialized payload window."""
    ptr = yield from gpu.cudaMalloc(4 * MB)
    data = yield from gpu.memcpyD2H(ptr + 2 * MB, 64)
    yield from gpu.cudaFree(ptr)
    return bytes(data)


def test_d2h_past_the_payload_window_reads_what_dgsf_reads(native):
    """Native and DGSF return the same bytes for a read outside the
    materialized window: none, as the copy itself reports."""
    from repro.core import DgsfConfig
    from repro.testing import make_world

    env, gpu, s = native
    native_bytes = drive(env, _read_past_the_window(s))
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest()
    dgsf_bytes = world.drive(_read_past_the_window(guest))
    world.detach_guest(guest, server, rpc)
    assert native_bytes == dgsf_bytes == b""


def _interior_pointer_attributes(gpu):
    """Attributes of a pointer 16 B into a 4096 B allocation."""
    ptr = yield from gpu.cudaMalloc(4096)
    attrs = yield from gpu.cudaPointerGetAttributes(ptr + 16)
    yield from gpu.cudaFree(ptr)
    return (attrs.is_device, attrs.device_id, attrs.size)


@pytest.mark.parametrize("avoid_unnecessary", [True, False])
def test_interior_pointer_attributes_resolve_like_native(native, avoid_unnecessary):
    """An interior device pointer resolves to its containing allocation on
    both sessions, whether the guest answers locally or after its stand-in
    round trip."""
    from repro.core import DgsfConfig, OptimizationFlags
    from repro.testing import make_world

    env, gpu, s = native
    native_attrs = drive(env, _interior_pointer_attributes(s))
    world = make_world(DgsfConfig(num_gpus=1))
    flags = OptimizationFlags(avoid_unnecessary=avoid_unnecessary)
    guest, server, rpc = world.attach_guest(flags=flags)
    dgsf_attrs = world.drive(_interior_pointer_attributes(guest))
    world.detach_guest(guest, server, rpc)
    assert native_attrs == dgsf_attrs == (True, 0, 4096)


class _PhaseSink:
    """The one FunctionContext method a GPU provider calls."""

    def add_phase(self, name, seconds):
        pass


def test_pointer_attributes_report_the_device_the_session_sees():
    """On a 2-GPU host the first lease runs on GPU 1, which the session
    still sees as device 0: the attributes name a device cudaSetDevice
    accepts."""
    from repro.core.deployment import NativeGpuProvider

    env = Environment()
    provider = NativeGpuProvider(env, num_gpus=2)
    s = drive(env, provider.acquire(_PhaseSink(), None)).gpu
    assert s.device.device_id == 1
    ptr = drive(env, s.cudaMalloc(4096))
    attrs = drive(env, s.cudaPointerGetAttributes(ptr))
    assert attrs.is_device and attrs.device_id == 0
    drive(env, s.cudaSetDevice(attrs.device_id))
