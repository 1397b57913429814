"""End-to-end API remoting tests: guest library ↔ API server over the
simulated network."""

import numpy as np
import pytest

from repro.core import DgsfConfig, OptimizationFlags
from repro.simcuda.errors import CudaError
from repro.simcuda.types import MB
from repro.simnet.rpc import RpcRequest
from repro.testing import make_world


@pytest.fixture(scope="module")
def shared_world():
    return make_world(DgsfConfig(num_gpus=2))


@pytest.fixture
def session(shared_world):
    guest, server, rpc = shared_world.attach_guest()
    yield shared_world, guest, server
    shared_world.detach_guest(guest, server, rpc)


def test_restricted_device_count_is_one(session):
    world, guest, server = session
    # the GPU server has 2 GPUs, but functions must see exactly 1 (§V-B)
    assert world.drive(guest.cudaGetDeviceCount()) == 1


def test_device_properties_describe_assigned_gpu(session):
    world, guest, server = session
    props = world.drive(guest.cudaGetDeviceProperties(0))
    assert "V100" in props["name"]
    with pytest.raises(CudaError):
        world.drive(guest.cudaGetDeviceProperties(1))


def test_malloc_memcpy_roundtrip_through_network(session):
    world, guest, server = session
    data = np.arange(4096, dtype=np.uint8)
    ptr = world.drive(guest.cudaMalloc(4096))
    world.drive(guest.memcpyH2D(ptr, 4096, payload=data))
    back = world.drive(guest.memcpyD2H(ptr, 4096))
    assert np.array_equal(back[:4096], data)
    world.drive(guest.cudaFree(ptr))


def test_server_free_of_an_unmapped_address_is_invalid_value(session):
    """The memory context's address map is the session's allocation table:
    freeing an address it does not map, or an interior pointer, is
    cudaErrorInvalidValue and leaves the allocation in place."""
    world, guest, server = session
    ptr = world.drive(guest.cudaMalloc(4096))
    for bad in (0xBAD, ptr + 16):
        with pytest.raises(CudaError, match="cudaErrorInvalidValue"):
            world.drive(server.handle(RpcRequest(0, "cudaFree", (bad,))))
    assert server.memory_context.address_space.snapshot() == [(ptr, 4096)]
    world.drive(guest.cudaFree(ptr))
    assert server.used_bytes == 0


def test_malloc_respects_declared_limit(shared_world):
    guest, server, rpc = shared_world.attach_guest(declared_bytes=100 * MB)
    try:
        with pytest.raises(CudaError, match="cudaErrorMemoryAllocation"):
            shared_world.drive(guest.cudaMalloc(200 * MB))
        # within the limit is fine
        ptr = shared_world.drive(guest.cudaMalloc(50 * MB))
        assert ptr > 0
    finally:
        shared_world.detach_guest(guest, server, rpc)


def test_kernel_launch_executes_payload_remotely(session):
    world, guest, server = session
    ptr = world.drive(guest.cudaMalloc(64))
    fptr = world.drive(guest.cudaGetFunction("fill"))

    def run(env):
        yield from guest.cudaLaunchKernel(fptr, args=(0.001, ptr, 64, 0x5A))
        yield from guest.cudaDeviceSynchronize()

    world.drive(run(world.env))
    back = world.drive(guest.memcpyD2H(ptr, 64))
    assert np.all(back[:64] == 0x5A)
    world.drive(guest.cudaFree(ptr))


def test_attach_preregisters_kernels(session):
    world, guest, server = session
    before = guest.calls_forwarded
    world.drive(guest.cudaGetFunction("timed"))
    # resolved from the attach-time token map: no new network call
    assert guest.calls_forwarded == before


def test_streams_and_events_remote(session):
    world, guest, server = session
    stream = world.drive(guest.cudaStreamCreate())
    fptr = world.drive(guest.cudaGetFunction("timed"))

    def run(env):
        yield from guest.cudaLaunchKernel(fptr, args=(0.3,), stream=stream)
        t0 = env.now
        yield from guest.cudaStreamSynchronize(stream)
        return env.now - t0

    waited = world.drive(run(world.env))
    assert waited == pytest.approx(0.3, abs=0.05)
    world.drive(guest.cudaStreamDestroy(stream))


def test_memset_remote(session):
    world, guest, server = session
    ptr = world.drive(guest.cudaMalloc(128))
    world.drive(guest.cudaMemset(ptr, 0xEE, 128))
    back = world.drive(guest.memcpyD2H(ptr, 128))
    assert np.all(back[:128] == 0xEE)
    world.drive(guest.cudaFree(ptr))


def test_pointer_attributes_localized(session):
    world, guest, server = session
    ptr = world.drive(guest.cudaMalloc(1 * MB))
    before = guest.calls_forwarded
    attrs = world.drive(guest.cudaPointerGetAttributes(ptr))
    assert attrs.is_device
    assert guest.calls_forwarded == before  # answered locally (§V-C)
    world.drive(guest.cudaFree(ptr))


def test_host_alloc_fully_emulated(session):
    world, guest, server = session
    before = guest.calls_forwarded
    hptr = world.drive(guest.cudaMallocHost(4096))
    attrs = world.drive(guest.cudaPointerGetAttributes(hptr))
    assert not attrs.is_device
    world.drive(guest.cudaFreeHost(hptr))
    assert guest.calls_forwarded == before


def test_descriptor_pooling_never_forwards(session):
    world, guest, server = session
    before = guest.calls_forwarded
    descs = [world.drive(guest.cudnnCreateDescriptor("tensor")) for _ in range(10)]
    for d in descs:
        world.drive(guest.cudnnSetDescriptor(d, n=1, c=3))
        world.drive(guest.cudnnDestroyDescriptor(d))
    assert guest.calls_forwarded == before
    # destroyed descriptors are recycled by the guest-side pool
    again = world.drive(guest.cudnnCreateDescriptor("tensor"))
    assert again in descs


def test_cudnn_handle_pooled_is_fast(session):
    world, guest, server = session
    t0 = world.env.now
    handle = world.drive(guest.cudnnCreate())
    # pooled: no 1.2 s creation on the critical path
    assert world.env.now - t0 < 0.1
    assert handle > 0


def test_cublas_handle_pooled_is_fast(session):
    world, guest, server = session
    t0 = world.env.now
    world.drive(guest.cublasCreate())
    assert world.env.now - t0 < 0.1


def test_cudnn_op_runs_on_gpu(session):
    world, guest, server = session
    handle = world.drive(guest.cudnnCreate())
    t0 = world.env.now
    world.drive(guest.cudnnOp(handle, "conv_fwd", 0.4, sync=True))
    assert world.env.now - t0 == pytest.approx(0.4, abs=0.05)


def test_batching_reduces_messages(session):
    world, guest, server = session
    fptr = world.drive(guest.cudaGetFunction("timed"))
    msgs_before = guest.messages_sent

    def run(env):
        for _ in range(20):
            yield from guest.cudaLaunchKernel(fptr, args=(0.0001,))
        yield from guest.cudaDeviceSynchronize()

    world.drive(run(world.env))
    # 20 launches + 1 sync collapse into 1 batch message + 1 sync round trip
    assert guest.messages_sent - msgs_before <= 3
    assert guest.calls_batched >= 20


def test_batched_ops_execute_in_order(session):
    world, guest, server = session
    ptr = world.drive(guest.cudaMalloc(16))
    inc = world.drive(guest.cudaGetFunction("increment"))

    def run(env):
        for _ in range(7):
            yield from guest.cudaLaunchKernel(inc, args=(0.001, ptr, 16))
        yield from guest.cudaDeviceSynchronize()

    world.drive(run(world.env))
    back = world.drive(guest.memcpyD2H(ptr, 16))
    assert np.all(back[:16] == 7)
    world.drive(guest.cudaFree(ptr))


def test_session_cleanup_frees_leaked_allocations(shared_world):
    device = shared_world.gpu_server.devices[0]
    base = device.mem_used
    guest, server, rpc = shared_world.attach_guest(declared_bytes=1 << 30)
    shared_world.drive(guest.cudaMalloc(256 * MB))  # leaked on purpose
    assert device.mem_used > base
    shared_world.detach_guest(guest, server, rpc)
    assert device.mem_used == base


def test_server_busy_rejects_second_session(shared_world):
    from repro.errors import SimulationError

    guest, server, rpc = shared_world.attach_guest()
    try:
        with pytest.raises(SimulationError):
            server.begin_session(1 * MB)
    finally:
        shared_world.detach_guest(guest, server, rpc)


def test_unoptimized_guest_forwards_descriptors():
    world = make_world(DgsfConfig(num_gpus=1, optimizations=OptimizationFlags.none()))
    guest, server, rpc = world.attach_guest(flags=OptimizationFlags.none())
    before = guest.calls_forwarded
    d = world.drive(guest.cudnnCreateDescriptor("tensor"))
    world.drive(guest.cudnnSetDescriptor(d, n=1))
    world.drive(guest.cudnnDestroyDescriptor(d))
    assert guest.calls_forwarded == before + 3
    world.detach_guest(guest, server, rpc)


def test_unoptimized_cudnn_create_pays_full_cost():
    world = make_world(DgsfConfig(num_gpus=1, optimizations=OptimizationFlags.none()))
    guest, server, rpc = world.attach_guest(flags=OptimizationFlags.none())
    t0 = world.env.now
    world.drive(guest.cudnnCreate())
    assert world.env.now - t0 >= 1.2  # inline creation, on the critical path
    world.detach_guest(guest, server, rpc)


def test_forwarded_call_reduction_with_optimizations():
    """The headline §V-C claim: optimizations cut forwarded APIs sharply."""

    def run_calls(world, guest):
        def body(env):
            ptr = yield from guest.cudaMalloc(1 * MB)
            fptr = yield from guest.cudaGetFunction("timed")
            for _ in range(30):
                yield from guest.pushCallConfiguration()
                yield from guest.cudaLaunchKernel(fptr, args=(0.0001,))
            for _ in range(30):
                d = yield from guest.cudnnCreateDescriptor("tensor")
                yield from guest.cudnnSetDescriptor(d, n=1)
                yield from guest.cudnnDestroyDescriptor(d)
            yield from guest.cudaDeviceSynchronize()
            yield from guest.cudaFree(ptr)

        world.drive(body(world.env))
        return guest.calls_forwarded

    w1 = make_world(DgsfConfig(num_gpus=1, optimizations=OptimizationFlags.none()))
    g1, s1, r1 = w1.attach_guest(flags=OptimizationFlags.none())
    unopt = run_calls(w1, g1)

    w2 = make_world(DgsfConfig(num_gpus=1))
    g2, s2, r2 = w2.attach_guest()
    opt = run_calls(w2, g2)

    # with optimizations: descriptors and push-configs localized entirely,
    # launches batched (still counted as forwarded calls, but few messages)
    assert opt < unopt * 0.55
    assert g2.messages_sent < g1.messages_sent * 0.3
