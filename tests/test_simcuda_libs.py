"""Unit tests for the cuDNN/cuBLAS library model."""

import pytest

from repro.sim import Environment
from repro.simcuda import (
    CudaContext,
    CudaError,
    SimGPU,
    VendorLibrary,
    builtin_registry,
)
from repro.simcuda.libs import DESCRIPTOR_KINDS
from repro.simcuda.types import MB


@pytest.fixture
def setup():
    env = Environment()
    gpu = SimGPU(env, 0)
    p = env.process(CudaContext.create(env, gpu, builtin_registry()))
    ctx = env.run(until=p)
    return env, gpu, ctx


def drive(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def test_cudnn_handle_costs_time_and_memory(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    t0 = env.now
    handle = drive(env, lib.create("cudnn"))
    assert env.now - t0 == pytest.approx(1.2)
    assert (handle.kind, handle.nbytes) == ("cudnn", 386 * MB)
    assert gpu.mem_used == 303 * MB + 386 * MB
    drive(env, lib.destroy(handle.handle))
    assert gpu.mem_used == 303 * MB


def test_cublas_handle_costs_time_and_memory(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    t0 = env.now
    handle = drive(env, lib.create("cublas"))
    assert env.now - t0 == pytest.approx(0.2)
    assert (handle.kind, handle.nbytes) == ("cublas", 70 * MB)
    assert gpu.mem_used == 303 * MB + 70 * MB
    drive(env, lib.destroy(handle.handle))
    assert gpu.mem_used == 303 * MB


def test_idle_api_server_footprint_matches_paper(setup):
    """Context + cuDNN + cuBLAS handles ≈ 755 MB (paper §V-C: 759 MB raw,
    reported as 755 MB)."""
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    drive(env, lib.create("cudnn"))
    drive(env, lib.create("cublas"))
    total_mb = gpu.mem_used / MB
    assert 750 <= total_mb <= 765


def test_cudnn_descriptor_lifecycle(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    for kind in DESCRIPTOR_KINDS:
        desc = drive(env, lib.create_descriptor(kind))
        drive(env, lib.set_descriptor(desc, n=1, c=3, h=224, w=224))
        drive(env, lib.destroy_descriptor(desc))
        with pytest.raises(CudaError):
            drive(env, lib.destroy_descriptor(desc))


def test_cudnn_descriptor_bad_kind(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    with pytest.raises(CudaError):
        drive(env, lib.create_descriptor("not-a-kind"))


def test_cudnn_op_requires_valid_handle(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    with pytest.raises(CudaError):
        drive(env, lib.op(0xBAD, "conv_fwd", 0.001))


def test_cudnn_op_executes_on_gpu(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    handle = drive(env, lib.create("cudnn"))

    def run(env):
        done = yield from lib.op(handle.handle, "conv_fwd", 0.5)
        yield done

    t0 = env.now
    drive(env, run(env))
    assert env.now - t0 == pytest.approx(0.5, abs=0.01)


def test_cublas_gemm_executes_on_gpu(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    handle = drive(env, lib.create("cublas"))

    def run(env):
        done = yield from lib.op(handle.handle, "sgemm", 0.25)
        yield done

    t0 = env.now
    drive(env, run(env))
    assert env.now - t0 == pytest.approx(0.25, abs=0.01)


def test_negative_work_rejected(setup):
    env, gpu, ctx = setup
    lib = VendorLibrary(env, ctx)
    for kind in ("cudnn", "cublas"):
        handle = drive(env, lib.create(kind))
        with pytest.raises(CudaError):
            drive(env, lib.op(handle.handle, "x", -1.0))


def test_adopted_handles_are_usable(setup):
    """API servers pool handles created elsewhere; the library must accept
    an adopted handle as its own."""
    env, gpu, ctx = setup
    lib1 = VendorLibrary(env, ctx)
    handle = drive(env, lib1.create("cudnn"))
    lib2 = VendorLibrary(env, ctx)
    lib2.adopt(handle)

    def run(env):
        done = yield from lib2.op(handle.handle, "conv_fwd", 0.01)
        yield done

    drive(env, run(env))  # no error
