"""Failure-injection tests: the system must stay consistent when
functions misbehave or exhaust resources."""

import numpy as np
import pytest

from repro.core import DgsfConfig
from repro.core.deployment import DgsfDeployment
from repro.errors import SimulationError
from repro.faas import FunctionSpec
from repro.simcuda.errors import CudaError
from repro.simcuda.types import GB, MB
from repro.testing import make_world


def test_oom_function_fails_but_server_is_reusable():
    """A function that blows its declared limit dies with a CudaError;
    the API server must clean up fully and serve the next function."""
    dep = DgsfDeployment(DgsfConfig(num_gpus=1))
    dep.setup()
    base = dep.gpu_server.devices[0].mem_used

    def greedy(fc):
        gpu = yield from fc.acquire_gpu()
        yield from gpu.cudaMalloc(500 * MB)      # fine
        yield from gpu.cudaMalloc(700 * MB)      # exceeds 1 GB declared

    def modest(fc):
        gpu = yield from fc.acquire_gpu()
        ptr = yield from gpu.cudaMalloc(100 * MB)
        yield from gpu.cudaFree(ptr)
        return "ok"

    dep.platform.register(FunctionSpec("greedy", greedy, gpu_mem_bytes=1 * GB))
    dep.platform.register(FunctionSpec("modest", modest, gpu_mem_bytes=1 * GB))

    inv, proc = dep.platform.invoke("greedy")
    with pytest.raises(CudaError, match="cudaErrorMemoryAllocation"):
        dep.env.run(until=proc)
    assert inv.status == "failed"
    # leaked 500 MB must have been reclaimed at session end
    assert dep.gpu_server.devices[0].mem_used == base
    assert dep.gpu_server.monitor.committed[0] == 0

    inv2, proc2 = dep.platform.invoke("modest")
    dep.env.run(until=proc2)
    assert inv2.status == "completed"
    assert inv2.result == "ok"


def test_handler_crash_releases_gpu_lease():
    """A Python exception mid-GPU-phase must release the API server."""
    dep = DgsfDeployment(DgsfConfig(num_gpus=1))
    dep.setup()

    def crasher(fc):
        gpu = yield from fc.acquire_gpu()
        yield from gpu.cudaMalloc(10 * MB)
        raise RuntimeError("application bug")

    def follower(fc):
        gpu = yield from fc.acquire_gpu()
        yield from gpu.cudaGetDeviceCount()
        return "ran"

    dep.platform.register(FunctionSpec("crasher", crasher, gpu_mem_bytes=1 * GB))
    dep.platform.register(FunctionSpec("follower", follower, gpu_mem_bytes=1 * GB))
    inv, proc = dep.platform.invoke("crasher")
    with pytest.raises(RuntimeError):
        dep.env.run(until=proc)
    assert not dep.gpu_server.api_servers[0].busy
    inv2, proc2 = dep.platform.invoke("follower")
    dep.env.run(until=proc2)
    assert inv2.result == "ran"


def test_guest_double_free_raises_locally():
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest()
    ptr = world.drive(guest.cudaMalloc(1 * MB))
    world.drive(guest.cudaFree(ptr))
    with pytest.raises(CudaError):
        world.drive(guest.cudaFree(ptr))
    world.detach_guest(guest, server, rpc)


def test_guest_free_of_foreign_pointer_raises():
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest()
    with pytest.raises(CudaError):
        world.drive(guest.cudaFree(0xDEAD_BEEF))
    world.detach_guest(guest, server, rpc)


def test_launch_with_invalid_token_fails_at_server():
    world = make_world(DgsfConfig(num_gpus=1))
    # disable batching so the launch error surfaces synchronously
    from repro.core import OptimizationFlags
    flags = OptimizationFlags.all().with_(batching=False)
    guest, server, rpc = world.attach_guest(flags=flags)
    with pytest.raises(CudaError, match="cudaErrorInvalidResourceHandle"):
        world.drive(guest.cudaLaunchKernel(0x999, args=(0.1,)))
    world.detach_guest(guest, server, rpc)


def test_pool_exhaustion_falls_back_to_inline_creation():
    """When the shared handle pool runs dry, cudnnCreate still works —
    it just pays the full 1.2 s inline."""
    world = make_world(DgsfConfig(num_gpus=1, pool_handles_per_gpu=1))
    guest, server, rpc = world.attach_guest(declared_bytes=4 * GB)
    t0 = world.env.now
    h1 = world.drive(guest.cudnnCreate())   # server's own handle: fast
    h2 = world.drive(guest.cudnnCreate())   # shared pool: fast
    assert world.env.now - t0 < 0.3
    t0 = world.env.now
    h3 = world.drive(guest.cudnnCreate())   # pool dry: inline creation
    assert world.env.now - t0 >= 1.2
    assert len({h1, h2, h3}) == 3
    world.detach_guest(guest, server, rpc)


def test_migration_without_free_slot_is_refused():
    world = make_world(DgsfConfig(num_gpus=2))
    from repro.core.migration import migrate_api_server

    g1, s1, r1 = world.attach_guest(api_server=world.gpu_server.api_servers[0])
    # occupy GPU 1's migration slot
    world.gpu_server.claim_migration_slot(world.gpu_server.api_servers[1], 1)
    with pytest.raises(SimulationError, match="no free migration slot"):
        world.drive(migrate_api_server(s1, 1))
    world.detach_guest(g1, s1, r1)


def test_deterministic_across_runs():
    """Same seed → bit-identical mixed-scenario statistics."""
    from repro.experiments.runner import make_plan, run_scenario

    def run():
        plan = make_plan("exponential", seed=11, copies=1,
                         names=["kmeans", "face_identification"])
        cfg = DgsfConfig(num_gpus=2, seed=11)
        return run_scenario(cfg, plan).require_completed().stats

    a, b = run(), run()
    assert a.provider_e2e_s == b.provider_e2e_s
    assert a.function_e2e_sum_s == b.function_e2e_sum_s


def test_different_seeds_differ():
    from repro.experiments.runner import make_plan

    p1 = make_plan("exponential", seed=1, copies=2)
    p2 = make_plan("exponential", seed=2, copies=2)
    assert list(p1.times) != list(p2.times) or p1.names != p2.names
