"""Full-stack deployment tests: platform + provider + GPU server."""

import numpy as np
import pytest

from repro.core import DgsfConfig, FaultPlan
from repro.core.deployment import DgsfDeployment, NativeDeployment
from repro.core.stats import summarize_invocations
from repro.experiments.runner import make_plan, run_scenario
from repro.faas import FunctionSpec
from repro.simcuda.types import GB, MB


def gpu_handler(fc):
    """A minimal GPU function: malloc, H2D, kernel, D2H, free."""
    t0 = fc.env.now
    gpu = yield from fc.acquire_gpu()
    yield from gpu.cudaGetDeviceCount()
    fc.add_phase("cuda_init_app", fc.env.now - t0 - fc.invocation.phases.get("gpu_queue", 0.0))
    ptr = yield from gpu.cudaMalloc(1 * MB)
    yield from gpu.memcpyH2D(ptr, 1 * MB, payload=np.arange(256, dtype=np.uint8))
    fptr = yield from gpu.cudaGetFunction("increment")
    yield from gpu.cudaLaunchKernel(fptr, args=(0.5, ptr, 256))
    yield from gpu.cudaDeviceSynchronize()
    data = yield from gpu.memcpyD2H(ptr, 256)
    yield from gpu.cudaFree(ptr)
    return int(data[0])


def test_dgsf_function_runs_end_to_end():
    dep = DgsfDeployment(DgsfConfig(num_gpus=2))
    dep.setup()
    dep.platform.register(
        FunctionSpec(name="f", handler=gpu_handler, gpu_mem_bytes=1 * GB)
    )
    inv, proc = dep.platform.invoke("f")
    dep.env.run(until=proc)
    assert inv.status == "completed"
    assert inv.result == 1  # incremented once
    assert "gpu_queue" in inv.phases
    assert inv.phases["cuda_init_app"] < 0.1  # remote context was pre-created


def test_native_function_pays_cuda_init():
    dep = NativeDeployment(num_gpus=1)
    dep.setup()
    dep.platform.register(
        FunctionSpec(name="f", handler=gpu_handler, gpu_mem_bytes=1 * GB)
    )
    inv, proc = dep.platform.invoke("f")
    dep.env.run(until=proc)
    assert inv.status == "completed"
    assert inv.result == 1
    assert inv.phases["cuda_init_app"] >= 3.2


def test_dgsf_beats_native_for_init_bound_function():
    """The paper's headline: pre-initialization makes DGSF faster than
    native for short functions despite remoting overhead."""

    def run(dep):
        dep.setup()
        dep.platform.register(
            FunctionSpec(name="f", handler=gpu_handler, gpu_mem_bytes=1 * GB)
        )
        inv, proc = dep.platform.invoke("f")
        dep.env.run(until=proc)
        return inv.e2e_s

    native = run(NativeDeployment(num_gpus=1))
    dgsf = run(DgsfDeployment(DgsfConfig(num_gpus=1)))
    assert dgsf < native
    assert native - dgsf > 2.0  # most of the 3.2 s init is hidden


def test_functions_queue_for_gpu_when_server_busy():
    dep = DgsfDeployment(DgsfConfig(num_gpus=1))
    dep.setup()
    dep.platform.register(
        FunctionSpec(name="f", handler=gpu_handler, gpu_mem_bytes=1 * GB)
    )
    inv1, p1 = dep.platform.invoke("f")
    inv2, p2 = dep.platform.invoke("f")
    dep.env.run(until=dep.env.all_of([p1, p2]))
    waits = sorted([inv1.phases["gpu_queue"], inv2.phases["gpu_queue"]])
    assert waits[0] < 0.01
    assert waits[1] > 0.3  # waited for the first function's GPU


def test_gpu_memory_released_between_invocations():
    dep = DgsfDeployment(DgsfConfig(num_gpus=1))
    dep.setup()
    base = dep.gpu_server.devices[0].mem_used
    dep.platform.register(
        FunctionSpec(name="f", handler=gpu_handler, gpu_mem_bytes=1 * GB)
    )
    for _ in range(3):
        inv, proc = dep.platform.invoke("f")
        dep.env.run(until=proc)
    assert dep.gpu_server.devices[0].mem_used == base
    assert dep.gpu_server.monitor.committed[0] == 0


def test_lambda_deployment_is_slower():
    def run(dep):
        dep.setup()
        dep.storage.put_object("blob", 200 * MB)

        def handler(fc):
            yield from fc.download(["blob"])
            return (yield from gpu_handler(fc))

        dep.platform.register(
            FunctionSpec(name="f", handler=handler, gpu_mem_bytes=1 * GB)
        )
        inv, proc = dep.platform.invoke("f")
        dep.env.run(until=proc)
        return inv

    fast = run(DgsfDeployment(DgsfConfig(num_gpus=1)))
    slow = run(DgsfDeployment.lambda_deployment(DgsfConfig(num_gpus=1)))
    assert slow.phases["download"] > fast.phases["download"] * 1.5
    assert slow.e2e_s > fast.e2e_s


def test_summarize_invocations():
    dep = DgsfDeployment(DgsfConfig(num_gpus=2))
    dep.setup()
    dep.platform.register(
        FunctionSpec(name="f", handler=gpu_handler, gpu_mem_bytes=1 * GB)
    )
    procs = [dep.platform.invoke("f")[1] for _ in range(4)]
    dep.env.run(until=dep.env.all_of(procs))
    stats = summarize_invocations(dep.platform.invocations)
    assert stats.per_workload["f"].count == 4
    assert stats.function_e2e_sum_s >= stats.per_workload["f"].mean_e2e_s * 4 * 0.99
    assert stats.provider_e2e_s > 0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize_invocations([])


def test_summarize_invocations_counts_only_completed():
    """Failed invocations have t_end >= 0 too; they must stay out of the
    latency statistics."""
    cfg = DgsfConfig(num_gpus=2, api_servers_per_gpu=2, seed=7,
                     fault_plan=FaultPlan(server_crash_prob=1.0,
                                          crash_after_calls=(1, 20),
                                          max_crashes=2),
                     rpc_timeout_s=20.0, heartbeat_timeout_s=2.0)
    invocations = run_scenario(
        cfg, make_plan("exponential", seed=7, copies=2)).invocations
    completed = [inv for inv in invocations if inv.status == "completed"]
    assert 0 < len(completed) < len(invocations)
    stats = summarize_invocations(invocations)
    assert sum(ws.count for ws in stats.per_workload.values()) == len(completed)
    assert stats.p50_e2e_s == summarize_invocations(completed).p50_e2e_s


def test_setup_twice_rejected():
    from repro.errors import ConfigurationError

    dep = DgsfDeployment(DgsfConfig(num_gpus=1))
    dep.setup()
    with pytest.raises(ConfigurationError):
        dep.setup()
