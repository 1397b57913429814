"""Shortest-function-first queue discipline (the paper's future work)."""

import pytest

from repro.core import DgsfConfig
from repro.errors import ConfigurationError, SimulationError
from repro.simcuda.types import GB
from repro.testing import make_world


def grant(world, req):
    return world.env.run(until=req.granted)


def occupy(world, declared=1 * GB):
    req = world.monitor.submit_request(declared)
    server = grant(world, req)
    server.begin_session(declared)
    return server


def release(world, server):
    proc = world.env.process(server.end_session())
    world.env.run(until=proc)
    world.monitor.release(server)


def test_config_validates_discipline():
    with pytest.raises(ConfigurationError):
        DgsfConfig(queue_discipline="random")
    assert DgsfConfig(queue_discipline="sff").queue_discipline == "sff"


def test_monitor_rejects_unknown_discipline():
    from repro.core.monitor import Monitor
    from repro.core.policies import BestFit

    world = make_world(DgsfConfig(num_gpus=1))
    with pytest.raises(SimulationError):
        Monitor(world.env, world.gpu_server, BestFit(), queue_discipline="lifo")


def test_sff_overtakes_blocked_large_head():
    """Under SFF, a small request is not blocked by an infeasible large
    head-of-line request (the FCFS pathology of §VIII-D)."""
    world = make_world(DgsfConfig(num_gpus=1, api_servers_per_gpu=2,
                                  queue_discipline="sff"))
    s1 = occupy(world, 10 * GB)
    big = world.monitor.submit_request(12 * GB, expected_duration_s=30)
    small = world.monitor.submit_request(1 * GB, expected_duration_s=5)
    world.env.run(until=world.env.now + 0.5)
    assert not big.granted.triggered
    assert small.granted.triggered  # overtook the blocked head
    release(world, s1)


def test_fcfs_does_not_overtake():
    world = make_world(DgsfConfig(num_gpus=1, api_servers_per_gpu=2,
                                  queue_discipline="fcfs"))
    s1 = occupy(world, 10 * GB)
    world.monitor.submit_request(12 * GB)
    small = world.monitor.submit_request(1 * GB)
    world.env.run(until=world.env.now + 0.5)
    assert not small.granted.triggered
    release(world, s1)


def test_sff_prefers_shortest_expected_duration():
    world = make_world(DgsfConfig(num_gpus=1, queue_discipline="sff"))
    s1 = occupy(world)
    slow = world.monitor.submit_request(1 * GB, expected_duration_s=60)
    fast = world.monitor.submit_request(1 * GB, expected_duration_s=2)
    release(world, s1)  # frees the single API server → SFF picks `fast`
    server = grant(world, fast)
    assert not slow.granted.triggered
    server.begin_session(1 * GB)
    release(world, server)
    grant(world, slow)


def test_sff_reduces_mean_queueing_under_heavy_load():
    """The paper's hypothesis: SFF "could improve throughput at some loss
    of fairness".  Mean queueing should drop; the longest functions may
    wait longer (the fairness loss)."""
    from repro.experiments.runner import make_plan, run_scenario

    plan = make_plan("exponential", seed=3, copies=4, mean_gap_s=1.5)

    def run(discipline):
        cfg = DgsfConfig(num_gpus=2, api_servers_per_gpu=2,
                         queue_discipline=discipline, seed=3)
        return run_scenario(cfg, plan).require_completed().stats

    fcfs = run("fcfs")
    sff = run("sff")
    mean_queue = lambda stats: sum(
        ws.mean_queue_s * ws.count for ws in stats.per_workload.values()
    ) / sum(ws.count for ws in stats.per_workload.values())
    assert mean_queue(sff) < mean_queue(fcfs)
