"""Unit tests for NVML-style utilization sampling."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.simcuda import NvmlSampler, SimGPU, moving_average


def test_sampler_sees_busy_gpu():
    env = Environment()
    gpu = SimGPU(env, 0)
    sampler = NvmlSampler(env, [gpu])
    sampler.start()
    gpu.launch(1.0)
    env.run(until=2.0)
    sampler.stop()
    times, utils = sampler.series(0)
    # Samples within the first second should read ~100%, later ones 0%.
    early = utils[times <= 1.0]
    late = utils[times >= 1.4]
    assert np.all(early > 99)
    assert np.all(late < 1)


def test_sampler_takes_no_sample_after_stop():
    env = Environment()
    gpu = SimGPU(env, 0)
    sampler = NvmlSampler(env, [gpu], query_interval_s=0.2)
    sampler.start()
    gpu.launch(1.0)
    env.run(until=0.5)  # samples at 0.2 and 0.4; the 0.6 tick is pending
    sampler.stop()
    taken = (list(sampler.times), list(sampler.samples[0]))
    env.run(until=0.5 + 3 * sampler.query_interval_s)
    assert (sampler.times, sampler.samples[0]) == taken
    assert sampler.times == pytest.approx([0.2, 0.4])


def test_sampler_partial_window():
    env = Environment()
    gpu = SimGPU(env, 0)
    sampler = NvmlSampler(env, [gpu], query_interval_s=0.2, sample_window_s=0.2)
    sampler.start()
    gpu.launch(0.1)  # busy for half of the first window
    env.run(until=0.25)
    times, utils = sampler.series(0)
    assert utils[0] == pytest.approx(50.0, abs=1.0)


def test_average_utilization_across_gpus():
    env = Environment()
    g0, g1 = SimGPU(env, 0), SimGPU(env, 1)
    sampler = NvmlSampler(env, [g0, g1])
    sampler.start()
    g0.launch(2.0)  # g1 stays idle
    env.run(until=2.0)
    avg = sampler.average_utilization()
    assert 40 <= avg <= 60
    assert sampler.average_utilization(0) > 90
    assert sampler.average_utilization(1) < 5


def test_sampler_validation():
    env = Environment()
    with pytest.raises(ValueError):
        NvmlSampler(env, [], query_interval_s=0)


def test_moving_average_basic():
    vals = [0, 10, 20, 30, 40]
    out = moving_average(vals, window=2)
    assert out == pytest.approx([0, 5, 15, 25, 35])


def test_moving_average_window_one_is_identity():
    vals = np.array([3.0, 1.0, 4.0])
    assert np.array_equal(moving_average(vals, 1), vals)


def test_moving_average_warmup_grows():
    out = moving_average([10, 20, 30, 40, 50], window=5)
    assert out[0] == 10
    assert out[4] == pytest.approx(30)


def test_moving_average_empty_and_invalid():
    assert moving_average([], 5).size == 0
    with pytest.raises(ValueError):
        moving_average([1], 0)


# --- edge cases: zero-length windows, crashes, migration ---------------------

def test_zero_length_window_rejected_by_engine():
    """The utilization engine refuses an empty window — the contract the
    sampler's ``now <= start`` guard exists to respect."""
    env = Environment()
    gpu = SimGPU(env, 0)
    env.run(until=1.0)
    with pytest.raises(ValueError):
        gpu.utilization(1.0, 1.0)


def test_sampler_window_clamped_at_time_zero():
    """A sample window larger than elapsed sim time clamps to [0, now]
    instead of producing a zero/negative-length window."""
    env = Environment()
    gpu = SimGPU(env, 0)
    sampler = NvmlSampler(env, [gpu], query_interval_s=0.1, sample_window_s=5.0)
    sampler.start()
    gpu.launch(0.35)
    env.run(until=0.31)
    assert sampler.times == pytest.approx([0.1, 0.2, 0.3])
    for util in sampler.samples[0]:
        assert util == pytest.approx(1.0)


def test_sampler_survives_api_server_crash_and_teardown():
    """Crashing an API server (and later tearing the whole GPU server
    down) must not wedge or corrupt the sampler: it keeps emitting samples
    and its bound gauge series stays in lockstep."""
    from repro.core import DgsfConfig
    from repro.testing import make_world

    world = make_world(DgsfConfig(num_gpus=1))
    sampler = world.gpu_server.nvml
    sampler.start()
    world.env.run(until=world.env.now + 1.0)
    before_crash = len(sampler.times)
    assert before_crash > 0
    server = world.gpu_server.api_servers[0]
    server.crash()
    world.env.run(until=world.env.now + 10.0)  # crash + full re-bring-up
    assert not server.dead
    after_recovery = len(sampler.times)
    assert after_recovery > before_crash
    world.env.run(until=world.env.now + 1.0)
    assert len(sampler.times) > after_recovery
    # gauge series (bound by the deployment) mirrors the raw samples
    (gauge,) = world.dep.metrics.find("gpu.utilization", device=0)
    assert gauge.times == sampler.times
    assert gauge.values == sampler.samples[0]
    # teardown: sampling continues (reads 0%) without raising
    world.drive(world.gpu_server.shutdown())
    world.env.run(until=world.env.now + 1.0)
    assert sampler.samples[0][-1] == pytest.approx(0.0)


def test_samples_survive_live_migration():
    """Live-migrating an API server between GPUs must leave the sampler's
    per-device streams intact — equal length, strictly increasing times —
    and attribute post-migration kernel work to the target GPU."""
    from repro.core import DgsfConfig
    from repro.core.migration import migrate_api_server
    from repro.simcuda.types import GB, MB
    from repro.testing import make_world

    world = make_world(DgsfConfig(num_gpus=2))
    sampler = world.gpu_server.nvml
    sampler.start()
    guest, server, rpc = world.attach_guest(declared_bytes=1 * GB)
    ptr = world.drive(guest.cudaMalloc(64 * MB))
    world.drive(guest.memcpyH2D(ptr, 64 * MB))
    proc = world.env.process(migrate_api_server(server, 1))
    world.env.run(until=proc)
    assert server.current_device_id == 1
    # post-migration work lands on GPU 1
    inc = world.drive(guest.cudaGetFunction("increment"))
    world.drive(guest.cudaLaunchKernel(inc, args=(0.5, ptr, 16)))
    world.drive(guest.cudaDeviceSynchronize())
    world.env.run(until=world.env.now + 0.5)
    assert len(sampler.samples[0]) == len(sampler.samples[1]) == len(sampler.times)
    assert all(b > a for a, b in zip(sampler.times, sampler.times[1:]))
    tail = sampler.samples[1][-6:]
    assert max(tail) > 0.0  # GPU 1 saw the post-migration kernel
    world.detach_guest(guest, server, rpc)
