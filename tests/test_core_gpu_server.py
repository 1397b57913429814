"""Integration tests for GPU-server bring-up and static footprints."""

import pytest

from repro.core import DgsfConfig
from repro.simcuda.types import MB
from repro.testing import make_world


def test_bringup_announces_capacity():
    world = make_world(DgsfConfig(num_gpus=4, api_servers_per_gpu=2))
    assert world.gpu_server.capacity == 8
    assert world.gpu_server.ready.triggered


def test_bringup_runs_in_parallel_not_serially():
    """All contexts/handles initialize concurrently: bring-up should take
    roughly one context (3.2 s) + handle pool creation, not #servers × 3.2 s."""
    world = make_world(DgsfConfig(num_gpus=4, api_servers_per_gpu=2))
    assert world.env.now < 12.0


def test_idle_footprint_per_gpu():
    """Per GPU: one home API server (755 MB) + spare context (303 MB) +
    shared pool handles (456 MB per set)."""
    world = make_world(DgsfConfig(num_gpus=1, api_servers_per_gpu=1))
    used_mb = world.gpu_server.devices[0].mem_used / MB
    assert used_mb == pytest.approx(755 + 303 + 456, abs=10)


def test_schedulable_capacity_fits_largest_workload():
    """Face detection declares ~13.2 GB; it must fit on a GPU even with
    sharing-2 — the paper runs it in every mixed experiment."""
    world = make_world(DgsfConfig(num_gpus=4, api_servers_per_gpu=2))
    free = world.monitor.schedulable_free(0)
    assert free >= 13_500 * MB


def test_migration_slot_claim_release():
    world = make_world(DgsfConfig(num_gpus=2))
    server = world.gpu_server.api_servers[0]
    assert world.gpu_server.migration_slot_available(1)
    ctx = world.gpu_server.claim_migration_slot(server, 1)
    assert not world.gpu_server.migration_slot_available(1)
    assert server.contexts[1] is ctx
    world.gpu_server.release_migration_slot(server, 1)
    assert world.gpu_server.migration_slot_available(1)


def test_double_claim_rejected():
    from repro.errors import SimulationError

    world = make_world(DgsfConfig(num_gpus=2))
    s0, s1 = world.gpu_server.api_servers[:2]
    world.gpu_server.claim_migration_slot(s0, 1)
    with pytest.raises(SimulationError):
        world.gpu_server.claim_migration_slot(s1, 1)


def test_api_servers_distributed_across_gpus():
    world = make_world(DgsfConfig(num_gpus=3, api_servers_per_gpu=2))
    homes = [s.home_device_id for s in world.gpu_server.api_servers]
    assert sorted(homes) == [0, 0, 1, 1, 2, 2]


def test_idle_api_servers_listed():
    world = make_world(DgsfConfig(num_gpus=2))
    assert len(world.gpu_server.idle_api_servers()) == 2
    world.gpu_server.api_servers[0].begin_session(1 * MB)
    assert len(world.gpu_server.idle_api_servers()) == 1
