"""The API server's library-handle lifecycle (paper §V-C/§V-D).

One path creates, borrows, twins, gives back and frees cuDNN and cuBLAS
handles; these tests pin the end-to-end consequences of that path: no
footprint survives a session, a crash returns borrowed twins to stock,
and every migration strategy leaves usable handle twins behind.
"""

import pytest

from repro.core import DgsfConfig, OptimizationFlags
from repro.core.audit import audit_deployment
from repro.core.deployment import DgsfDeployment
from repro.core.migration import migrate_api_server
from repro.core.migration_strategies import peer_access_migration
from repro.simcuda.types import MB
from repro.testing import make_world
from repro.workloads import register_workloads


def test_unpooled_sessions_free_inline_handles():
    """Without handle pooling every session creates its handles inline;
    ending the session must free their 456 MB, or each invocation leaks it."""
    dep = DgsfDeployment(
        DgsfConfig(num_gpus=1, optimizations=OptimizationFlags.none())
    )
    dep.setup()
    register_workloads(dep.platform, names=["face_identification"])
    gpu = dep.gpu_server.devices[0]
    free_after_setup = gpu.mem_free
    for _ in range(3):
        inv, proc = dep.platform.invoke("face_identification")
        dep.env.run(until=proc)
        assert inv.status == "completed"
        assert gpu.mem_free == free_after_setup
        audit_deployment(dep, end_state=True).raise_if_failed()


def test_crash_returns_borrowed_twin_and_frees_the_process_footprint():
    world = make_world(DgsfConfig(num_gpus=2))
    costs = world.dep.costs
    g0, g1 = world.gpu_server.devices
    pools = world.gpu_server.pools
    used0, used1 = g0.mem_used, g1.mem_used
    guest, server, rpc = world.attach_guest()
    world.drive(guest.cudnnCreate())  # the server's own handle
    world.drive(migrate_api_server(server, 1))  # twin borrowed on GPU 1
    assert pools.available("cudnn", 1) == 0

    server.crash()

    assert server.dead and not server.contexts
    assert pools.available("cudnn", 1) == 1
    # GPU 0 lost the home context and the own handle pair; GPU 1 lost the
    # claimed migration-slot context, but the pool twin survives in stock
    own_bytes = costs.cudnn_handle_bytes + costs.cublas_handle_bytes
    assert g0.mem_used == used0 - costs.cuda_context_bytes - own_bytes
    assert g1.mem_used == used1 - costs.cuda_context_bytes


@pytest.mark.parametrize("kind", ["cudnn", "cublas"])
def test_peer_access_migration_twins_library_handles(kind):
    world = make_world(DgsfConfig(num_gpus=2))
    guest, server, rpc = world.attach_guest()
    handle = world.drive(getattr(guest, f"{kind}Create")())
    outcome = world.drive(peer_access_migration(server, 1))
    # the twin came from GPU 1's pool stock, so it added no simulated time
    assert outcome.duration_s == pytest.approx(world.dep.costs.migration_fixed_s * 0.1)
    world.drive(getattr(guest, f"{kind}Op")(handle, "op", 0.05, sync=True))
    world.detach_guest(guest, server, rpc)
    assert world.gpu_server.pools.available(kind, 1) == 1


def test_end_state_audit_flags_a_leaked_static_footprint():
    world = make_world(DgsfConfig(num_gpus=1))
    assert audit_deployment(world.dep, end_state=True).ok
    world.gpu_server.devices[0].reserve_bytes(70 * MB)  # a handle nobody freed
    report = audit_deployment(world.dep, end_state=True)
    assert [v.kind for v in report.violations] == ["leak"]
    assert "static footprint" in report.violations[0].detail
