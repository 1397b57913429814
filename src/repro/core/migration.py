"""Live migration of an API server between GPUs (paper §V-D).

The sequence, mirroring the paper:

1. *Quiesce*: stop handling API calls (taking the server's exec lock —
   "Migration occurs at API call boundaries") and wait for all pending
   stream operations to complete.
2. *Claim* the destination GPU's pre-initialized migration-slot context
   (contexts cannot be created in 3.2 s on the migration path).
3. For every application allocation: create physical memory on the target
   GPU, copy device-to-device, reserve the *same virtual address* in the
   destination context (fixed-address ``cuMemAddressReserve``), map the
   new physical memory there, and release the source memory.  Application
   pointers — including indirect ones stored in device data structures —
   remain valid because the address map is identical.
4. *Translate handles*: install twins for streams, events and cuDNN/
   cuBLAS handles in the destination context via the translation maps.
5. Switch the server's current context and resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.errors import SimulationError
from repro.sim.core import Environment

__all__ = ["MigrationRecord", "migrate_api_server", "run_migration"]


@dataclass
class MigrationRecord:
    """Outcome of one migration."""

    server_id: int
    source_device: int
    target_device: int
    moved_bytes: int
    allocations_moved: int
    started_at: float
    duration_s: float


def migrate_api_server(api_server, target_device_id: int) -> Generator:
    """Migrate ``api_server``'s live function to ``target_device_id``.

    Returns a :class:`MigrationRecord`.  The caller (monitor) is
    responsible for scheduling-level accounting (committed memory moves).
    """
    source_device_id = api_server.current_device_id
    t_start = api_server.env.now
    moved_bytes, moved_allocs = yield from run_migration(
        api_server, target_device_id, 1, _move_preserving_addresses
    )
    return MigrationRecord(
        server_id=api_server.server_id,
        source_device=source_device_id,
        target_device=target_device_id,
        moved_bytes=moved_bytes,
        allocations_moved=moved_allocs,
        started_at=t_start,
        duration_s=api_server.env.now - t_start,
    )


def run_migration(api_server, target_device_id: int, fixed_cost_factor: float,
                  move_data) -> Generator:
    """The steps every migration strategy shares, around its own data move.

    Validates the target, quiesces the server and claims the destination
    context, charges ``fixed_cost_factor`` × the fixed migration overhead,
    runs ``move_data(api_server, source_ctx, target_ctx)``, installs the
    handle twins, then switches the current GPU and releases a previously
    claimed slot.  A data move that relocates the session's memory also
    sets ``memory_device_id``.  Returns whatever ``move_data`` returns.
    """
    env: Environment = api_server.env
    gpu_server = api_server.gpu_server
    source_device_id = api_server.current_device_id
    if target_device_id == source_device_id:
        raise SimulationError("migration target equals current GPU")
    if api_server.session is None:
        raise SimulationError("cannot migrate an idle API server")
    if api_server.memory_device_id != source_device_id:
        raise SimulationError(
            "cannot migrate a session whose memory was left behind by a "
            "peer-access move"
        )

    with api_server.exec_lock.request() as lock:
        # 1. quiesce: no new API calls; drain pending operations
        yield lock
        source_ctx = api_server.context
        yield source_ctx.synchronize()

        # 2. the destination context: the server's own home context when
        # migrating back home, otherwise the target GPU's pre-initialized
        # migration slot
        if target_device_id == api_server.home_device_id:
            target_ctx = api_server.contexts[target_device_id]
        else:
            target_ctx = gpu_server.claim_migration_slot(api_server, target_device_id)

        # fixed overhead: driver coordination, context switch, bookkeeping
        yield env.timeout(api_server.costs.migration_fixed_s * fixed_cost_factor)

        # 3. the strategy's own data move
        moved = yield from move_data(api_server, source_ctx, target_ctx)

        # 4. translate handles: twins in the destination context
        yield from api_server.install_twins(target_device_id)

        # 5. switch and resume; release a previously claimed slot if this
        # server had already migrated once
        api_server.current_device_id = target_device_id
        if source_device_id != api_server.home_device_id:
            gpu_server.release_migration_slot(api_server, source_device_id)
        api_server.migrations += 1
    return moved


def _move_preserving_addresses(api_server, source_ctx, target_ctx) -> Generator:
    """DGSF: copy each allocation device-to-device into the *same* VA."""
    env: Environment = api_server.env
    moved_bytes = 0
    moved_allocs = 0
    for va, size in source_ctx.address_space.snapshot():
        yield from target_ctx.malloc(size, va=va)
        # temporary-VA data move (modelled as the copy itself)
        yield from target_ctx.copy_peer(va, source_ctx, va)
        yield env.timeout(api_server.costs.migration_per_allocation_s)
        yield from source_ctx.free(va)
        moved_bytes += size
        moved_allocs += 1
    api_server.memory_device_id = target_ctx.device.device_id
    return moved_bytes, moved_allocs
