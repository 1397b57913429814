"""Alternative migration strategies — the Table I / §IX comparison.

The paper positions DGSF's VA-preserving migration against two prior
approaches:

* **Gandiva-style checkpoint/restore** (§II, §IX): "relies on library
  functions that can snapshot-restore its state, e.g. TensorFlow's
  train.Saver" — the application's device state is serialized *through
  the host*, destroyed, and rebuilt at the destination.  Generality is
  lost (the library must support it) and the data crosses PCIe twice.
* **DCUDA-style peer access** (§II, §IX): "does not explicitly move the
  data to the destination GPU's memory: application memory accesses may
  — and will — page fault and require data to be read on-demand from the
  peer GPU."  Migration itself is nearly free, but every subsequent
  access pays remote-access overhead, and the source GPU's memory is
  *not* freed ("it is desirable to move data explicitly as to possibly
  create enough space for another function").

Both are implemented here against the same API-server machinery so the
trade-offs can be measured (the ``strategies`` section of
``python -m repro.experiments migration``), reproducing the argument of
Table I quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.migration import migrate_api_server, run_migration

__all__ = [
    "StrategyOutcome",
    "checkpoint_restore_migration",
    "peer_access_migration",
    "MIGRATION_STRATEGIES",
]


@dataclass
class StrategyOutcome:
    """What one strategy did and what it costs afterwards."""

    strategy: str
    duration_s: float
    moved_bytes: int
    #: bytes still resident on the *source* GPU afterwards
    residual_source_bytes: int
    #: multiplicative slowdown on subsequent device accesses (1.0 = none)
    post_access_penalty: float


def checkpoint_restore_migration(api_server, target_device_id: int) -> Generator:
    """Gandiva-style: snapshot to host, destroy, restore on the target.

    Data moves D2H on the source then H2D on the target (two PCIe
    crossings instead of one device-to-device copy), and the virtual
    addresses are *not* preserved — the allocations reappear at new
    addresses in the target context's map, so every device pointer the
    application holds goes stale (a real application with device pointers
    embedded in device data structures would break, which is the paper's
    point).
    Library-level snapshot bookkeeping (the train.Saver pass) doubles
    the fixed overhead.
    """
    t_start = api_server.env.now
    moved = yield from run_migration(api_server, target_device_id, 2, _snapshot_restore)
    return StrategyOutcome(
        strategy="checkpoint_restore",
        duration_s=api_server.env.now - t_start,
        moved_bytes=moved,
        residual_source_bytes=0,
        post_access_penalty=1.0,
    )


def _snapshot_restore(api_server, source_ctx, target_ctx) -> Generator:
    moved = 0
    for va, size in source_ctx.address_space.snapshot():
        mapping, _ = source_ctx.address_space.translate(va)
        # snapshot: D2H on the source...
        yield source_ctx.device.copy_d2h(size)
        host_copy = mapping.allocation.read(0, mapping.allocation.payload_bytes)
        yield from source_ctx.free(va)
        # ...restore: fresh allocation at a NEW address on the target
        new_va = yield from target_ctx.malloc(size)
        yield target_ctx.device.copy_h2d(size)
        target_ctx.address_space.translate(new_va)[0].allocation.write(0, host_copy)
        moved += size
    api_server.memory_device_id = target_ctx.device.device_id
    return moved


#: remote (peer) memory access slowdown under DCUDA-style migration:
#: NVLink/PCIe peer reads are several times slower than local HBM
PEER_ACCESS_PENALTY = 2.5


def peer_access_migration(api_server, target_device_id: int) -> Generator:
    """DCUDA-style: switch execution, leave the data on the source GPU.

    Migration is almost instantaneous (a tenth of the fixed overhead),
    but (a) the source GPU's memory is not freed — it cannot host another
    function — and (b) every kernel afterwards pays remote-access
    overhead: the server scales later kernel work by
    ``post_access_penalty`` until the session ends.
    """
    t_start = api_server.env.now
    residual = yield from run_migration(api_server, target_device_id, 0.1, _leave_in_place)
    return StrategyOutcome(
        strategy="peer_access",
        duration_s=api_server.env.now - t_start,
        moved_bytes=0,
        residual_source_bytes=residual,
        post_access_penalty=PEER_ACCESS_PENALTY,
    )


def _leave_in_place(api_server, source_ctx, target_ctx) -> Generator:
    # memory_device_id stays at the source: the data is not moved, and the
    # VA map still lives in the *source* context, so future memory ops and
    # frees go there; kernels reach it through peer access, which the
    # penalty models
    api_server.kernel_work_multiplier = PEER_ACCESS_PENALTY
    if False:
        yield
    return source_ctx.address_space.mapped_bytes()


def _dgsf_strategy(api_server, target_device_id: int) -> Generator:
    """DGSF's own strategy wrapped in the common outcome type."""
    record = yield from migrate_api_server(api_server, target_device_id)
    return StrategyOutcome(
        strategy="dgsf",
        duration_s=record.duration_s,
        moved_bytes=record.moved_bytes,
        residual_source_bytes=0,
        post_access_penalty=1.0,
    )


MIGRATION_STRATEGIES = {
    "dgsf": _dgsf_strategy,
    "checkpoint_restore": checkpoint_restore_migration,
    "peer_access": peer_access_migration,
}
