"""The GPU server: manager bring-up + assembly (paper §IV, §V-A).

"When a GPU server is provisioned, the first piece that runs is the
manager, which is responsible for setting up the environment, checking
the available GPUs and creating the monitor and the initial idle API
servers.  Once set up, it sends the serverless backend a message
announcing that it is ready and how many functions it can handle (one per
API server created)."

Bring-up creates, *before any function arrives*:

* one API server per (GPU × sharing level), each with its home context
  and own cuDNN/cuBLAS handle pair (the 755 MB idle footprint),
* one *migration slot* per GPU — a spare pre-initialized context a
  migrating API server claims instantly (contexts cost 3.2 s, which would
  dwarf the 0.5–2 s migration budget of Table V if created on demand),
* a small shared pool of cuDNN/cuBLAS handles per GPU for migration
  twins and for functions that create more handles than the server owns.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.sim.core import Environment, Event
from repro.simcuda.context import CudaContext
from repro.simcuda.costs import CostModel, DEFAULT_COSTS
from repro.simcuda.device import SimGPU
from repro.simcuda.kernels import KernelRegistry, builtin_registry
from repro.simcuda.nvml import NvmlSampler
from repro.core.api_server import ApiServer
from repro.core.config import DgsfConfig
from repro.core.handlepool import HandlePools
from repro.core.monitor import Monitor
from repro.core.policies import make_policy

#: cuDNN/cuBLAS handle twins each per-GPU shared pool precreates.  Kept
#: small: each set costs 456 MB of device memory and the largest workload
#: (face detection, ~13.2 GB) must still fit on a GPU next to the static
#: footprints.
POOL_HANDLES_PER_GPU = 1

__all__ = ["GpuServer"]


class GpuServer:
    """One disaggregated GPU machine with its manager-created pieces."""

    def __init__(
        self,
        env: Environment,
        config: DgsfConfig,
        host=None,
        kernel_registry: Optional[KernelRegistry] = None,
        costs: CostModel = DEFAULT_COSTS,
        metrics=None,
        tracer=None,
    ):
        self.env = env
        self.config = config
        self.host = host
        self.costs = costs
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self.tracer = tracer
        self.devices = [SimGPU(env, i, costs=costs) for i in range(config.num_gpus)]
        self.kernels = kernel_registry or builtin_registry()
        self.pools = HandlePools(env, costs)
        self.api_servers: list[ApiServer] = []
        sid = 0
        for device in self.devices:
            for _ in range(config.api_servers_per_gpu):
                server = ApiServer(env, self, sid, device.device_id)
                server.tracer = tracer
                self.api_servers.append(server)
                sid += 1
        #: device_id -> spare context (None while claimed)
        self._migration_slots: dict[int, Optional[CudaContext]] = {}
        self.monitor = Monitor(
            env,
            self,
            policy=make_policy(config.policy),
            migration_enabled=config.migration_enabled,
            confirm_checks=config.migration_confirm_checks,
            queue_discipline=config.queue_discipline,
            sff_aging_factor=config.sff_aging_factor,
            mqfq_throttle_window_s=config.mqfq_throttle_window_s,
            metrics=self.metrics,
        )
        self.monitor.tracer = tracer
        self.nvml = NvmlSampler(env, self.devices)
        self.ready = Event(env)
        self._setup_proc = None
        #: device_ids whose migration-slot context died with a crashed server
        self._lost_slots: set[int] = set()
        self.servers_restarted = 0

    # -- bring-up -----------------------------------------------------------------
    def start(self):
        """Kick off manager bring-up; ``self.ready`` fires when done."""
        if self._setup_proc is not None:
            raise SimulationError("GPU server already started")
        self._setup_proc = self.env.process(self._bringup(), name="gpu-server-manager")
        return self._setup_proc

    def _bringup(self) -> Generator:
        # API servers initialize in parallel (independent processes).
        procs = [
            self.env.process(server.setup(), name=f"apiserver-{server.server_id}-setup")
            for server in self.api_servers
        ]
        # Spare migration-slot contexts + shared handle pools, per GPU, in
        # parallel with the API servers.
        slot_procs = [
            self.env.process(self._setup_slot(device), name=f"slot-{device.device_id}")
            for device in self.devices
        ]
        yield self.env.all_of(procs + slot_procs)
        self.monitor.finalize_capacity()
        self.monitor.start()
        # "it announces it is ready and how many functions it can handle"
        self.ready.succeed(len(self.api_servers))

    def _setup_slot(self, device: SimGPU) -> Generator:
        ctx = yield from CudaContext.create(self.env, device, self.kernels)
        self._migration_slots[device.device_id] = ctx
        yield from self.pools.prefill(ctx, POOL_HANDLES_PER_GPU)

    # -- migration slots -----------------------------------------------------------
    def migration_slot_available(self, device_id: int) -> bool:
        return self._migration_slots.get(device_id) is not None

    def claim_migration_slot(self, api_server: ApiServer, device_id: int) -> CudaContext:
        ctx = self._migration_slots.get(device_id)
        if ctx is None:
            raise SimulationError(f"no free migration slot on GPU {device_id}")
        self._migration_slots[device_id] = None
        api_server._adopt_context(device_id, ctx)
        return ctx

    def release_migration_slot(self, api_server: ApiServer, device_id: int) -> None:
        if self._migration_slots.get(device_id) is not None:
            raise SimulationError(f"migration slot on GPU {device_id} is not claimed")
        ctx = api_server.release_context(device_id)
        self._migration_slots[device_id] = ctx

    def note_slot_lost(self, device_id: int) -> None:
        """A claimed migration-slot context died with a crashed API server."""
        self._lost_slots.add(device_id)

    # -- crash recovery -----------------------------------------------------------
    def restart_api_server(self, server: ApiServer):
        """Re-bring-up a crashed API server (§V-A recovery path).

        Recreates the home context and the own cuDNN/cuBLAS handle pair —
        paying the full 3.2 s CUDA initialization plus handle creation and
        re-charging the 755 MB idle footprint — and rebuilds any migration
        slot the crash consumed.  Notifies the monitor when serviceable.
        """
        if not server.dead:
            raise SimulationError(f"API server {server.server_id} is not dead")

        def bringup() -> Generator:
            yield from server.setup()
            # restore migration slots this crash consumed
            lost, self._lost_slots = sorted(self._lost_slots), set()
            for device_id in lost:
                ctx = yield from CudaContext.create(
                    self.env, self.device(device_id), self.kernels
                )
                self._migration_slots[device_id] = ctx
            server.dead = False
            self.servers_restarted += 1
            self.monitor.server_restarted(server)

        return self.env.process(
            bringup(), name=f"apiserver-{server.server_id}-restart"
        )

    # -- inspection ---------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """How many functions the server can handle concurrently."""
        return len(self.api_servers)

    def device(self, device_id: int) -> SimGPU:
        for d in self.devices:
            if d.device_id == device_id:
                return d
        raise ConfigurationError(f"no GPU {device_id}")

    def idle_api_servers(self) -> list[ApiServer]:
        return [s for s in self.api_servers if not s.busy]

    def shutdown(self) -> Generator:
        """Tear the GPU server down: destroy contexts, free all static
        memory ("The manager then idles until it is shut down", §V-A)."""
        if any(s.busy for s in self.api_servers):
            raise SimulationError("cannot shut down with busy API servers")
        for server in self.api_servers:
            server.stop_serving()
            if server.artifact_cache is not None:
                server.artifact_cache.invalidate_all()
            server.release_handles(None, own=True)
            server.contexts[server.home_device_id].destroy()
        for device_id, ctx in list(self._migration_slots.items()):
            if ctx is not None:
                ctx.destroy()
                self._migration_slots[device_id] = None
        for handle in self.pools.drain():
            self.device(handle.device_id).unreserve_bytes(handle.nbytes)
        if False:
            yield
        return None

    def __repr__(self) -> str:
        return (
            f"<GpuServer gpus={len(self.devices)} servers={len(self.api_servers)} "
            f"policy={self.config.policy} sharing={self.config.api_servers_per_gpu}>"
        )
