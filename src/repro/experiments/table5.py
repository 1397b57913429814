"""Table V: the synthetic migration microbenchmark.

"Average times in seconds of three runs of an application that allocates
an array and launches 2 kernels that touch all elements" for array sizes
323 / 3514 / 7802 / 13194 MB (the workloads' footprints):

* **Native** end-to-end — dominated by the 3.2 s CUDA initialization,
* **DGSF** end-to-end — initialization pre-created, so milliseconds,
* **DGSF + forced migration** between the two kernels — end-to-end plus
  the migration duration, which grows with the array size.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig
from repro.core.deployment import DgsfDeployment, NativeGpuSession
from repro.core.guest import GuestLibrary
from repro.core.migration import migrate_api_server
from repro.simcuda.device import SimGPU
from repro.simcuda.types import MB
from repro.sim.core import Environment
from repro.simnet.rpc import RpcClient
from repro.workloads.synthetic import synthetic_migration_workload

__all__ = ["run", "ARRAY_SIZES_MB"]

#: the paper's array sizes (three workloads' memory requirements)
ARRAY_SIZES_MB = (323, 3514, 7802, 13194)


def _run_native(array_mb: int) -> float:
    env = Environment()
    session = NativeGpuSession(env, SimGPU(env, 0))
    t0 = env.now
    proc = env.process(
        synthetic_migration_workload(env, session, array_mb * MB)
    )
    env.run(until=proc)
    return env.now - t0


def _run_dgsf(array_mb: int, migrate: bool) -> tuple[float, float]:
    """Returns (end_to_end_s, migration_s)."""
    dep = DgsfDeployment(DgsfConfig(num_gpus=2))
    dep.setup()
    server = dep.gpu_server.api_servers[0]
    conn = dep.network.connect(dep.fn_host, dep.gpu_host)
    server.begin_session(14_000 * MB)
    server.serve_endpoint(conn.b)
    guest = GuestLibrary(dep.env, RpcClient(conn.a), flags=dep.config.optimizations)
    migration_s = [0.0]

    def between():
        if migrate:
            proc = dep.env.process(migrate_api_server(server, 1))
            record = yield proc
            migration_s[0] = record.duration_s
        else:
            if False:
                yield

    def body():
        yield from guest.attach(["increment"])
        result = yield from synthetic_migration_workload(
            dep.env, guest, array_mb * MB, between_kernels=between
        )
        return result

    t0 = dep.env.now
    proc = dep.env.process(body())
    dep.env.run(until=proc)
    return dep.env.now - t0, migration_s[0]


def run(sizes_mb: tuple[int, ...] = ARRAY_SIZES_MB) -> list[dict]:
    rows = []
    for size in sizes_mb:
        native = _run_native(size)
        dgsf, _ = _run_dgsf(size, migrate=False)
        dgsf_mig, migration = _run_dgsf(size, migrate=True)
        rows.append({
            "array_mb": size,
            "native_s": round(native, 3),
            "dgsf_s": round(dgsf, 3),
            "dgsf_migration_e2e_s": round(dgsf_mig, 3),
            "migration_s": round(migration, 3),
        })
    return rows
