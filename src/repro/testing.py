"""Test and experiment harness helpers: a fully brought-up DGSF world.

Lives in the package (rather than in ``tests/``) so both the test suite
and the experiment producers (:mod:`repro.experiments.migration`,
:mod:`repro.experiments.provisioning`) can import it."""

from __future__ import annotations

from repro.core import DgsfConfig
from repro.core.deployment import DgsfDeployment
from repro.core.guest import GuestLibrary
from repro.simnet.rpc import RpcClient


class DgsfWorld:
    """A brought-up deployment plus helpers for direct guest↔server tests."""

    def __init__(self, deployment: DgsfDeployment):
        self.dep = deployment
        self.env = deployment.env
        self.gpu_server = deployment.gpu_server
        self.monitor = deployment.gpu_server.monitor

    def drive(self, gen):
        """Run one generator to completion in the simulation."""
        proc = self.env.process(gen)
        return self.env.run(until=proc)

    def attach_guest(self, api_server=None, declared_bytes=2 << 30, flags=None,
                     kernel_names=None, **guest_kwargs):
        """Manually wire a guest library to an API server (bypassing the
        platform) — used by tests that poke the remoting layer directly.

        ``kernel_names`` are the kernels the attach registers (None: every
        kernel of the deployment; ``[]``: none, so a kernel's first
        ``cudaGetFunction`` goes remote).  Extra keyword arguments are forwarded to
        :class:`GuestLibrary` (e.g. ``rpc_timeout_s`` for fault-path
        tests)."""
        if api_server is None:
            api_server = self.gpu_server.api_servers[0]
        conn = self.dep.network.connect(self.dep.fn_host, self.dep.gpu_host)
        api_server.begin_session(declared_bytes)
        rpc_server = api_server.serve_endpoint(conn.b)
        guest = GuestLibrary(
            self.env,
            RpcClient(conn.a),
            flags=flags if flags is not None else self.dep.config.optimizations,
            costs=self.dep.costs,
            **guest_kwargs,
        )
        if kernel_names is None:
            kernel_names = self.dep.kernels.names()
        self.drive(guest.attach(kernel_names))
        return guest, api_server, rpc_server

    def detach_guest(self, guest, api_server, rpc_server):
        self.drive(guest.detach())
        api_server.stop_serving()
        self.drive(api_server.end_session())


def make_world(config: DgsfConfig | None = None, **dep_kwargs) -> DgsfWorld:
    dep = DgsfDeployment(config=config or DgsfConfig(), **dep_kwargs)
    dep.setup()
    return DgsfWorld(dep)
