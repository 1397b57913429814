#!/usr/bin/env python
"""Analyze a workload's interposed call stream (the §V-C methodology).

DGSF's optimizations were designed by looking at what real frameworks
send through the CUDA API boundary.  This example runs an ArcFace-style
inference session through a traced guest library and prints, from data
the stack already records:

* how each interposed call was routed (localized / batched / remoted),
  from the guest library's counters,
* which APIs dominate remoting time — the candidates the paper's
  optimizations target — from the tracer's ``rpc:*`` spans,
* the same remoted calls restricted to the inference phase.

Run:  python examples/call_trace_analysis.py
"""

from repro.core import DgsfConfig
from repro.core.deployment import DgsfDeployment
from repro.core.guest import GuestLibrary
from repro.mllib import OnnxInferenceSession
from repro.simcuda.types import GB, MB
from repro.simnet.rpc import RpcClient
from repro.workloads import WORKLOADS


def main():
    dep = DgsfDeployment(DgsfConfig(num_gpus=1, tracing_enabled=True))
    dep.setup()
    server = dep.gpu_server.api_servers[0]
    conn = dep.network.connect(dep.fn_host, dep.gpu_host)
    server.begin_session(4 * GB)
    server.serve_endpoint(conn.b)
    guest = GuestLibrary(dep.env, RpcClient(conn.a), flags=dep.config.optimizations,
                         tracer=dep.tracer)

    spec = WORKLOADS["face_identification"].spec
    session = OnnxInferenceSession(dep.env, guest, spec)

    def scenario():
        yield from guest.attach(dep.kernels.names())
        yield from session.load()
        load_end = dep.env.now
        for _ in range(4):
            yield from session.run(input_bytes=1 * MB)
        yield from session.close()
        return load_end

    proc = dep.env.process(scenario())
    load_end = dep.env.run(until=proc)

    total = guest.calls_intercepted
    print(f"intercepted {total} calls "
          f"({guest.calls_forwarded} crossed the network, "
          f"{guest.messages_sent} messages)\n")

    routes = {
        "local": guest.calls_localized,
        "batched": guest.calls_batched,
        "async": guest.calls_async_forwarded,
    }
    routes["remote"] = total - sum(routes.values())
    print("routing of interposed calls:")
    for route, n in routes.items():
        print(f"  {route:8s} {n:6d}  ({n / total:5.1%})")

    rpc_spans = dep.tracer.spans("rpc")
    seconds_by_api: dict[str, float] = {}
    for span in rpc_spans:
        api = span.name.removeprefix("rpc:")
        seconds_by_api[api] = seconds_by_api.get(api, 0.0) + span.duration_s
    print("\ntop APIs by remoting time (optimization targets):")
    for api, seconds in sorted(seconds_by_api.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {api:28s} {seconds * 1000:9.1f} ms")

    inference = [s for s in rpc_spans if s.t_start >= load_end]
    print(f"\ninference-phase slice: {len(inference)} remote calls, "
          f"{sum(s.duration_s for s in inference) * 1000:.1f} ms remoting")


if __name__ == "__main__":
    main()
