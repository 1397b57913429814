"""Crash/recovery paths: injected API-server death, RPC timeouts and
retries, orphaned-request rescue, and seeded chaos runs.

The chaos tests are property-style: under a seeded schedule of mid-call
server crashes, message drops and partition windows, every invocation of
a mixed workload run must reach a terminal status, the invariant auditor
must find nothing, and every GPU must end up schedulable again.
"""

import pytest

from repro.core import (
    DgsfConfig,
    FaultPlan,
    GuestRpcError,
    audit_deployment,
    audit_gpu_server,
)
from repro.core.deployment import DgsfDeployment
from repro.experiments.runner import make_plan, run_scenario
from repro.faas import FunctionSpec
from repro.simcuda.types import GB
from repro.simnet import LinkFaultInjector
from repro.testing import make_world


# --- detection + re-bring-up -------------------------------------------------

def test_idle_server_crash_detected_and_restarted():
    world = make_world(DgsfConfig(num_gpus=1))
    server = world.gpu_server.api_servers[0]
    device = world.gpu_server.devices[0]
    base = device.mem_used
    server.crash()
    assert server.dead
    assert device.mem_used < base  # the 755 MB idle footprint was freed
    world.env.run(until=world.env.now + 10.0)
    assert not server.dead and not server.recovering
    assert server.schedulable
    assert world.monitor.crashes_detected == 1
    assert world.gpu_server.servers_restarted == 1
    assert device.mem_used == base  # footprint re-charged by re-bring-up
    audit_gpu_server(
        world.gpu_server, end_state=True, check_schedulable=True
    ).raise_if_failed()


def test_missed_heartbeats_declare_server_dead():
    """A server whose §V-A ③ stats stream goes silent (hung process) is
    crashed by the monitor's health loop and brought back up."""
    world = make_world(DgsfConfig(num_gpus=1))
    server = world.gpu_server.api_servers[0]
    server._stats_generation += 1  # silence the stats loop: a hung process
    world.env.run(until=world.env.now + 15.0)
    assert server.crashes == 1
    assert world.monitor.crashes_detected == 1
    assert world.gpu_server.servers_restarted == 1
    assert server.schedulable


def test_crash_between_grant_and_session_requeues_request():
    """A request granted a server that dies before the session begins is
    transparently re-queued and granted the restarted server."""
    world = make_world(DgsfConfig(num_gpus=1))
    monitor = world.monitor
    req = monitor.submit_request(1 * GB)
    server = world.env.run(until=req.granted)
    server.crash()
    clone = world.env.run(until=req.resubmitted)
    assert req.superseded is clone
    assert monitor.requests_requeued == 1
    replacement = world.env.run(until=clone.granted)
    assert replacement is server  # same (only) server, re-brought-up
    assert not server.dead
    monitor.cancel(clone)
    audit_gpu_server(
        world.gpu_server, end_state=True, check_schedulable=True
    ).raise_if_failed()


def test_requeued_request_does_not_double_count_queue_wait():
    """Regression: a crash-requeued clone kept the orphan's original
    submit time, so the wait already accounted to the first grant was
    reported again on the clone's grant — the two ``gpu_request`` queue
    spans overlapped and summed to more than the invocation's wall wait
    (critical-path coverage could exceed 100%).  The clone's accounting
    window must start at the requeue."""
    world = make_world(DgsfConfig(num_gpus=1, tracing_enabled=True))
    monitor = world.monitor
    env = world.env
    t_submit = env.now
    req = monitor.submit_request(1 * GB)
    server = env.run(until=req.granted)
    env.run(until=env.now + 1.0)  # let some granted-but-unattached time pass
    t_crash = env.now
    server.crash()
    clone = env.run(until=req.resubmitted)
    assert clone.accounted_from >= t_crash
    assert clone.submitted_at == req.submitted_at  # provenance preserved
    env.run(until=clone.granted)
    spans = [s for s in world.dep.tracer.spans(cat="queue")
             if s.name == "gpu_request"]
    assert len(spans) == 2
    spans.sort(key=lambda s: s.t_start)
    # non-overlapping accounting windows whose sum is bounded by the wall
    assert spans[1].t_start >= spans[0].t_end
    total_wait = sum(s.t_end - s.t_start for s in spans)
    assert total_wait <= env.now - t_submit + 1e-9
    monitor.cancel(clone)
    audit_gpu_server(
        world.gpu_server, end_state=True, check_schedulable=True
    ).raise_if_failed()


# --- guest-side RPC timeout + retry ------------------------------------------

def test_guest_retries_idempotent_call_through_partition():
    world = make_world()
    guest, api_server, rpc_server = world.attach_guest(rpc_timeout_s=5.0)
    conn = guest.rpc.endpoint.connection
    t0 = world.env.now
    conn.faults = LinkFaultInjector(None, partitions=[(t0, t0 + 6.0)])

    def call():
        yield from guest.cudaDeviceSynchronize()
        return world.env.now - t0

    proc = world.env.process(call())
    world.env.run(until=proc)
    # dropped at t0 and at the first retry (t0+5.25); second retry lands
    # after the partition heals
    assert guest.rpc_timeouts == 2
    assert guest.rpc_retries == 2
    assert proc.value > 10.0
    conn.faults = None
    world.detach_guest(guest, api_server, rpc_server)


def test_non_idempotent_call_fails_without_retry():
    world = make_world()
    guest, api_server, rpc_server = world.attach_guest(rpc_timeout_s=2.0)
    conn = guest.rpc.endpoint.connection
    conn.faults = LinkFaultInjector(
        None, partitions=[(world.env.now, float("inf"))]
    )

    def call():
        with pytest.raises(GuestRpcError):
            yield from guest.cudaMalloc(1024)

    proc = world.env.process(call())
    world.env.run(until=proc)
    assert guest.rpc_timeouts == 1
    assert guest.rpc_retries == 0  # cudaMalloc is not idempotent
    conn.faults = None
    world.detach_guest(guest, api_server, rpc_server)


# --- end-to-end: crash under an attached function ----------------------------

def test_mid_session_crash_fails_function_and_recovers():
    plan = FaultPlan(server_crash_prob=1.0, crash_after_calls=(6, 6), max_crashes=1)
    config = DgsfConfig(
        num_gpus=1,
        fault_plan=plan,
        rpc_timeout_s=1.0,
        rpc_max_retries=1,
        rpc_retry_backoff_s=0.25,
    )
    dep = DgsfDeployment(config)
    dep.setup()

    def victim(fc):
        gpu = yield from fc.acquire_gpu()
        for _ in range(10):
            yield from gpu.cudaDeviceSynchronize()
        return "survived"

    dep.platform.register(FunctionSpec("victim", victim, gpu_mem_bytes=1 * GB))
    inv, proc = dep.platform.invoke("victim")
    with pytest.raises(GuestRpcError):
        dep.env.run(until=proc)
    assert inv.status == "failed"
    dep.env.run(until=dep.env.now + 15.0)
    server = dep.gpu_server.api_servers[0]
    assert server.schedulable
    assert dep.gpu_server.monitor.crashes_detected == 1
    assert dep.gpu_server.servers_restarted == 1
    audit_deployment(dep, end_state=True, check_schedulable=True).raise_if_failed()


# --- seeded chaos ------------------------------------------------------------

CHAOS_PLAN = FaultPlan(
    server_crash_prob=0.2,
    crash_after_calls=(1, 20),
    link_drop_prob=0.01,
    delay_spike_prob=0.02,
    delay_spike_s=0.2,
    partitions=((40.0, 43.0),),
)


def chaos_config(seed: int) -> DgsfConfig:
    return DgsfConfig(
        num_gpus=2,
        api_servers_per_gpu=2,
        seed=seed,
        fault_plan=CHAOS_PLAN,
        rpc_timeout_s=20.0,
        rpc_max_retries=2,
        rpc_retry_backoff_s=0.5,
    )


@pytest.mark.parametrize("seed", [7, 11])
def test_chaos_mixed_run_terminates_clean(seed):
    plan = make_plan("exponential", seed=seed, copies=2)
    result = run_scenario(chaos_config(seed), plan)
    assert result.outcomes.total == len(plan)
    assert result.outcomes.all_terminal, result.outcomes.counts
    result.audit.raise_if_failed()
    # every detected crash was recovered
    assert result.servers_restarted == result.crashes_detected
    # at least some invocations made it through despite the faults
    assert result.outcomes.counts.get("completed", 0) > 0


def test_chaos_run_is_deterministic():
    def fingerprint():
        plan = make_plan("exponential", seed=7, copies=2)
        result = run_scenario(chaos_config(7), plan)
        return [
            (inv.function_name, inv.status, round(inv.t_end, 9))
            for inv in result.invocations
        ], result.crashes_detected

    assert fingerprint() == fingerprint()
