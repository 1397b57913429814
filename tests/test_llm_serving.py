"""LLM serving: decode engine, KV-cache ledger charges, determinism
goldens, and shard-layout invariance.

The engine-level tests drive ``llmConfigure``/``llmSubmit``/``llmStep``
through a manually attached guest (the remoting layer, not the faas
platform), so the monitor ledger assertions see exactly one session.
The end-to-end goldens pin the chat workloads' token timelines: traces
come from each workload's fixed ``trace_seed``, so emission CRCs must be
bit-identical across reruns, platform seeds, and shard layouts.
"""

import pytest

from repro.core import DgsfConfig
from repro.errors import ConfigurationError
from repro.experiments import llm_ablation
from repro.experiments.runner import make_plan, run_scenario
from repro.faas.topology import plan_collect, plan_scenario
from repro.sim.shard import run_sharded
from repro.simcuda.errors import CudaError
from repro.simcuda.types import GB, MB
from repro.testing import make_world

ENGINE_KWARGS = dict(
    kv_bytes_per_token=1 * MB,
    kv_page_tokens=16,          # page = 16 MB
    prefill_s_per_token=0.0001,
    decode_base_s=0.002,
    decode_s_per_seq=0.001,
    max_batch=4,
)

LLM_SHARD_CONFIG = llm_ablation.config(tracing_enabled=False)
LLM_SHARD_RECIPE = {"mode": "burst", "names": ["llm_chat"], "copies": 2,
                    "burst_gap_s": 3.0}
LLM_HORIZON_S = 400.0


def serve(workload, mode, seed=0, copies=2,
          burst_gap_s=llm_ablation.BURST_GAP_S, **overrides):
    """``copies`` bursts of one LLM workload through the ablation's
    deployment; returns ``(records, deployment)``."""
    plan = make_plan("burst", seed, copies=copies, names=[workload],
                     burst_gap_s=burst_gap_s)
    result = run_scenario(llm_ablation.config(seed, **overrides), plan,
                          llm_mode=mode).require_completed()
    return result.invocations, result.deployment


def attach_llm_guest(world, declared=1 * GB):
    """Grant a server through the monitor (so it holds a ledger charge),
    then wire a guest to it — the path ``charge_extra`` requires."""
    req = world.monitor.submit_request(declared)
    server = world.env.run(until=req.granted)
    guest, api_server, rpc_server = world.attach_guest(
        api_server=server, declared_bytes=declared
    )
    return guest, api_server, rpc_server


def teardown_llm_guest(world, guest, api_server, rpc_server):
    world.detach_guest(guest, api_server, rpc_server)
    world.monitor.release(api_server)


# -- engine lifecycle + validation --------------------------------------------

def test_llm_configure_validates_mode_and_rejects_reconfigure():
    world = make_world(DgsfConfig(num_gpus=1))
    guest, api_server, rpc_server = attach_llm_guest(world)
    with pytest.raises(CudaError, match="cudaErrorInvalidValue"):
        world.drive(guest.llmConfigure(mode="speculative", **ENGINE_KWARGS))
    world.drive(guest.llmConfigure(**ENGINE_KWARGS))
    with pytest.raises(CudaError, match="already configured"):
        world.drive(guest.llmConfigure(**ENGINE_KWARGS))
    teardown_llm_guest(world, guest, api_server, rpc_server)


def test_llm_step_without_configure_is_an_error():
    world = make_world(DgsfConfig(num_gpus=1))
    guest, api_server, rpc_server = attach_llm_guest(world)
    with pytest.raises(CudaError, match="cudaErrorInitializationError"):
        world.drive(guest.llmStep())
    teardown_llm_guest(world, guest, api_server, rpc_server)


def test_llm_config_batch_cap_clamps_engine_max_batch():
    world = make_world(DgsfConfig(num_gpus=1, llm_max_decode_batch=2))
    guest, api_server, rpc_server = attach_llm_guest(world)
    kwargs = dict(ENGINE_KWARGS, max_batch=8)
    granted_batch = world.drive(guest.llmConfigure(**kwargs))
    assert granted_batch == 2
    teardown_llm_guest(world, guest, api_server, rpc_server)


def test_llm_config_rejects_nonpositive_batch_cap():
    with pytest.raises(ConfigurationError):
        DgsfConfig(llm_max_decode_batch=0)


# -- KV pages are real ledger charges -----------------------------------------

def test_kv_pages_charge_and_release_through_monitor_ledger():
    declared = 1 * GB
    page_bytes = ENGINE_KWARGS["kv_bytes_per_token"] * ENGINE_KWARGS["kv_page_tokens"]
    world = make_world(DgsfConfig(num_gpus=1))
    guest, api_server, rpc_server = attach_llm_guest(world, declared=declared)
    world.drive(guest.llmConfigure(**ENGINE_KWARGS))
    world.drive(guest.llmSubmit(1, prompt_tokens=40, output_tokens=8))

    emissions = world.drive(guest.llmStep())
    assert emissions == [(1, 1, False)]
    # 40 prompt + 1 generated + 1 next = 42 context tokens -> 3 pages of 16
    charged = world.monitor.charged_bytes(api_server)
    assert charged == declared + 3 * page_bytes
    # the charge is on the device's committed ledger, not a side account
    device = world.monitor.charged_device(api_server)
    assert world.monitor.committed[device] >= charged

    while True:
        emissions = world.drive(guest.llmStep())
        if not emissions or emissions[-1][2]:
            break
    # sequence finished: pages released, base declared charge intact
    assert world.monitor.charged_bytes(api_server) == declared
    stats = world.drive(guest.llmStats())
    assert stats["kv_pages_peak"] == 3
    assert stats["n_iterations"] == 8
    teardown_llm_guest(world, guest, api_server, rpc_server)


def test_storm_scenario_denies_pages_and_preempts():
    records, dep = serve("llm_chat_storm", "continuous", copies=2,
                                    burst_gap_s=0.15)
    assert all(rec.status == "completed" for rec in records)
    totals = {k: sum(rec.result[k] for rec in records)
              for k in ("n_kv_denials", "n_preemptions", "n_recomputes")}
    assert totals["n_kv_denials"] > 0
    assert totals["n_preemptions"] > 0
    assert totals["n_recomputes"] > 0
    # cache pressure was visible on the committed gauge (near/at capacity)
    peak = max(max(g.values) for g in dep.metrics.find("gpu.committed_frac")
               if g.values)
    assert peak > 0.95


def test_migration_moves_engine_under_cache_pressure():
    records, dep = serve(
        "llm_chat_long", "continuous", num_gpus=2, migration_enabled=True,
        policy="best_fit", copies=2, burst_gap_s=0.5,
    )
    assert all(rec.status == "completed" for rec in records)
    moves = [m for server in dep.gpu_servers
             for m in server.monitor.migration_records]
    assert len(moves) >= 1


# -- determinism goldens ------------------------------------------------------

def _crc_census(records):
    return sorted(
        (rec.result["emission_crc"], rec.result["n_tokens"]) for rec in records
    )


def test_llm_serve_rerun_is_bit_identical():
    first, _ = serve("llm_chat", "continuous")
    second, _ = serve("llm_chat", "continuous")
    assert _crc_census(first) == _crc_census(second)
    assert ([round(rec.t_end, 9) for rec in first]
            == [round(rec.t_end, 9) for rec in second])


def test_llm_token_counts_are_platform_seed_stable():
    # chat traces are drawn from the workload's fixed trace_seed, never
    # from the platform seed, so token counts cannot move with it
    a, _ = serve("llm_chat", "continuous", seed=0)
    b, _ = serve("llm_chat", "continuous", seed=1)
    assert (sorted(rec.result["n_tokens"] for rec in a)
            == sorted(rec.result["n_tokens"] for rec in b))


# -- shard-layout invariance --------------------------------------------------

def run_llm_sharded(num_shards, config=LLM_SHARD_CONFIG, **kw):
    return run_sharded(
        plan_scenario, num_shards=num_shards, total_groups=2, seed=0,
        scenario_args=(config, LLM_SHARD_RECIPE),
        collect=plan_collect, until=LLM_HORIZON_S, mode="inline", **kw,
    )


def test_llm_outcome_invariant_across_shard_layouts():
    solo = run_llm_sharded(1)
    split = run_llm_sharded(2)
    assert solo.merged == split.merged
    assert solo.merged_digest == split.merged_digest
    for row in solo.merged.values():
        assert row["n"] == row["outcomes"]["counts"]["completed"] == 2
        assert row["n_tokens"] > 0
        assert len(row["emission_crcs"]) == 2


def test_tracing_leaves_llm_outcome_unchanged_and_emits_token_instants():
    plain = run_llm_sharded(2)
    traced = run_llm_sharded(
        2, config=LLM_SHARD_CONFIG.with_(tracing_enabled=True), tracing=True,
    )
    assert traced.merged == plain.merged
    assert traced.merged_digest == plain.merged_digest
    assert traced.tracer is not None and traced.trace_digest != 0
    tokens = [rec for rec in traced.tracer.records if rec.name == "llm_token"]
    merged_tokens = sum(row["n_tokens"] for row in traced.merged.values())
    assert len(tokens) == merged_tokens  # one instant per emitted token
