"""Full-stack sharding tests (repro.faas.topology + repro.sim.shard).

Each group hosts a complete DgsfDeployment (servers, scheduler, API
backend); the shard layout must be an implementation detail — the merged
outcome summary has to be identical whether the groups share one
Environment or are split across shards.
"""

import pytest

from repro.core import DgsfConfig
from repro.errors import ConfigurationError
from repro.experiments import llm_ablation
from repro.faas.topology import (
    DEFAULT_LOOKAHEAD_S,
    DGSF_PLAN_START_S,
    plan_collect,
    plan_scenario,
    pool_collect,
    pool_scenario,
)
from repro.faas.workload_gen import draw_plan
from repro.sim.shard import run_sharded
from repro.workloads import ALL_WORKLOAD_NAMES
from tests.test_fault_recovery import chaos_config

DGSF_CONFIG = DgsfConfig(num_gpus=2)
DGSF_RECIPE = {"mode": "exponential", "names": ["kmeans", "face_identification"],
               "copies": 2, "mean_gap_s": 2.0}
LLM_RECIPE = {"mode": "burst", "names": ["llm_chat"], "copies": 2,
              "burst_gap_s": 3.0}
TRACED_CONFIG = DGSF_CONFIG.with_(tracing_enabled=True)
HORIZON_S = 4000.0


def run_dgsf(num_shards, seed=0, until=HORIZON_S, lookahead=None,
             config=DGSF_CONFIG, recipe=DGSF_RECIPE, collect=plan_collect,
             **kw):
    return run_sharded(
        plan_scenario, num_shards=num_shards, total_groups=2, seed=seed,
        scenario_args=(config, recipe), collect=collect,
        until=until, lookahead_s=lookahead, mode="inline", **kw,
    )


def test_dgsf_outcome_invariant_across_shard_layouts():
    """Co-resident (1 shard) vs one-deployment-per-shard (2 shards)."""
    solo = run_dgsf(1)
    split = run_dgsf(2)
    assert solo.merged == split.merged
    assert solo.merged_digest == split.merged_digest
    for row in solo.merged.values():
        assert row["outcomes"]["total"] == row["n"] >= 1
        assert row["outcomes"]["all_terminal"]


def test_dgsf_merged_outcome_is_seed_stable():
    # Repeated runs of one seed are digest-identical.  (Each group's plan
    # is drawn from its seeded streams and launched on its planned
    # times, so another seed gives another outcome:
    # test_dgsf_seeds_give_different_merged_digests.)
    assert run_dgsf(2).merged_digest == run_dgsf(2).merged_digest


def test_dgsf_seeds_give_different_merged_digests():
    assert run_dgsf(1, seed=0).merged_digest != run_dgsf(1, seed=1).merged_digest


def _with_planned(recipe):
    """plan_collect plus each group's plan, drawn afresh from its streams."""
    def collect(ctx):
        rows = plan_collect(ctx)
        for g in ctx.groups:
            rows[g]["planned"] = list(draw_plan(ctx.group_rngs(g), **recipe))
        return rows
    return collect


def _assert_on_planned_times(result):
    # the bench's "every arrival on its planned time" check, per group
    for row in result.merged.values():
        assert len(row["timeline"]) == len(row["planned"]) >= 2
        for (name, _, t_submit, _), (t, planned) in zip(row["timeline"],
                                                       row["planned"]):
            assert name == planned
            assert abs(t_submit - (DGSF_PLAN_START_S + t)) <= 1e-6


def test_dgsf_groups_launch_on_planned_times():
    result = run_dgsf(2, collect=_with_planned(DGSF_RECIPE))
    _assert_on_planned_times(result)


def test_llm_groups_launch_bursts_on_planned_times():
    result = run_dgsf(
        2, config=llm_ablation.config(tracing_enabled=False),
        recipe=LLM_RECIPE, collect=_with_planned(LLM_RECIPE), until=400.0,
    )
    _assert_on_planned_times(result)


def test_dgsf_collect_raises_when_horizon_truncates_plan():
    # The plan starts at DGSF_PLAN_START_S; a horizon before any
    # invocation can complete must fail loudly, not report partial data.
    with pytest.raises(ConfigurationError):
        run_dgsf(1, until=DGSF_PLAN_START_S + 0.5)


# the SLO alerts the faults fire are harvested only by traced runs
@pytest.mark.filterwarnings("ignore:.*SLO alert")
def test_chaos_config_runs_sharded_with_failures_recorded():
    """A fault plan, sharing(2) and RPC timeouts and retries reach every
    group, a failed invocation is recorded rather than raised, and the
    merged outcome still does not depend on the shard layout."""
    recipe = {"mode": "exponential", "names": ALL_WORKLOAD_NAMES, "copies": 1}
    solo = run_dgsf(1, seed=7, config=chaos_config(7), recipe=recipe,
                    until=DGSF_PLAN_START_S + 1800.0)
    split = run_dgsf(2, seed=7, config=chaos_config(7), recipe=recipe,
                     until=DGSF_PLAN_START_S + 1800.0)
    assert solo.merged == split.merged
    assert solo.merged_digest == split.merged_digest
    counts = [row["outcomes"]["counts"] for row in solo.merged.values()]
    for row in solo.merged.values():
        assert row["outcomes"]["all_terminal"]
        assert row["outcomes"]["total"] == row["n"] == len(ALL_WORKLOAD_NAMES)
    assert sum(c.get("failed", 0) for c in counts) >= 1
    assert sum(c.get("completed", 0) for c in counts) >= 1


def test_pool_collect_raises_on_incomplete_invocations():
    # Cut the run off mid-stream: invocations are still in flight.
    with pytest.raises(ConfigurationError):
        run_sharded(
            pool_scenario, num_shards=1, total_groups=2, seed=7,
            scenario_args=(500, 2, 0.05, 0.18, None, 0),
            collect=pool_collect, until=1.0, mode="inline",
        )


def test_traced_dgsf_stitches_cross_shard_report():
    """The acceptance bar: a control-plane envelope carrying trace context
    joins spans from both shards into one trace tree in the merged trace."""
    r = run_dgsf(2, config=TRACED_CONFIG, lookahead=DEFAULT_LOOKAHEAD_S,
                 tracing=True)
    assert r.tracer is not None and r.trace_digest != 0
    assert r.n_envelopes >= 1
    assert isinstance(r.alerts, list)
    reports = [rec for rec in r.tracer.records
               if rec.name == "envelope:send"
               and rec.args.get("channel") == "report"]
    assert len(reports) == 1
    stitch_trace = reports[0].trace_id
    trace_spans = [rec for rec in r.tracer.records
                   if rec.trace_id == stitch_trace]
    tracks = {rec.pid.split("/", 1)[0] for rec in trace_spans}
    assert {"shard0", "shard1"} <= tracks  # the tree really crosses shards
    cats = {rec.cat for rec in trace_spans}
    assert "invocation" in cats           # rooted at a real invocation
    names = {rec.name for rec in trace_spans}
    assert "envelope:recv" in names       # delivered on the far shard


def test_tracing_leaves_dgsf_outcome_unchanged():
    plain = run_dgsf(2, lookahead=DEFAULT_LOOKAHEAD_S)
    traced = run_dgsf(2, config=TRACED_CONFIG, lookahead=DEFAULT_LOOKAHEAD_S,
                      tracing=True)
    assert traced.merged == plain.merged
    assert traced.merged_digest == plain.merged_digest
    assert traced.n_epochs == plain.n_epochs
    assert traced.n_envelopes == plain.n_envelopes


def test_pool_latencies_are_aggregated_in_invocation_order():
    r = run_sharded(
        pool_scenario, num_shards=2, total_groups=2, seed=7,
        scenario_args=(100, 2, 0.05, 0.18, None, 0),
        collect=pool_collect, mode="inline",
    )
    for row in r.merged.values():
        assert row["n"] == 100
        assert 0.0 < row["p50_ms"] <= row["p95_ms"] <= row["max_ms"]
