"""Tests for the sharded simulation runtime (repro.sim.shard).

Covers the ISSUE-7 correctness bar: shards=1 epoch-stepping is pop-order
bit-identical to a plain single-process run; merged outcomes are
seed-stable and shard-count-invariant; and the conservative epoch
barrier handles its edge cases (boundary-timestamped envelopes,
empty-epoch fast-forward, shards with zero arrivals).

Scenario callables used by spawn-based tests live at module level so the
worker processes can re-import them by reference.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faas.topology import pool_collect, pool_scenario
from repro.sim.shard import (
    ShardSim,
    ShardSpec,
    assign_groups,
    pop_order_crc,
    run_sharded,
)
from repro.simnet.envelope import (
    Envelope,
    GroupPort,
    WIRE_VERSION,
    decode_envelope,
    encode_envelope,
    normalize_payload,
)

POOL_ARGS = (120, 2, 0.05, 0.18, None, 0)          # no cross-group traffic
SYNC_ARGS = (120, 2, 0.05, 0.18, 0.5, 6)           # heartbeats to group 0
LOOKAHEAD = 2e-3


def sharded(num_shards, scenario=pool_scenario, args=POOL_ARGS, seed=7,
            lookahead=None, **kw):
    return run_sharded(
        scenario, num_shards=num_shards, total_groups=4, seed=seed,
        lookahead_s=lookahead, scenario_args=args, collect=pool_collect,
        mode=kw.pop("mode", "inline"), **kw,
    )


# --- group assignment --------------------------------------------------------

def test_assign_groups_round_robin():
    assert assign_groups(5, 2) == [(0, 2, 4), (1, 3)]
    assert assign_groups(3, 3) == [(0,), (1,), (2,)]
    assert assign_groups(4, 1) == [(0, 1, 2, 3)]


@pytest.mark.parametrize("groups,shards", [(0, 1), (4, 0), (2, 3)])
def test_assign_groups_rejects_bad_shapes(groups, shards):
    with pytest.raises(ConfigurationError):
        assign_groups(groups, shards)


# --- envelope codec ----------------------------------------------------------

def test_envelope_round_trips_through_wire_form():
    env = Envelope(src=1, dst=0, channel="hb", send_time=1.5,
                   deliver_time=1.502, seq=3, payload={"k": [1, 2]})
    wire = encode_envelope(env)
    assert wire[0] == WIRE_VERSION
    assert decode_envelope(wire) == env


def test_envelope_rejects_unknown_wire_version():
    wire = (WIRE_VERSION + 1, 1, 0, "hb", 0.0, 0.1, 1, None)
    with pytest.raises(ConfigurationError):
        decode_envelope(wire)


def test_envelope_trace_ctx_rides_the_v2_wire():
    env = Envelope(src=1, dst=0, channel="report", send_time=1.5,
                   deliver_time=1.502, seq=3, payload=None,
                   trace_ctx=(42, 9000))
    wire = encode_envelope(env)
    assert wire[0] == WIRE_VERSION == 2
    assert len(wire) == 9
    decoded = decode_envelope(wire)
    assert decoded.trace_ctx == (42, 9000)
    assert decoded == env
    # a pickled-then-json'd wire turns the tuple into a list; decode
    # must canonicalize it back so frozen-dataclass equality holds
    as_list = wire[:8] + ([42, 9000],)
    assert decode_envelope(as_list).trace_ctx == (42, 9000)


def test_envelope_wire_field_count_must_match_version():
    with pytest.raises(ConfigurationError, match="unknown envelope wire version 1"):
        decode_envelope((1, 1, 0, "hb", 0.0, 0.1, 1, None))        # v1 form
    with pytest.raises(ConfigurationError, match="bad envelope wire form"):
        decode_envelope((2, 1, 0, "hb", 0.0, 0.1, 1, None))        # v2 w/ 8


def test_envelope_sort_key_ignores_trace_ctx():
    bare = Envelope(src=1, dst=0, channel="c", send_time=0.0,
                    deliver_time=1.0, seq=4, payload=None)
    traced = Envelope(src=1, dst=0, channel="c", send_time=0.0,
                      deliver_time=1.0, seq=4, payload=None,
                      trace_ctx=(99, 1))
    assert bare.sort_key() == traced.sort_key()


def test_normalize_payload_canonicalizes_tuples_and_rejects_objects():
    assert normalize_payload((1, (2, 3))) == [1, [2, 3]]
    assert normalize_payload({"a": (1,)}) == {"a": [1]}
    with pytest.raises(ConfigurationError):
        normalize_payload({1: "non-string key"})
    with pytest.raises(ConfigurationError):
        normalize_payload(object())


def test_envelope_sort_key_is_layout_canonical():
    early = Envelope(src=2, dst=0, channel="c", send_time=0.0,
                     deliver_time=1.0, seq=9, payload=None)
    tie_lower_src = Envelope(src=1, dst=0, channel="c", send_time=0.5,
                             deliver_time=2.0, seq=5, payload=None)
    tie_higher_src = Envelope(src=3, dst=0, channel="c", send_time=0.5,
                              deliver_time=2.0, seq=1, payload=None)
    ordered = sorted([tie_higher_src, tie_lower_src, early],
                     key=Envelope.sort_key)
    assert ordered == [early, tie_lower_src, tie_higher_src]


def test_port_send_enforces_lookahead_bound():
    from repro.sim.core import Environment

    port = GroupPort(Environment(), group_id=1, lookahead_s=0.1)
    with pytest.raises(ConfigurationError):
        port.send(0, "c", None, delay_s=0.05)   # faster than the lookahead
    with pytest.raises(ConfigurationError):
        port.send(0, "c", None, delay_s=float("inf"))
    envelope = port.send(0, "c", None)          # defaults to the lookahead
    assert envelope.deliver_time == pytest.approx(0.1)
    assert len(port.drain_outbox()) == 1
    assert port.drain_outbox() == []            # drained


def test_port_rejects_past_due_delivery():
    from repro.sim.core import Environment

    env = Environment()
    env.run(until=5.0)
    port = GroupPort(env, group_id=0, lookahead_s=0.1)
    stale = Envelope(src=1, dst=0, channel="c", send_time=1.0,
                     deliver_time=2.0, seq=1, payload=None)
    with pytest.raises(ConfigurationError):
        port.deliver(stale)


# --- shards=1 bit-identity ---------------------------------------------------

def _plain_run_crc(args=POOL_ARGS, lookahead=float("inf"), seed=7):
    spec = ShardSpec(
        shard_id=0, num_shards=1, groups=(0, 1, 2, 3), total_groups=4,
        seed=seed, lookahead_s=lookahead, scenario=pool_scenario,
        scenario_args=args, collect=pool_collect, record_pop_trace=True,
    )
    sim = ShardSim(spec)
    sim.env.run()
    return pop_order_crc(sim.env._pop_trace), len(sim.env._pop_trace)


def test_single_shard_epoch_stepping_is_bit_identical():
    """The acceptance bar: epoch-stepped run(until=T) windows process the
    exact pop sequence of one env.run(), across ~hundreds of barriers."""
    plain_crc, plain_n = _plain_run_crc(lookahead=LOOKAHEAD)
    stepped = sharded(1, lookahead=LOOKAHEAD, record_pop_trace=True)
    assert stepped.n_epochs > 50          # the barrier actually sliced it
    assert stepped.shards[0]["pop_n"] == plain_n
    assert stepped.pop_crc == plain_crc


def test_single_shard_infinite_lookahead_single_epoch():
    plain_crc, _ = _plain_run_crc()
    r = sharded(1, record_pop_trace=True)
    assert r.n_epochs == 1
    assert r.pop_crc == plain_crc


# --- shard-count invariance --------------------------------------------------

def test_merged_outcome_invariant_across_shard_counts():
    results = {s: sharded(s) for s in (1, 2, 4)}
    digests = {s: r.merged_digest for s, r in results.items()}
    assert len(set(digests.values())) == 1, digests
    assert results[1].merged == results[4].merged
    assert sorted(results[2].merged) == [0, 1, 2, 3]


def test_merged_outcome_invariant_with_cross_shard_traffic():
    results = {s: sharded(s, args=SYNC_ARGS, lookahead=LOOKAHEAD)
               for s in (1, 2, 4)}
    assert len({r.merged_digest for r in results.values()}) == 1
    # 3 sender groups x 6 beats all arrive at group 0, on every layout
    for r in results.values():
        assert r.merged[0]["hb_received"] == 18
        assert r.merged[0]["hb_groups"] == [1, 2, 3]
    # with >1 shard the heartbeats really crossed shard boundaries
    assert results[4].n_envelopes == 18


def test_same_seed_same_digest_different_seed_differs():
    assert sharded(2).merged_digest == sharded(2).merged_digest
    assert sharded(2, seed=8).merged_digest != sharded(2).merged_digest


def test_process_mode_matches_inline_mode():
    inline = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD)
    procs = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD, mode="process")
    assert procs.mode == "process"
    assert procs.merged == inline.merged
    assert procs.merged_digest == inline.merged_digest
    assert procs.events_processed == inline.events_processed
    assert procs.n_epochs == inline.n_epochs
    assert procs.n_envelopes == inline.n_envelopes


# --- epoch-barrier edge cases ------------------------------------------------

def boundary_send_scenario(ctx):
    """Group 1 sends at the exact global-candidate time, so the envelope's
    deliver_time lands exactly on the epoch boundary (candidate + L)."""
    env = ctx.env

    def sender():
        yield env.timeout(1.0)  # the only event anywhere: candidate = 1.0
        ctx.port(1).send(0, "edge", {"sent_at": env.now})

    def receiver():
        envelope = yield ctx.port(0).recv("edge")
        ctx.state["recv_t"] = env.now
        ctx.state["payload"] = envelope.payload

    if 1 in ctx.groups:
        env.process(sender())
    if 0 in ctx.groups:
        ctx.state.setdefault("recv_t", None)
        env.process(receiver())


def boundary_collect(ctx):
    rows = {}
    for g in ctx.groups:
        rows[g] = ({"recv_t": ctx.state.get("recv_t"),
                    "payload": ctx.state.get("payload")}
                   if g == 0 else {})
    return rows


@pytest.mark.parametrize("num_shards", [1, 2])
def test_envelope_on_exact_epoch_boundary_delivered_on_time(num_shards):
    r = run_sharded(
        boundary_send_scenario, num_shards=num_shards, total_groups=2,
        seed=0, lookahead_s=0.5, collect=boundary_collect, mode="inline",
    )
    # sent at t=1.0, lookahead 0.5, epoch end = candidate(1.0) + 0.5 = 1.5:
    # deliver_time sits exactly on the barrier and must arrive at 1.5 sharp
    assert r.merged[0]["recv_t"] == pytest.approx(1.5)
    assert r.merged[0]["payload"] == {"sent_at": 1.0}
    assert r.n_envelopes == 1


def sparse_scenario(ctx):
    """Events 1000s of simulated time apart: epochs must fast-forward."""
    env = ctx.env

    def worker(g):
        for _ in range(3):
            yield env.timeout(1000.0)
        ctx.state[g] = {"done_at": env.now}

    for g in ctx.groups:
        env.process(worker(g))


def sparse_collect(ctx):
    return {g: ctx.state[g] for g in ctx.groups}


def test_empty_epochs_fast_forward_instead_of_stepping():
    r = run_sharded(
        sparse_scenario, num_shards=2, total_groups=2, seed=0,
        lookahead_s=1.0, collect=sparse_collect, mode="inline",
    )
    # Naive lookahead-sized windows would need ~3000 epochs; choosing the
    # global candidate as the window base skips the dead time entirely.
    assert r.n_epochs <= 4
    assert r.merged[0]["done_at"] == pytest.approx(3000.0)
    # and the skips show up in the sync telemetry
    assert r.sync["fast_forwards"] >= 1
    assert r.metrics.total("shard.fast_forwards") == r.sync["fast_forwards"]


def zero_arrival_scenario(ctx, active_groups):
    env = ctx.env

    def worker(g):
        yield env.timeout(1.0)
        ctx.state[g] = {"n": 1, "at": env.now}

    for g in ctx.groups:
        ctx.state[g] = {"n": 0, "at": None}
        if g in active_groups:
            env.process(worker(g))


def zero_arrival_collect(ctx):
    return {g: ctx.state[g] for g in ctx.groups}


def test_shard_with_zero_arrivals_terminates_cleanly():
    # groups 1 and 2 are silent; shard 1 of 2 (groups {1, 3}) is half idle
    r = run_sharded(
        zero_arrival_scenario, num_shards=2, total_groups=4, seed=0,
        lookahead_s=0.5, scenario_args=((0, 3),),
        collect=zero_arrival_collect, mode="inline",
    )
    assert r.merged[0] == {"n": 1, "at": 1.0}
    assert r.merged[1] == {"n": 0, "at": None}
    assert r.merged[3] == {"n": 1, "at": 1.0}
    # a fully silent deployment also terminates (no events at all)
    empty = run_sharded(
        zero_arrival_scenario, num_shards=2, total_groups=4, seed=0,
        lookahead_s=0.5, scenario_args=((),),
        collect=zero_arrival_collect, mode="inline",
    )
    assert empty.n_epochs == 0
    assert all(row == {"n": 0, "at": None} for row in empty.merged.values())


# --- runtime validation ------------------------------------------------------

def test_run_sharded_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        sharded(2, lookahead=0.0)
    with pytest.raises(ConfigurationError):
        run_sharded(pool_scenario, num_shards=1, total_groups=1,
                    scenario_args=POOL_ARGS, mode="warp-drive")


def test_context_rejects_foreign_group_port():
    spec = ShardSpec(shard_id=0, num_shards=2, groups=(0, 2),
                     total_groups=4, seed=0, lookahead_s=1.0,
                     scenario=lambda ctx: None)
    sim = ShardSim(spec)
    with pytest.raises(ConfigurationError):
        sim.ctx.port(1)


def crashing_scenario(ctx):
    raise RuntimeError("boom at build time")


def test_worker_build_failure_propagates():
    with pytest.raises((SimulationError, RuntimeError)):
        run_sharded(crashing_scenario, num_shards=2, total_groups=2,
                    seed=0, mode="process")


def until_scenario(ctx):
    env = ctx.env

    def forever(g):
        n = 0
        while True:
            yield env.timeout(1.0)
            n += 1
            ctx.state[g] = {"ticks": n}

    for g in ctx.groups:
        ctx.state[g] = {"ticks": 0}
        env.process(forever(g))


def until_collect(ctx):
    return {g: ctx.state[g] for g in ctx.groups}


def test_until_bounds_runs_with_forever_loops():
    r = run_sharded(until_scenario, num_shards=2, total_groups=2, seed=0,
                    lookahead_s=0.25, collect=until_collect,
                    until=10.0, mode="inline")
    assert r.merged[0]["ticks"] == 10
    assert r.merged[1]["ticks"] == 10


def test_metrics_merge_across_shards():
    from repro.faas.topology import pool_metrics_collect

    r = run_sharded(
        pool_scenario, num_shards=2, total_groups=4, seed=7,
        scenario_args=POOL_ARGS, collect=pool_collect,
        metrics_collect=pool_metrics_collect, mode="inline",
    )
    assert r.metrics.total("shard.invocations_completed") == 4 * POOL_ARGS[0]
    (hist,) = r.metrics.find("shard.invocation_latency_s")
    assert hist.count == 4 * POOL_ARGS[0]


# --- sync-layer telemetry ----------------------------------------------------

def test_sync_telemetry_accounts_for_epochs_and_envelopes():
    r = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD)
    sync = r.sync
    assert sync["n_epochs"] == r.n_epochs > 0
    assert sync["n_envelopes"] == r.n_envelopes == 18
    assert sync["envelopes_sent"] == sync["envelopes_received"] == 18
    assert sync["envelope_bytes"] > 0
    assert sync["load_imbalance"] >= 1.0
    assert sync["fast_forwards"] >= 0
    assert sync["diagnostics"] == []
    # per-shard rows account for every event the run processed
    assert [row["shard_id"] for row in sync["per_shard"]] == [0, 1]
    assert sum(row["events"] for row in sync["per_shard"]) == r.events_processed
    for row in sync["per_shard"]:
        assert row["epochs_run"] == r.n_epochs
        assert row["barrier_stall_wall_s"] >= 0.0
    # the epoch log keeps one row per epoch (under the cap), each carrying
    # per-shard event/wall vectors
    assert len(sync["epoch_log"]) == min(r.n_epochs, 4096)
    assert sync["epoch_log_dropped"] == max(0, r.n_epochs - 4096)
    first = sync["epoch_log"][0]
    assert len(first["events"]) == 2 and len(first["wall_s"]) == 2
    assert first["t_end"] > first["candidate"]
    # and the deterministic slice lands in the metrics registry
    assert r.metrics.total("shard.epochs") == r.n_epochs
    assert r.metrics.total("shard.envelopes_sent") == 18
    assert r.metrics.total("shard.envelopes_received") == 18
    assert r.metrics.total("shard.events") == r.events_processed
    assert r.metrics.total("shard.events", shard=0) > 0
    (gauge,) = r.metrics.find("shard.load_imbalance")
    assert gauge.values[-1] == pytest.approx(sync["load_imbalance"])


def test_sync_telemetry_is_deterministic_where_promised():
    a = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD)
    b = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD, mode="process")
    for key in ("n_epochs", "fast_forwards", "n_envelopes", "envelope_bytes",
                "envelopes_sent", "envelopes_received", "load_imbalance"):
        assert a.sync[key] == b.sync[key], key
    assert [row["events"] for row in a.sync["epoch_log"]] == \
        [row["events"] for row in b.sync["epoch_log"]]


# --- distributed tracing -----------------------------------------------------

def test_tracing_is_pure_bookkeeping_bit_identity():
    """Acceptance bar: shards=1 with tracing pops the exact sequence of a
    plain untraced env.run() and reaches the same merged outcome."""
    plain_crc, plain_n = _plain_run_crc(lookahead=LOOKAHEAD)
    untraced = sharded(1, lookahead=LOOKAHEAD, record_pop_trace=True)
    traced = sharded(1, lookahead=LOOKAHEAD, record_pop_trace=True,
                     tracing=True)
    assert traced.pop_crc == untraced.pop_crc == plain_crc
    assert traced.shards[0]["pop_n"] == plain_n
    assert traced.merged_digest == untraced.merged_digest
    assert untraced.tracer is None and untraced.trace_digest == 0
    assert traced.tracer is not None and traced.trace_digest != 0
    assert len(traced.tracer.records) > 0


def test_single_shard_trace_digest_matches_unsharded_tracer():
    spec = ShardSpec(
        shard_id=0, num_shards=1, groups=(0, 1, 2, 3), total_groups=4,
        seed=7, lookahead_s=LOOKAHEAD, scenario=pool_scenario,
        scenario_args=POOL_ARGS, collect=pool_collect, tracing=True,
    )
    sim = ShardSim(spec)
    sim.env.run()
    r = sharded(1, lookahead=LOOKAHEAD, tracing=True)
    # the merge renumbers span ids, but the canonical digest is invariant
    assert r.trace_digest == sim.ctx.tracer.digest()


def test_trace_merge_is_mode_invariant_and_tracks_are_per_shard():
    inline = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD, tracing=True)
    procs = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD, tracing=True,
                    mode="process")
    assert inline.trace_digest == procs.trace_digest != 0
    assert len(inline.tracer.records) == len(procs.tracer.records)
    assert inline.merged_digest == procs.merged_digest
    # every shard owns a distinct track prefix in the merged timeline
    prefixes = {rec.pid.split("/", 1)[0] for rec in procs.tracer.records}
    assert {"shard0", "shard1"} <= prefixes
    # cross-shard heartbeats left flight spans + delivery instants
    names = {rec.name for rec in procs.tracer.records}
    assert "envelope:send" in names and "envelope:recv" in names


def test_tracing_does_not_change_merged_outcome_across_counts():
    untraced = sharded(2, args=SYNC_ARGS, lookahead=LOOKAHEAD).merged_digest
    for s in (1, 2, 4):
        traced = sharded(s, args=SYNC_ARGS, lookahead=LOOKAHEAD, tracing=True)
        assert traced.merged_digest == untraced, s


def foreign_tracer_scenario(ctx):
    """A scenario that builds its own tracer instead of using ctx.tracer —
    the spans can never leave the worker, which must be loud."""
    from repro.obs import Tracer

    tracer = Tracer(ctx.env, max_spans=64)
    ctx.note_tracer(tracer)

    def worker():
        span = tracer.begin("orphan", cat="invocation",
                            trace_id=tracer.new_trace_id())
        yield ctx.env.timeout(1.0)
        span.end()

    ctx.env.process(worker())


def foreign_collect(ctx):
    return {g: {} for g in ctx.groups}


def test_foreign_tracer_loss_is_loud_not_silent():
    with pytest.warns(RuntimeWarning, match="stayed behind"):
        r = run_sharded(
            foreign_tracer_scenario, num_shards=2, total_groups=2,
            seed=0, lookahead_s=1.0, collect=foreign_collect, mode="inline",
        )
    assert any("stayed behind" in d for d in r.sync["diagnostics"])
    # the same run with tracing=True has nothing to warn about: the
    # scenario is handed the shard tracer and notes it as non-foreign
    import warnings as _warnings

    def shared_tracer_scenario(ctx):
        ctx.note_tracer(ctx.tracer)

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        clean = run_sharded(
            shared_tracer_scenario, num_shards=1, total_groups=1,
            seed=0, collect=foreign_collect, mode="inline", tracing=True,
        )
    assert clean.sync["diagnostics"] == []
