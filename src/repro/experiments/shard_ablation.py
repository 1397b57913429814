"""Shard-count scale-out ablation (extension beyond the paper).

Runs the independent-GPU-pool workload
(:func:`repro.faas.topology.pool_scenario`) under the sharded runtime
(:func:`repro.sim.shard.run_sharded`) at shard counts 1/2/4/8, plus a
``sync`` variant whose cross-shard heartbeat envelopes exercise the
conservative epoch barriers.  :func:`sections` makes the three sections of
``BENCH_shard.json``:

* ``smoke`` — 50k invocations at every shard count.  The merged-outcome
  digests (``merged_crc``) and the 1-shard pool pop-order digest
  (``pop_crc``) are exact-gated: same seed, same merged outcome, on any
  machine and at any shard count.
* ``tracing`` — 20k invocations at 2 shards, each scenario run with
  tracing off then on.  The merged ``trace_digest``/``n_spans`` are
  exact-gated; the throughput ratio is recorded but never compared.  The
  shard count is pinned because the merged trace's track names carry
  shard prefixes: the outcome digest is shard-count-invariant, the trace
  digest deliberately is not.
* ``scaleout`` — ``copies`` × 100k invocations (``copies=0`` skips it).
  Events/sec scale with shard count only up to the machine's core count;
  with fewer cores than shards the workers timeslice and the ratio
  honestly degrades to ≈1×, so ``cpu_count`` rides in the file header.

Self-checks (each raises :class:`~repro.errors.SimulationError`):

* the merged-outcome digest is identical across every shard count of a
  scenario;
* the 1-shard pool run's ``(time, priority, eid)`` pop-order CRC equals a
  plain single-process run of the same world (epoch stepping adds no
  events and reorders nothing);
* tracing leaves the merged-outcome digest unchanged;
* on a machine with at least :data:`MIN_SCALEOUT_SHARDS` cores, the pool
  scenario at that many shards reaches :data:`MIN_SCALEOUT` × the
  1-shard events/sec (scaleout rows when run, else the smoke rows).

``python -m repro.experiments shard --seed 7 --copies 0 --out PATH``
regenerates the CI-sized sections; ``--copies 10`` is the committed
one-million-invocation refresh.
"""

from __future__ import annotations

import os

from repro.errors import SimulationError
from repro.faas.topology import pool_collect, pool_scenario
from repro.sim.shard import ShardSim, ShardSpec, pop_order_crc, run_sharded

__all__ = ["sections", "EXPERIMENT", "GATES"]

#: ``BENCH_shard.json``: experiment id and per-section gates.  Counts and
#: outcome/trace digests are exact; wall time and throughput are
#: machine-dependent and never compared.
EXPERIMENT = "shard_bench"
_EXACT = ["groups", "invocations", "n_events", "n_epochs", "n_envelopes",
          "merged_crc"]
_THROUGHPUT = ["wall_s", "events_per_sec", "scaleout"]
GATES = {
    "scaleout": {"key": ["scenario", "shards"], "exact": _EXACT,
                 "ignore": _THROUGHPUT},
    "smoke": {"key": ["scenario", "shards"], "exact": _EXACT + ["pop_crc"],
              "ignore": _THROUGHPUT},
    "tracing": {"key": ["scenario", "shards"],
                "exact": ["groups", "invocations", "n_events", "merged_crc",
                          "trace_digest", "n_spans", "n_envelopes"],
                "ignore": ["events_per_sec_ratio"]},
}

SHARD_COUNTS = (1, 2, 4, 8)
SCENARIOS = ("pool", "sync")
GROUPS = 8
SMOKE_INVOCATIONS = 50_000
TRACING_INVOCATIONS = 20_000
TRACING_SHARDS = 2
#: scaleout invocations per ``copies``
SCALEOUT_INVOCATIONS = 100_000
#: pool events/sec at MIN_SCALEOUT_SHARDS shards over 1 shard, enforced
#: only with at least that many cores
MIN_SCALEOUT = 1.2
MIN_SCALEOUT_SHARDS = 4

#: (mean_gap_s, service_mean_s, num_gpus) of the M/M/c pool per group
POOL_PARAMS = (0.05, 0.18, 4)
#: heartbeat period and lookahead of the ``sync`` scenario
SYNC_HEARTBEAT_S = 10.0
SYNC_LOOKAHEAD_S = 5.0


def _setup(scenario: str, invocations: int):
    """(scenario_args, lookahead_s) for one total-invocation budget."""
    per_group = invocations // GROUPS
    gap_s, service_s, gpus = POOL_PARAMS
    if scenario == "pool":
        return (per_group, gpus, gap_s, service_s, None, 0), None
    # senders heartbeat group 0 for the span of the arrival stream
    beats = max(1, int(per_group * gap_s / SYNC_HEARTBEAT_S))
    return ((per_group, gpus, gap_s, service_s, SYNC_HEARTBEAT_S, beats),
            SYNC_LOOKAHEAD_S)


def _ladder(scenario: str, invocations: int, seed: int,
            record_pop: bool) -> list[dict]:
    """One row per shard count; the merged digest must not move."""
    args, lookahead = _setup(scenario, invocations)
    rows = []
    for shards in SHARD_COUNTS:
        result = run_sharded(
            pool_scenario, num_shards=shards, total_groups=GROUPS,
            seed=seed, lookahead_s=lookahead, scenario_args=args,
            collect=pool_collect, mode="process",
            record_pop_trace=record_pop and shards == 1,
        )
        eps = result.events_processed / result.wall_s
        if shards == 1:
            base_eps = eps
        row = {
            "scenario": scenario,
            "shards": shards,
            "groups": GROUPS,
            "invocations": args[0] * GROUPS,
            "n_events": result.events_processed,
            "n_epochs": result.n_epochs,
            "n_envelopes": result.n_envelopes,
            "merged_crc": result.merged_digest,
            "wall_s": round(result.wall_s, 3),
            "events_per_sec": round(eps, 1),
            "scaleout": round(eps / base_eps, 3),
        }
        if record_pop and shards == 1:
            row["pop_crc"] = result.pop_crc
        rows.append(row)
    if len({row["merged_crc"] for row in rows}) != 1:
        raise SimulationError(
            f"{scenario} merged outcome differs across shard counts: "
            f"{ {row['shards']: hex(row['merged_crc']) for row in rows} }"
        )
    return rows


def _single_process_pop_crc(invocations: int, seed: int) -> int:
    """Pop-order CRC of the pool world run as one plain ``env.run()``."""
    args, _ = _setup("pool", invocations)
    sim = ShardSim(ShardSpec(
        shard_id=0, num_shards=1, groups=tuple(range(GROUPS)),
        total_groups=GROUPS, seed=seed, lookahead_s=float("inf"),
        scenario=pool_scenario, scenario_args=args, collect=pool_collect,
        record_pop_trace=True,
    ))
    sim.env.run()
    return pop_order_crc(sim.env._pop_trace)


def _tracing_row(scenario: str, seed: int) -> dict:
    """Tracing off vs on at :data:`TRACING_SHARDS` shards."""
    args, lookahead = _setup(scenario, TRACING_INVOCATIONS)
    common = dict(num_shards=TRACING_SHARDS, total_groups=GROUPS, seed=seed,
                  lookahead_s=lookahead, scenario_args=args,
                  collect=pool_collect, mode="process")
    base = run_sharded(pool_scenario, **common)
    traced = run_sharded(pool_scenario, tracing=True, **common)
    if traced.merged_digest != base.merged_digest:
        raise SimulationError(
            f"tracing perturbed the {scenario} run: merged outcome "
            f"{base.merged_digest:#x} -> {traced.merged_digest:#x}"
        )
    return {
        "scenario": scenario,
        "shards": TRACING_SHARDS,
        "groups": GROUPS,
        "invocations": args[0] * GROUPS,
        "n_events": traced.events_processed,
        "merged_crc": traced.merged_digest,
        "trace_digest": traced.trace_digest,
        "n_spans": len(traced.tracer.records),
        "n_envelopes": traced.n_envelopes,
        "events_per_sec_ratio": round(
            (traced.events_processed / traced.wall_s)
            / (base.events_processed / base.wall_s), 3),
    }


def sections(seed: int = 0, copies: int = 0) -> dict[str, list[dict]]:
    """``BENCH_shard.json``'s sections; ``copies=0`` skips ``scaleout``."""
    smoke = [row for scenario in SCENARIOS
             for row in _ladder(scenario, SMOKE_INVOCATIONS, seed, True)]
    sharded_crc = smoke[0]["pop_crc"]  # pool at 1 shard
    plain_crc = _single_process_pop_crc(SMOKE_INVOCATIONS, seed)
    if plain_crc != sharded_crc:
        raise SimulationError(
            f"1-shard pop order {sharded_crc:#x} differs from the "
            f"single-process run's {plain_crc:#x}"
        )
    out = {
        "smoke": smoke,
        "tracing": [_tracing_row(scenario, seed) for scenario in SCENARIOS],
    }
    if copies:
        out["scaleout"] = [
            row for scenario in SCENARIOS
            for row in _ladder(scenario, copies * SCALEOUT_INVOCATIONS, seed,
                               False)
        ]
    floor_rows = out.get("scaleout", smoke)
    top = next(row for row in floor_rows if row["scenario"] == "pool"
               and row["shards"] == MIN_SCALEOUT_SHARDS)
    if (os.cpu_count() or 1) >= MIN_SCALEOUT_SHARDS \
            and top["scaleout"] < MIN_SCALEOUT:
        raise SimulationError(
            f"pool at {MIN_SCALEOUT_SHARDS} shards runs {top['scaleout']:.2f}x "
            f"the 1-shard events/sec, below the {MIN_SCALEOUT}x floor"
        )
    return out
