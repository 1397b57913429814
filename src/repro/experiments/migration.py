"""§VIII-E migration: Fig. 8, Table V and two migration ablations from one
set of runs.

* ``fig8``, the case study: 2 GPUs; two NLP and two image-classification
  functions, all submitted at t = 0.  The image classifications download
  more data, so the NLP pair asks for GPUs first.  Four configurations
  (:data:`SCENARIOS`):

  - no sharing: one NLP per GPU; both image classifications queue
    (paper: 43.6 s total);
  - sharing(2) worst-fit: each GPU gets one NLP and one image
    classification (best case; paper: 38.9 s);
  - sharing(2) best-fit: both NLPs packed on one GPU; the image
    classifications serialize on the other, which idles at the end
    (worst case; paper: 50.6 s);
  - best-fit + migration: the monitor notices the idle GPU and moves one
    NLP over (paper: 42.6 s, a 16% improvement).

  Each is one 4-entry plan through
  :func:`~repro.experiments.runner.run_scenario` with NVML sampling.
  Total time is the last ``t_end`` minus the first ``t_submit``.  Fig.
  8b's tail utilization is the mean moving-average utilization of the
  idler and the busier GPU over the samples past 70% of the last
  sample's time (sampling starts with the plan, after bring-up, so that
  is about the last third of the run).
* ``confirm_window``: best-fit + migration with the monitor confirming
  an imbalance over 2, 4 or 16 checks 0.5 s apart (§V-D), against
  migration off.  Too small a window risks reacting to transient
  idleness; too large a one misses the recovery window.  ``off`` and 4
  checks (the default) are Fig. 8's two best-fit runs, so only 2 and 16
  simulate again.
* ``table5``, the microbenchmark: "an application that allocates an
  array and launches 2 kernels that touch all elements" for the
  workloads' footprints, 323 / 3514 / 7802 / 13194 MB.  Native runs on a
  bare local GPU session and is dominated by the 3.2 s CUDA init; DGSF
  attaches a guest to a pre-created API server, so it takes
  milliseconds; DGSF + migration forces one migration between the two
  kernels, whose duration grows with the array.
* ``strategies``: Table I's three migration strategies on a 3514 MB
  array with 2 s of compute before and after the move.  Checkpoint/
  restore crosses PCIe twice; peer access moves almost nothing but
  leaves the array on the source GPU and slows every later kernel; DGSF
  moves once over D2D and frees the source.

The simulation is deterministic per seed, so each configuration runs
once.  :func:`sections` ends with :func:`check`, which raises
:class:`SimulationError` naming the first claim of these results that
the rows break.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DgsfConfig
from repro.core.deployment import NativeGpuSession
from repro.core.migration import migrate_api_server
from repro.core.migration_strategies import MIGRATION_STRATEGIES
from repro.errors import SimulationError
from repro.experiments.runner import run_scenario
from repro.faas.workload_gen import ArrivalPlan
from repro.sim.core import Environment
from repro.simcuda.device import SimGPU
from repro.simcuda.nvml import moving_average
from repro.simcuda.types import GB, MB
from repro.testing import make_world
from repro.workloads.synthetic import synthetic_migration_workload

__all__ = ["sections", "check", "scenario", "native_s", "SCENARIOS",
           "EXPERIMENT", "GATES"]

#: ``BENCH_migration.json``: experiment id and its gates (migration
#: counts, moved bytes, bytes left on the source GPU and the post-move
#: penalty exact; seconds and utilization banded)
EXPERIMENT = "migration"
GATES = {
    "fig8": {"key": ["scenario"], "exact": ["migrations", "moved_bytes"],
             "ignore": []},
    "confirm_window": {"key": ["confirm_checks"],
                       "exact": ["migrations", "moved_bytes"], "ignore": []},
    "table5": {"key": ["array_mb"], "exact": [], "ignore": []},
    "strategies": {"key": ["strategy"],
                   "exact": ["source_mb_still_held", "post_penalty"],
                   "ignore": []},
}

#: Fig. 8's plan: every function submitted at t = 0, the NLP pair first
PLAN = ArrivalPlan(tuple((0.0, name) for name in (
    "nlp_qa", "nlp_qa", "image_classification", "image_classification")))
#: Fig. 8's configurations on 2 GPUs
SCENARIOS = {
    "no_sharing": dict(api_servers_per_gpu=1, policy="best_fit",
                       migration_enabled=False),
    "sharing2_worst_fit": dict(api_servers_per_gpu=2, policy="worst_fit",
                               migration_enabled=False),
    "sharing2_best_fit": dict(api_servers_per_gpu=2, policy="best_fit",
                              migration_enabled=False),
    "sharing2_best_fit_migration": dict(api_servers_per_gpu=2,
                                        policy="best_fit",
                                        migration_enabled=True),
}
#: the confirmation windows swept; the monitor's default is Fig. 8's
CONFIRM_CHECKS = (2, 4, 16)
DEFAULT_CHECKS = DgsfConfig().migration_confirm_checks
#: Fig. 8b's moving-average window, in NVML samples
UTIL_WINDOW = 5
#: Fig. 8b's tail: samples past this fraction of the last sample's time
TAIL_FROM = 0.7
#: Table V's array sizes (the workloads' memory footprints)
ARRAY_SIZES_MB = (323, 3514, 7802, 13194)
#: the strategies' array (face identification's footprint, a Table V row)
#: and the compute before and after the move (exposes peer access's
#: post-move penalty)
STRATEGY_ARRAY_MB = 3514
STRATEGY_KERNEL_S = 2.0


def scenario(label: str, seed: int = 0, **overrides):
    """One Fig. 8 configuration's run, NVML sampled; ``overrides`` are
    further :class:`DgsfConfig` fields."""
    config = DgsfConfig(num_gpus=2, seed=seed, **SCENARIOS[label],
                        **overrides)
    return run_scenario(config, PLAN, sample_utilization=True
                        ).require_completed()


def _tail_utilization(nvml) -> tuple[float, float]:
    """Fig. 8b: mean smoothed utilization of the idler and the busier GPU
    over the run's tail."""
    t, gpu0 = nvml.series(0)
    gpu1 = moving_average(nvml.series(1)[1], UTIL_WINDOW)
    gpu0 = moving_average(gpu0, UTIL_WINDOW)
    tail = t > t.max() * TAIL_FROM
    return (float(np.minimum(gpu0, gpu1)[tail].mean()),
            float(np.maximum(gpu0, gpu1)[tail].mean()))


def _plan_row(result, **labels) -> dict:
    """A Fig. 8 or confirmation-window row read from one run's records."""
    records = result.invocations
    migrations = result.deployment.gpu_server.monitor.migration_records
    total = max(inv.t_end for inv in records) - records[0].t_submit
    return {
        **labels,
        "total_s": round(total, 1),
        "fn_e2e_sum_s": round(result.stats.function_e2e_sum_s, 1),
        "migrations": len(migrations),
        "moved_bytes": sum(record.moved_bytes for record in migrations),
    }


def native_s(array_mb: int) -> float:
    """Table V's native column: the microbenchmark on a bare local GPU
    session, which pays the CUDA init on its first call."""
    env = Environment()
    session = NativeGpuSession(env, SimGPU(env, 0))
    env.run(until=env.process(
        synthetic_migration_workload(env, session, array_mb * MB)))
    return env.now


def _dgsf_s(array_mb: int, migrate: bool, seed: int) -> tuple[float, float]:
    """Table V's DGSF columns: ``(end_to_end_s, migration_s)``, timed from
    before the guest attaches to a pre-created API server."""
    world = make_world(DgsfConfig(num_gpus=2, seed=seed))
    env = world.env
    t0 = env.now
    guest, server, _ = world.attach_guest(declared_bytes=14_000 * MB,
                                          kernel_names=["increment"])
    moves = []

    def migrate_between():
        moves.append((yield env.process(migrate_api_server(server, 1))))

    world.drive(synthetic_migration_workload(
        env, guest, array_mb * MB,
        between_kernels=migrate_between if migrate else None))
    return env.now - t0, moves[0].duration_s if moves else 0.0


def _table5_row(array_mb: int, seed: int) -> dict:
    dgsf, _ = _dgsf_s(array_mb, False, seed)
    dgsf_migration, migration = _dgsf_s(array_mb, True, seed)
    return {
        "array_mb": array_mb,
        "native_s": round(native_s(array_mb), 3),
        "dgsf_s": round(dgsf, 3),
        "dgsf_migration_e2e_s": round(dgsf_migration, 3),
        "migration_s": round(migration, 3),
    }


def _strategy_row(name: str, seed: int) -> dict:
    """One Table I strategy moving the array between two kernels.

    The kernels carry only work: checkpoint/restore invalidates the
    original pointer, a difference ``tests/test_migration_strategies.py``
    asserts on its own.
    """
    world = make_world(DgsfConfig(num_gpus=2, seed=seed))
    env = world.env
    guest, server, _ = world.attach_guest(declared_bytes=14 * GB)
    nbytes = STRATEGY_ARRAY_MB * MB

    def body():
        ptr = yield from guest.cudaMalloc(nbytes)
        yield from guest.cudaMemset(ptr, 0, nbytes)
        kernel = yield from guest.cudaGetFunction("timed")
        yield from guest.cudaLaunchKernel(kernel, args=(STRATEGY_KERNEL_S,),
                                          work=STRATEGY_KERNEL_S)
        yield from guest.cudaDeviceSynchronize()
        outcome = yield env.process(MIGRATION_STRATEGIES[name](server, 1))
        yield from guest.cudaLaunchKernel(kernel, args=(STRATEGY_KERNEL_S,),
                                          work=STRATEGY_KERNEL_S)
        yield from guest.cudaDeviceSynchronize()
        return outcome

    t0 = env.now
    outcome = world.drive(body())
    return {
        "strategy": name,
        "migration_s": round(outcome.duration_s, 3),
        "e2e_s": round(env.now - t0, 3),
        "source_mb_still_held": round(outcome.residual_source_bytes / MB),
        "post_penalty": outcome.post_access_penalty,
    }


def sections(seed: int = 0, copies: int = 0) -> dict[str, list[dict]]:
    """``BENCH_migration.json``'s sections, one per figure, table or
    ablation.  ``copies`` is unused: every run has a fixed size."""
    runs = {label: scenario(label, seed) for label in SCENARIOS}
    windows = {"off": runs["sharing2_best_fit"]}
    for checks in CONFIRM_CHECKS:
        windows[checks] = (
            runs["sharing2_best_fit_migration"] if checks == DEFAULT_CHECKS
            else scenario("sharing2_best_fit_migration", seed,
                          migration_confirm_checks=checks))
    fig8 = []
    for label, result in runs.items():
        idle, busy = _tail_utilization(result.deployment.gpu_server.nvml)
        fig8.append({**_plan_row(result, scenario=label),
                     "idle_gpu_tail_pct": round(idle, 1),
                     "busy_gpu_tail_pct": round(busy, 1)})
    out = {
        "fig8": fig8,
        "confirm_window": [_plan_row(result, confirm_checks=checks)
                           for checks, result in windows.items()],
        "table5": [_table5_row(size, seed) for size in ARRAY_SIZES_MB],
        "strategies": [_strategy_row(name, seed)
                       for name in MIGRATION_STRATEGIES],
    }
    check(out)
    return out


def _claim(holds: bool, claim: str) -> None:
    if not holds:
        raise SimulationError(f"§VIII-E claim broken: {claim}")


def check(sections: dict[str, list[dict]]) -> None:
    """Raise :class:`SimulationError` naming the first broken claim.

    Reads only the rows :func:`sections` returns, so a committed
    ``BENCH_migration.json`` can be checked without simulating.
    """
    # Fig. 8, the paper's exact ordering: worst-fit is the best scenario,
    # best-fit (the two NLPs packed together) the worst, and migration
    # recovers part of best-fit's loss; the improvements are in the
    # paper's ballpark (worst-fit -11% against no sharing, migration -16%
    # against best-fit).
    fig8 = {row["scenario"]: row for row in sections["fig8"]}
    no_sharing = fig8["no_sharing"]["total_s"]
    worst = fig8["sharing2_worst_fit"]["total_s"]
    best = fig8["sharing2_best_fit"]["total_s"]
    migrated = fig8["sharing2_best_fit_migration"]
    _claim(worst < no_sharing,
           f"Fig. 8: worst-fit sharing beats no sharing "
           f"({worst} vs {no_sharing} s)")
    _claim(best > no_sharing,
           f"Fig. 8: best-fit sharing is slower than no sharing "
           f"({best} vs {no_sharing} s)")
    _claim(migrated["total_s"] < best,
           f"Fig. 8: best-fit + migration beats best-fit "
           f"({migrated['total_s']} vs {best} s)")
    _claim(migrated["migrations"] >= 1,
           f"Fig. 8: best-fit + migration migrates "
           f"({migrated['migrations']} migrations)")
    for label, row in fig8.items():
        if not SCENARIOS[label]["migration_enabled"]:
            _claim(row["migrations"] == 0,
                   f"Fig. 8: {label} never migrates "
                   f"({row['migrations']} migrations)")
    gain = (no_sharing - worst) / no_sharing
    _claim(0.03 <= gain <= 0.35,
           f"Fig. 8: worst-fit cuts no sharing's total by 3-35% "
           f"({gain:.3f})")
    recovered = (best - migrated["total_s"]) / best
    _claim(0.02 <= recovered <= 0.30,
           f"Fig. 8: migration cuts best-fit's total by 2-30% "
           f"({recovered:.3f})")
    # Fig. 8b: under best-fit without migration, one GPU idles while the
    # other stays busy with the two NLPs near the end of the run.
    packed = fig8["sharing2_best_fit"]
    _claim(packed["idle_gpu_tail_pct"] < 25.0,
           f"Fig. 8b: best-fit's idle GPU stays under 25% in the tail "
           f"({packed['idle_gpu_tail_pct']}%)")
    _claim(packed["busy_gpu_tail_pct"] > 60.0,
           f"Fig. 8b: best-fit's busy GPU stays over 60% in the tail "
           f"({packed['busy_gpu_tail_pct']}%)")

    # Confirmation window: any reasonable window migrates and beats no
    # migration; an over-conservative one forfeits part of the benefit.
    window = {row["confirm_checks"]: row for row in sections["confirm_window"]}
    off = window["off"]["total_s"]
    for checks in (2, 4):
        row = window[checks]
        _claim(row["total_s"] <= off + 0.5,
               f"confirmation window: {checks} checks take at most 0.5 s "
               f"more than no migration ({row['total_s']} vs {off} s)")
        _claim(row["migrations"] >= 1,
               f"confirmation window: {checks} checks migrate "
               f"({row['migrations']} migrations)")
    _claim(window[16]["total_s"] >= window[4]["total_s"] - 0.5,
           f"confirmation window: 16 checks are at most 0.5 s faster than "
           f"4 ({window[16]['total_s']} vs {window[4]['total_s']} s)")

    # Table V: native is dominated by the 3.2 s CUDA init ("95% of the
    # end-to-end time"); DGSF is orders of magnitude faster; a forced
    # migration adds its cost to the end-to-end time.
    table5 = {row["array_mb"]: row for row in sections["table5"]}
    for size, row in table5.items():
        native, dgsf = row["native_s"], row["dgsf_s"]
        e2e, migration = row["dgsf_migration_e2e_s"], row["migration_s"]
        _claim(abs(native - 3.2) <= 0.4,
               f"Table V: native is the 3.2±0.4 s CUDA init at {size} MB "
               f"({native} s)")
        _claim(dgsf < 0.5 and dgsf < native / 10,
               f"Table V: DGSF runs under 0.5 s and a tenth of native at "
               f"{size} MB ({dgsf} vs {native} s)")
        _claim(e2e > dgsf,
               f"Table V: a forced migration lengthens DGSF at {size} MB "
               f"({e2e} vs {dgsf} s)")
        _claim(e2e >= 0.9 * migration,
               f"Table V: the end-to-end time holds the migration at "
               f"{size} MB ({e2e} vs {migration} s)")
    # Migration cost grows with the array and lands in the paper's range
    # (0.5 s ... 2.1 s); it dominates the largest case ("around 78% of
    # the end-to-end time").
    sizes = sorted(table5)
    migrations = [table5[size]["migration_s"] for size in sizes]
    _claim(all(a <= b + 1e-9 for a, b in zip(migrations, migrations[1:])),
           f"Table V: migration time never falls as the array grows "
           f"({migrations} s at {sizes} MB)")
    small, large = table5[sizes[0]], table5[sizes[-1]]
    _claim(0.2 <= small["migration_s"] <= 0.8,
           f"Table V: migrating {sizes[0]} MB takes 0.2-0.8 s "
           f"({small['migration_s']} s)")
    _claim(1.2 <= large["migration_s"] <= 3.0,
           f"Table V: migrating {sizes[-1]} MB takes 1.2-3.0 s "
           f"({large['migration_s']} s)")
    share = large["migration_s"] / large["dgsf_migration_e2e_s"]
    _claim(share > 0.6,
           f"Table V: migration is over 60% of the end-to-end time at "
           f"{sizes[-1]} MB ({share:.3f})")

    # Strategies: peer access barely moves, DGSF moves once, checkpoint/
    # restore crosses PCIe twice; only peer access leaves the array on the
    # source GPU, and its 2.5x post-move penalty costs more end to end
    # than DGSF's move.
    strategies = {row["strategy"]: row for row in sections["strategies"]}
    dgsf = strategies["dgsf"]
    ckpt = strategies["checkpoint_restore"]
    peer = strategies["peer_access"]
    _claim(peer["migration_s"] < dgsf["migration_s"] < ckpt["migration_s"],
           f"strategies: peer access moves faster than DGSF, DGSF faster "
           f"than checkpoint/restore ({peer['migration_s']} < "
           f"{dgsf['migration_s']} < {ckpt['migration_s']} s)")
    for row in (dgsf, ckpt):
        _claim(row["source_mb_still_held"] == 0,
               f"strategies: {row['strategy']} frees the source GPU "
               f"({row['source_mb_still_held']} MB still held)")
    _claim(peer["source_mb_still_held"] == STRATEGY_ARRAY_MB,
           f"strategies: peer access leaves the {STRATEGY_ARRAY_MB} MB "
           f"array on the source GPU ({peer['source_mb_still_held']} MB)")
    for row in (peer, ckpt):
        _claim(dgsf["e2e_s"] < row["e2e_s"],
               f"strategies: DGSF finishes before {row['strategy']} "
               f"({dgsf['e2e_s']} vs {row['e2e_s']} s)")
    _claim(abs(peer["post_penalty"] - 2.5) <= 1e-6,
           f"strategies: peer access slows later kernels 2.5x "
           f"({peer['post_penalty']}x)")
