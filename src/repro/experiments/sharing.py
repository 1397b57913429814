"""§VIII-D GPU sharing: Tables III–IV and Figs. 5–7 from one set of runs.

The paper's sharing results come from three arrival patterns over the
§VIII workloads, each run with and without sharing (two API servers per
GPU).  This module simulates each distinct configuration once — 14
runs through :func:`~repro.experiments.runner.run_scenario` — and derives
every table row and figure value from them:

* **heavy load** (Table III, Fig. 5): "functions at intervals drawn from
  an exponential distribution with rate equal to 2", i.e. mean gap 2 s,
  on 4 GPUs; all six workloads (AW) and the four with smaller memory
  footprints (SW), each under no sharing, sharing(2) best-fit and
  sharing(2) worst-fit.
* **light load** (Table IV, Fig. 6): the same three configurations over
  AW on 4 and on 3 GPUs.  The mean gap is 4 s, not the paper's 3 s: its
  rate-3 point normalized for this reproduction's longer mean GPU
  residency (≈16 s vs the paper's 12 s), keeping the operating point at
  ρ ≈ 1.
* **burst** (Fig. 7): ``copies`` bursts of all six workloads 2 s apart
  under no sharing and sharing(2) best-fit, with NVML sampled every
  200 ms and smoothed by a moving average of 5 samples.

No sharing is one configuration: with one API server per equal-capacity
GPU, every GPU a policy may choose from is idle, so best-fit and
worst-fit both pick the lowest-numbered one.  Fig. 5 shows Table III's
no-sharing and best-fit runs, and Fig. 6 Table IV's no-sharing and
worst-fit runs.

:func:`sections` ends with :func:`check`, which raises
:class:`SimulationError` naming the first shape claim of the paper's
sharing results that the rows break.  The claims hold at the committed
parameters (seed 0, ``copies`` 10), not at every size: at ``copies`` 2,
Table III's, Table IV's, Fig. 6's and Fig. 7's claims fail, so a smaller
run of this experiment fails its own check.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DgsfConfig
from repro.errors import SimulationError
from repro.experiments.runner import make_plan, run_scenario
from repro.simcuda.nvml import moving_average
from repro.workloads import ALL_WORKLOAD_NAMES, SMALLER_WORKLOAD_NAMES

__all__ = ["sections", "check", "CONFIGS", "EXPERIMENT", "GATES"]

#: ``BENCH_sharing.json``: experiment id and its gates (per-workload
#: invocation counts exact; seconds and utilization banded)
EXPERIMENT = "sharing"
GATES = {
    "table3": {"key": ["config"], "exact": [], "ignore": []},
    "fig5": {"key": ["subset", "config", "workload"], "exact": ["n"],
             "ignore": []},
    "table4": {"key": ["config"], "exact": [], "ignore": []},
    "fig6": {"key": ["gpus", "config", "workload"], "exact": ["n"],
             "ignore": []},
    "fig7": {"key": ["config"], "exact": [], "ignore": []},
    "fig7_series": {"key": ["t"], "exact": [], "ignore": []},
}

#: configuration label -> (API servers per GPU, placement policy)
CONFIGS = {
    "no_sharing": (1, "best_fit"),
    "sharing2_best_fit": (2, "best_fit"),
    "sharing2_worst_fit": (2, "worst_fit"),
}
SHARED = ("sharing2_best_fit", "sharing2_worst_fit")

NUM_GPUS = 4
HEAVY_GAP_S = 2.0
LIGHT_GAP_S = 4.0
LIGHT_GPU_COUNTS = (4, 3)
BURST_GAP_S = 2.0
#: Fig. 7's moving-average window, in NVML samples
UTIL_WINDOW = 5
#: one Fig. 7 series row per this many NVML samples (5 s at 200 ms)
SERIES_STRIDE = 25


def _simulate(plan, seed: int, num_gpus: int, label: str,
              sample_utilization: bool = False):
    servers, policy = CONFIGS[label]
    config = DgsfConfig(num_gpus=num_gpus, seed=seed,
                        api_servers_per_gpu=servers, policy=policy)
    return run_scenario(config, plan, sample_utilization=sample_utilization
                        ).require_completed()


def _totals(config: str, **runs) -> dict:
    """One Table III/IV row: provider E2E and Σ function E2E per run."""
    row = {"config": config}
    for prefix, result in runs.items():
        row[f"{prefix}_end_to_end_s"] = round(result.stats.provider_e2e_s, 3)
        row[f"{prefix}_fn_e2e_sum_s"] = round(
            result.stats.function_e2e_sum_s, 3)
    return row


def _per_workload(result, **labels) -> list[dict]:
    """Fig. 5/6 rows: one per workload of one run."""
    return [{**labels, **ws.as_row()}
            for ws in result.stats.per_workload.values()]


def _fleet_utilization(result):
    """Fleet-average NVML utilization per sample, smoothed like the paper."""
    gpu_server = result.deployment.gpu_server
    per_gpu = [gpu_server.nvml.series(d.device_id)[1]
               for d in gpu_server.devices]
    times = gpu_server.nvml.series(0)[0]
    return times, moving_average(np.mean(per_gpu, axis=0), window=UTIL_WINDOW)


def sections(seed: int = 0, copies: int = 10) -> dict[str, list[dict]]:
    """``BENCH_sharing.json``'s sections, one per table or figure."""
    heavy = {}
    for subset, names in (("aw", ALL_WORKLOAD_NAMES),
                          ("sw", SMALLER_WORKLOAD_NAMES)):
        plan = make_plan("exponential", seed=seed, copies=copies,
                         names=names, mean_gap_s=HEAVY_GAP_S)
        for label in CONFIGS:
            heavy[subset, label] = _simulate(plan, seed, NUM_GPUS, label)
    plan = make_plan("exponential", seed=seed, copies=copies,
                     names=ALL_WORKLOAD_NAMES, mean_gap_s=LIGHT_GAP_S)
    light = {(gpus, label): _simulate(plan, seed, gpus, label)
             for gpus in LIGHT_GPU_COUNTS for label in CONFIGS}
    plan = make_plan("burst", seed=seed, copies=copies,
                     names=ALL_WORKLOAD_NAMES, burst_gap_s=BURST_GAP_S)
    burst = {label: _simulate(plan, seed, NUM_GPUS, label,
                              sample_utilization=True)
             for label in ("no_sharing", "sharing2_best_fit")}

    fig5, fig6 = [], []
    for subset in ("aw", "sw"):
        for label in ("no_sharing", "sharing2_best_fit"):
            fig5 += _per_workload(heavy[subset, label], subset=subset,
                                  config=label)
    for gpus in LIGHT_GPU_COUNTS:
        for label in ("no_sharing", "sharing2_worst_fit"):
            fig6 += _per_workload(light[gpus, label], gpus=gpus, config=label)
    base_util = burst["no_sharing"].avg_utilization
    times, no_sharing_pct = _fleet_utilization(burst["no_sharing"])
    _, sharing_pct = _fleet_utilization(burst["sharing2_best_fit"])
    n_samples = min(len(no_sharing_pct), len(sharing_pct))
    out = {
        "table3": [_totals(label, aw=heavy["aw", label],
                           sw=heavy["sw", label]) for label in CONFIGS],
        "fig5": fig5,
        "table4": [_totals(label, gpus4=light[4, label],
                           gpus3=light[3, label]) for label in CONFIGS],
        "fig6": fig6,
        "fig7": [{"config": label,
                  "avg_utilization_pct": round(result.avg_utilization, 3),
                  "utilization_increase_pct": round(
                      (result.avg_utilization - base_util) / base_util * 100,
                      3),
                  "provider_e2e_s": round(result.stats.provider_e2e_s, 3)}
                 for label, result in burst.items()],
        "fig7_series": [{"t": round(float(times[i]), 3),
                         "no_sharing_pct": round(float(no_sharing_pct[i]), 3),
                         "sharing2_best_fit_pct": round(float(sharing_pct[i]),
                                                        3)}
                        for i in range(0, n_samples, SERIES_STRIDE)],
    }
    check(out)
    return out


def _claim(holds: bool, claim: str) -> None:
    if not holds:
        raise SimulationError(f"§VIII-D claim broken: {claim}")


def _mean(rows: list[dict], field: str, **match) -> float:
    chosen = [row[field] for row in rows
              if all(row[k] == v for k, v in match.items())]
    return sum(chosen) / len(chosen)


def check(sections: dict[str, list[dict]]) -> None:
    """Raise :class:`SimulationError` naming the first broken shape claim.

    Reads only the rows :func:`sections` returns, so a committed
    ``BENCH_sharing.json`` can be checked without simulating.
    """
    # Table III: under heavy load sharing cuts provider end-to-end and the
    # sum of function E2E on both subsets (paper: -7/-8% e2e, -17/-20% sum
    # on AW), and the smaller subset finishes well ahead of all workloads.
    table3 = {row["config"]: row for row in sections["table3"]}
    base = table3["no_sharing"]
    for label in SHARED:
        row = table3[label]
        for col in ("aw_end_to_end_s", "aw_fn_e2e_sum_s", "sw_fn_e2e_sum_s"):
            _claim(row[col] < base[col],
                   f"Table III: {label} cuts {col} "
                   f"({row[col]} vs {base[col]} without sharing)")
        _claim(row["sw_end_to_end_s"] < base["sw_end_to_end_s"] * 1.02,
               f"Table III: {label} keeps sw_end_to_end_s within 2% of no "
               f"sharing ({row['sw_end_to_end_s']} vs "
               f"{base['sw_end_to_end_s']})")
    for label, row in table3.items():
        for col in ("end_to_end_s", "fn_e2e_sum_s"):
            _claim(row[f"sw_{col}"] < row[f"aw_{col}"],
                   f"Table III: {label} sw_{col} below aw_{col} "
                   f"({row[f'sw_{col}']} vs {row[f'aw_{col}']})")

    # Fig. 5: heavy load queues for real, sharing cuts the mean queueing
    # delay (paper: up to 53% for some workloads) and image
    # classification's on AW (paper: halved), and no execution delay drops
    # below the uncontended runtime scale.
    fig5 = sections["fig5"]
    queue = {(subset, label): _mean(fig5, "mean_queue_s", subset=subset,
                                    config=label)
             for subset in ("aw", "sw")
             for label in ("no_sharing", "sharing2_best_fit")}
    _claim(queue["aw", "no_sharing"] > 5.0,
           f"Fig. 5: AW without sharing queues over 5 s on average "
           f"({queue['aw', 'no_sharing']:.3f} s)")
    _claim(queue["aw", "sharing2_best_fit"] < queue["aw", "no_sharing"],
           f"Fig. 5: sharing cuts AW mean queueing delay "
           f"({queue['aw', 'sharing2_best_fit']:.3f} vs "
           f"{queue['aw', 'no_sharing']:.3f} s)")
    _claim(queue["sw", "sharing2_best_fit"] < queue["sw", "no_sharing"] * 1.05,
           f"Fig. 5: sharing keeps SW mean queueing delay within 5% of no "
           f"sharing ({queue['sw', 'sharing2_best_fit']:.3f} vs "
           f"{queue['sw', 'no_sharing']:.3f} s)")
    image = {row["config"]: row["mean_queue_s"] for row in fig5
             if row["subset"] == "aw"
             and row["workload"] == "image_classification"}
    _claim(image["sharing2_best_fit"] < image["no_sharing"],
           f"Fig. 5: sharing cuts AW image_classification queueing delay "
           f"({image['sharing2_best_fit']} vs {image['no_sharing']} s)")
    for row in fig5:
        _claim(row["mean_exec_s"] > 5.0,
               f"Fig. 5: {row['subset']}/{row['config']}/{row['workload']} "
               f"execution delay over 5 s ({row['mean_exec_s']} s)")

    # Table IV: at light load sharing matters far less with 4 GPUs than
    # with 3; dropping to 3 GPUs hurts without sharing and sharing
    # recovers much of it (paper: -10% e2e, -27/-28% sum), leaving 3 shared
    # GPUs only modestly slower than 4 (paper: +5.5% provider time).
    table4 = {row["config"]: row for row in sections["table4"]}
    base = table4["no_sharing"]
    for label in SHARED:
        row = table4[label]
        effect = {gpus: (base[f"gpus{gpus}_fn_e2e_sum_s"]
                         - row[f"gpus{gpus}_fn_e2e_sum_s"])
                  / base[f"gpus{gpus}_fn_e2e_sum_s"]
                  for gpus in LIGHT_GPU_COUNTS}
        _claim(effect[4] < effect[3],
               f"Table IV: {label} cuts the sum of function E2E less with 4 "
               f"GPUs than with 3 ({effect[4]:+.3f} vs {effect[3]:+.3f})")
        _claim(abs(effect[4]) < 0.15,
               f"Table IV: {label} moves the 4-GPU sum of function E2E by "
               f"under 15% ({effect[4]:+.3f})")
    _claim(base["gpus3_end_to_end_s"] > base["gpus4_end_to_end_s"] * 1.05,
           f"Table IV: without sharing, 3 GPUs take over 5% longer than 4 "
           f"({base['gpus3_end_to_end_s']} vs {base['gpus4_end_to_end_s']})")
    _claim(base["gpus3_fn_e2e_sum_s"] > base["gpus4_fn_e2e_sum_s"] * 1.3,
           f"Table IV: without sharing, 3 GPUs raise the sum of function E2E "
           f"over 30% ({base['gpus3_fn_e2e_sum_s']} vs "
           f"{base['gpus4_fn_e2e_sum_s']})")
    for label in SHARED:
        row = table4[label]
        _claim(row["gpus3_end_to_end_s"] < base["gpus3_end_to_end_s"],
               f"Table IV: {label} cuts 3-GPU provider end-to-end "
               f"({row['gpus3_end_to_end_s']} vs {base['gpus3_end_to_end_s']})")
        _claim(row["gpus3_fn_e2e_sum_s"] < base["gpus3_fn_e2e_sum_s"] * 0.95,
               f"Table IV: {label} cuts the 3-GPU sum of function E2E by over "
               f"5% ({row['gpus3_fn_e2e_sum_s']} vs "
               f"{base['gpus3_fn_e2e_sum_s']})")
    row = table4["sharing2_worst_fit"]
    _claim(row["gpus3_end_to_end_s"] < row["gpus4_end_to_end_s"] * 1.35,
           f"Table IV: sharing2_worst_fit on 3 GPUs takes under 35% longer "
           f"than on 4 ({row['gpus3_end_to_end_s']} vs "
           f"{row['gpus4_end_to_end_s']})")

    # Fig. 6: with 4 GPUs sharing changes mean E2E little; with 3, queueing
    # appears and sharing cuts both queueing and E2E.
    fig6 = sections["fig6"]
    e2e, queue = {}, {}
    for gpus in LIGHT_GPU_COUNTS:
        for label in ("no_sharing", "sharing2_worst_fit"):
            e2e[gpus, label] = _mean(fig6, "mean_e2e_s", gpus=gpus,
                                     config=label)
            queue[gpus, label] = _mean(fig6, "mean_queue_s", gpus=gpus,
                                       config=label)
    shared = "sharing2_worst_fit"
    _claim(abs(e2e[4, shared] - e2e[4, "no_sharing"])
           < 0.25 * e2e[4, "no_sharing"],
           f"Fig. 6: with 4 GPUs sharing moves mean E2E by under 25% "
           f"({e2e[4, shared]:.3f} vs {e2e[4, 'no_sharing']:.3f} s)")
    _claim(queue[3, "no_sharing"] > queue[4, "no_sharing"],
           f"Fig. 6: without sharing, 3 GPUs queue longer than 4 "
           f"({queue[3, 'no_sharing']:.3f} vs {queue[4, 'no_sharing']:.3f} s)")
    _claim(queue[3, shared] < queue[3, "no_sharing"],
           f"Fig. 6: with 3 GPUs sharing cuts mean queueing delay "
           f"({queue[3, shared]:.3f} vs {queue[3, 'no_sharing']:.3f} s)")
    _claim(e2e[3, shared] < e2e[3, "no_sharing"],
           f"Fig. 6: with 3 GPUs sharing cuts mean E2E "
           f"({e2e[3, shared]:.3f} vs {e2e[3, 'no_sharing']:.3f} s)")

    # Fig. 7: sharing raises average utilization during the burst (paper:
    # 31.8% -> 37.1%, +16%), both stay far from 100% (NVML sampling
    # semantics plus idle gaps between phases), and sharing finishes the
    # burst sooner (paper: 220 s -> 200 s, -9%).
    fig7 = {row["config"]: row for row in sections["fig7"]}
    base, shared = fig7["no_sharing"], fig7["sharing2_best_fit"]
    gain = shared["utilization_increase_pct"]
    _claim(5.0 <= gain <= 45.0,
           f"Fig. 7: sharing raises average utilization by 5-45% "
           f"({gain:+.3f}%)")
    _claim(base["avg_utilization_pct"] < 75.0,
           f"Fig. 7: average utilization without sharing under 75% "
           f"({base['avg_utilization_pct']}%)")
    _claim(shared["avg_utilization_pct"] < 80.0,
           f"Fig. 7: average utilization with sharing under 80% "
           f"({shared['avg_utilization_pct']}%)")
    reduction = 1 - shared["provider_e2e_s"] / base["provider_e2e_s"]
    _claim(0.02 <= reduction <= 0.35,
           f"Fig. 7: sharing finishes the burst 2-35% sooner "
           f"({reduction:+.3f}; {shared['provider_e2e_s']} vs "
           f"{base['provider_e2e_s']} s)")
