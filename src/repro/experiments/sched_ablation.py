"""Scheduler fairness/starvation ablation (extension beyond the paper).

Runs one contended mixed workload — every paper workload, exponential
arrival gaps, two GPUs with sharing(2) — under each queue discipline and
reports the queue-wait distribution per request *size class* (small
< 2 GB ≤ medium < 8 GB ≤ large, tracking the paper's workload set).
This quantifies the §VIII-D trade-off directly: FCFS's head-of-line
blocking inflates the small class's tail, plain SFF starves the large
class, and ``mqfq`` bounds the unfairness per function class.

``sff_aged`` is meant to bound SFF's starvation, but no registered
function carries a duration hint (``expected_duration_s``), so every
request's starvation bound is zero and aged SFF degrades to exact FCFS:
its rows in ``BENCH_sched.json`` equal the ``fcfs`` rows.  ROADMAP item 5
plans hints derived from the calibrated workload params.

:func:`sections` ends with :func:`check`, which raises
:class:`SimulationError` naming the first of four claims the rows break:
MQFQ's small-class p99 and max waits below FCFS's, SFF's small-class p99
wait below FCFS's, and SFF's large-class max wait above its own
small-class max wait.  The claims hold at the committed seed 3 with
``copies`` 4 and at the CLI default ``copies`` 10 (seeds 0 and 3), but
the small class's tail rests on few samples: at seed 0 with ``copies``
4, MQFQ's small-class p99 wait is 23.23 s against FCFS's 18.62 s, on 4
samples each, so that run fails its own check.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig
from repro.core.scheduler import DISCIPLINES
from repro.errors import SimulationError
from repro.experiments.runner import make_plan, run_scenario
from repro.obs.metrics import percentile

__all__ = ["run", "sections", "check", "EXPERIMENT", "GATES"]

#: ``BENCH_sched.json``: experiment id and its gates (sample counts exact,
#: every other numeric field banded by ``scripts/bench_compare.py``)
EXPERIMENT = "sched_ablation"
GATES = {"rows": {"key": ["discipline", "size_class"], "exact": ["n"],
                  "ignore": []}}

_CLASSES = ("small", "medium", "large")


def run(seed: int = 0, copies: int = 4, num_gpus: int = 2,
        api_servers_per_gpu: int = 2, mean_gap_s: float = 1.5,
        disciplines: tuple = DISCIPLINES) -> list[dict]:
    """Rows: (discipline, size_class) -> queue-wait tail + max wait.

    Queue waits come from the ``scheduler.queue_wait_s`` histograms the
    dispatch layer records at grant time (merged across GPU servers);
    max waits from each scheduler's ``max_wait_s`` bookkeeping.
    """
    plan = make_plan("exponential", seed=seed, copies=copies,
                     mean_gap_s=mean_gap_s)
    rows = []
    for disc in disciplines:
        cfg = DgsfConfig(
            num_gpus=num_gpus, api_servers_per_gpu=api_servers_per_gpu,
            queue_discipline=disc, seed=seed,
        )
        result = run_scenario(cfg, plan).require_completed()
        metrics = result.deployment.metrics
        by_class: dict[str, list[float]] = {}
        for hist in metrics.find("scheduler.queue_wait_s", discipline=disc):
            by_class.setdefault(
                hist.labels["size_class"], []
            ).extend(hist.observations)
        max_wait: dict[str, float] = {}
        for server in result.deployment.gpu_servers:
            for cls, wait in server.monitor.scheduler.max_wait_s.items():
                if wait > max_wait.get(cls, -1.0):
                    max_wait[cls] = wait
        for cls in _CLASSES:
            obs = by_class.get(cls, [])
            if not obs:
                continue
            rows.append({
                "discipline": disc,
                "size_class": cls,
                "n": len(obs),
                "mean_queue_s": round(sum(obs) / len(obs), 2),
                "p50_queue_s": round(percentile(obs, 50), 2),
                "p99_queue_s": round(percentile(obs, 99), 2),
                "max_wait_s": round(max_wait.get(cls, 0.0), 2),
                "provider_e2e_s": round(result.stats.provider_e2e_s, 2),
            })
    return rows


def sections(seed: int = 0, copies: int = 4) -> dict[str, list[dict]]:
    """``BENCH_sched.json``'s one section."""
    out = {"rows": run(seed=seed, copies=copies)}
    check(out["rows"])
    return out


def check(rows: list[dict]) -> None:
    """Raise :class:`SimulationError` naming the first broken claim.

    Reads only the rows :func:`run` returns, so a committed
    ``BENCH_sched.json`` can be checked without simulating.
    """
    cell = {(row["discipline"], row["size_class"]): row for row in rows}

    def claim(holds: bool, text: str, *values) -> None:
        if not holds:
            raise SimulationError(
                f"scheduler claim broken: {text} "
                f"({' vs '.join(f'{v} s' for v in values)})")

    fcfs, mqfq = cell["fcfs", "small"], cell["mqfq", "small"]
    sff_small, sff_large = cell["sff", "small"], cell["sff", "large"]
    # MQFQ beats FCFS's head-of-line blocking for the small class at
    # equal offered load
    claim(mqfq["p99_queue_s"] < fcfs["p99_queue_s"],
          "MQFQ's small-class p99 wait is below FCFS's",
          mqfq["p99_queue_s"], fcfs["p99_queue_s"])
    claim(mqfq["max_wait_s"] < fcfs["max_wait_s"],
          "MQFQ's small-class max wait is below FCFS's",
          mqfq["max_wait_s"], fcfs["max_wait_s"])
    # SFF favours the small class at the large class's expense (§VIII-D's
    # predicted fairness loss)
    claim(sff_small["p99_queue_s"] < fcfs["p99_queue_s"],
          "SFF's small-class p99 wait is below FCFS's",
          sff_small["p99_queue_s"], fcfs["p99_queue_s"])
    claim(sff_large["max_wait_s"] > sff_small["max_wait_s"],
          "SFF's large-class max wait is above its small-class max wait",
          sff_large["max_wait_s"], sff_small["max_wait_s"])
