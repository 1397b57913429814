"""Experiment reproductions of the paper's §VIII tables and figures.

:mod:`repro.experiments.runtimes` simulates each §VIII-B/C single-invocation
configuration once and derives Table II and Figs. 3–4 from the runs;
:mod:`repro.experiments.sharing` does the same for §VIII-D's sharing
runs (Tables III–IV, Figs. 5–7), and :mod:`repro.experiments.migration`
for §VIII-E (Fig. 8, Table V and the confirmation-window and
migration-strategy ablations).  The other modules are one per ablation.
Each module returns plain dict rows (consumed by the CLI and
:mod:`repro.experiments.reporting`'s text renderer); the ones that write
a committed ``BENCH_*.json`` expose ``sections(...)``.
"""

from repro.experiments.runner import (
    run_single_invocation,
    run_scenario,
    ScenarioResult,
)
from repro.experiments import (
    runtimes,
    sharing,
    migration,
    sched_ablation,
    critpath_ablation,
    shard_ablation,
    llm_ablation,
)
from repro.experiments.reporting import render_table

__all__ = [
    "run_single_invocation",
    "run_scenario",
    "ScenarioResult",
    "runtimes",
    "sharing",
    "migration",
    "sched_ablation",
    "critpath_ablation",
    "shard_ablation",
    "llm_ablation",
    "render_table",
]
