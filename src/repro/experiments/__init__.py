"""Experiment reproductions of the paper's §VIII tables and figures.

One module per table or figure, except :mod:`repro.experiments.sharing`,
which simulates §VIII-D's sharing runs once and derives Tables III–IV
and Figs. 5–7 from them.  Each module returns plain dict rows (consumed by
the benchmarks, the CLI and :mod:`repro.experiments.reporting`'s text
renderer); the ones that write a committed ``BENCH_*.json`` expose
``sections(...)``.
"""

from repro.experiments.runner import (
    run_single_invocation,
    run_scenario,
    ScenarioResult,
)
from repro.experiments import (
    table2,
    table5,
    fig3,
    fig4,
    fig8,
    sharing,
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
    "table2",
    "table5",
    "fig3",
    "fig4",
    "fig8",
    "sharing",
    "sched_ablation",
    "critpath_ablation",
    "shard_ablation",
    "llm_ablation",
    "render_table",
]
