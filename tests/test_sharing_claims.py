"""The §VIII-D sharing claims, checked on BENCH_sharing.json without
simulating: the committed rows pass :func:`sharing.check`, and a copy
that breaks one claim of one table or figure fails it by name."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments import sharing

BASELINE = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_sharing.json").read_text()
)
SECTIONS = {name: BASELINE[name] for name in sharing.GATES}


def test_committed_baseline_holds_every_claim():
    sharing.check(SECTIONS)


def _row(rows, **match):
    (row,) = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return row


def _no_table3_cut(sections):
    base = _row(sections["table3"], config="no_sharing")
    _row(sections["table3"], config="sharing2_worst_fit")["aw_fn_e2e_sum_s"] = \
        base["aw_fn_e2e_sum_s"] + 1.0


def _short_fig5_exec(sections):
    _row(sections["fig5"], subset="sw", config="sharing2_best_fit",
         workload="kmeans")["mean_exec_s"] = 4.0


def _no_table4_contention(sections):
    base = _row(sections["table4"], config="no_sharing")
    base["gpus3_end_to_end_s"] = base["gpus4_end_to_end_s"]


def _no_fig6_queue_cut(sections):
    for row in sections["fig6"]:
        if row["gpus"] == 3 and row["config"] == "sharing2_worst_fit":
            row["mean_queue_s"] = 1000.0


def _fig7_gain_too_large(sections):
    _row(sections["fig7"], config="sharing2_best_fit")[
        "utilization_increase_pct"] = 50.0


@pytest.mark.parametrize("doctor, claim", [
    (_no_table3_cut, "Table III: sharing2_worst_fit cuts aw_fn_e2e_sum_s"),
    (_short_fig5_exec,
     "Fig. 5: sw/sharing2_best_fit/kmeans execution delay over 5 s"),
    (_no_table4_contention,
     "Table IV: without sharing, 3 GPUs take over 5% longer than 4"),
    (_no_fig6_queue_cut, "Fig. 6: with 3 GPUs sharing cuts mean queueing"),
    (_fig7_gain_too_large,
     "Fig. 7: sharing raises average utilization by 5-45%"),
], ids=["table3", "fig5", "table4", "fig6", "fig7"])
def test_a_broken_claim_is_named(doctor, claim):
    sections = copy.deepcopy(SECTIONS)
    doctor(sections)
    with pytest.raises(SimulationError) as err:
        sharing.check(sections)
    assert claim in str(err.value)
