"""The scheduler ablation's claims, checked on BENCH_sched.json without
simulating: the committed rows pass :func:`sched_ablation.check`, and a
copy that breaks one claim fails it by name."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments import sched_ablation

ROWS = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_sched.json").read_text()
)["rows"]


def test_committed_baseline_holds_every_claim():
    sched_ablation.check(ROWS)


def _cell(rows, discipline, size_class):
    (row,) = [r for r in rows
              if r["discipline"] == discipline and r["size_class"] == size_class]
    return row


def _mqfq_small_p99_at_fcfs(rows):
    _cell(rows, "mqfq", "small")["p99_queue_s"] = \
        _cell(rows, "fcfs", "small")["p99_queue_s"]


def _mqfq_small_max_above_fcfs(rows):
    _cell(rows, "mqfq", "small")["max_wait_s"] = \
        _cell(rows, "fcfs", "small")["max_wait_s"] + 1.0


def _sff_small_p99_above_fcfs(rows):
    _cell(rows, "sff", "small")["p99_queue_s"] = \
        _cell(rows, "fcfs", "small")["p99_queue_s"] + 1.0


def _sff_large_max_at_small(rows):
    _cell(rows, "sff", "large")["max_wait_s"] = \
        _cell(rows, "sff", "small")["max_wait_s"]


@pytest.mark.parametrize("doctor, claim", [
    (_mqfq_small_p99_at_fcfs, "MQFQ's small-class p99 wait is below FCFS's"),
    (_mqfq_small_max_above_fcfs, "MQFQ's small-class max wait is below FCFS's"),
    (_sff_small_p99_above_fcfs, "SFF's small-class p99 wait is below FCFS's"),
    (_sff_large_max_at_small,
     "SFF's large-class max wait is above its small-class max wait"),
], ids=["mqfq_p99", "mqfq_max", "sff_p99", "sff_starves_large"])
def test_a_broken_claim_is_named(doctor, claim):
    rows = copy.deepcopy(ROWS)
    doctor(rows)
    with pytest.raises(SimulationError) as err:
        sched_ablation.check(rows)
    assert claim in str(err.value)
