"""The critical-path ablation's claims, checked on hand-made rows:
:func:`critpath_ablation.check` passes rows shaped like a seed-0 run and
names each claim a broken copy fails."""

import copy

import pytest

from repro.errors import SimulationError
from repro.experiments import critpath_ablation


def _rows():
    """Rows like ``critpath_ablation.run(seed=0, copies=2)``'s."""
    def row(setting, p50, share, wire):
        return {"setting": setting, "n": 6, "bottleneck_p50": p50,
                "p50_share": share, "bottleneck_p95": p50, "p95_share": 0.9,
                "wire_p50_share": wire, "e2e_p50_s": 20.0, "e2e_p95_s": 50.0,
                "coverage_min": 1.0}
    return [row("light_opt", "gpu_compute", 0.835, 0.06),
            row("light_unopt", "gpu_compute", 0.775, 0.151),
            row("heavy_fcfs", "queue", 0.52, 0.023),
            row("heavy_mqfq", "queue", 0.68, 0.027)]


def test_rows_like_a_seed_0_run_hold_every_claim():
    critpath_ablation.check(_rows())


def _set(setting, **fields):
    def doctor(rows):
        (row,) = [r for r in rows if r["setting"] == setting]
        row.update(fields)
    return doctor


@pytest.mark.parametrize("doctor, claim", [
    (lambda rows: rows.pop(), "one row per setting"),
    (_set("heavy_mqfq", coverage_min=0.9),
     "heavy_mqfq covers at least 95% of every invocation"),
    (lambda rows: [r.update(bottleneck_p50="gpu_compute") for r in rows],
     "the median bottleneck differs across settings"),
    (_set("light_opt", bottleneck_p50="object_store"),
     "light_opt's median bottleneck is gpu_compute"),
    (_set("light_unopt", wire_p50_share=0.06),
     "light_unopt's median wire share exceeds light_opt's"),
    (_set("heavy_fcfs", bottleneck_p50="gpu_compute"),
     "heavy_fcfs's median bottleneck is queue"),
    (_set("heavy_mqfq", bottleneck_p50="wire"),
     "heavy_mqfq's median bottleneck is queue"),
    (_set("heavy_fcfs", p50_share=0.0),
     "heavy_fcfs's median queue share exceeds light_opt's"),
], ids=["settings", "coverage", "bottleneck_moves", "light_opt",
        "light_unopt_wire", "heavy_fcfs", "heavy_mqfq", "queue_share"])
def test_a_broken_claim_is_named(doctor, claim):
    rows = copy.deepcopy(_rows())
    doctor(rows)
    with pytest.raises(SimulationError) as err:
        critpath_ablation.check(rows)
    assert claim in str(err.value)
