"""The §VIII-B/C claims, checked on BENCH_runtimes.json without
simulating: the committed rows pass :func:`runtimes.check`, and a copy
that breaks one claim of one section fails it by name."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments import runtimes

BASELINE = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_runtimes.json").read_text()
)
SECTIONS = {name: BASELINE[name] for name in runtimes.GATES}


def test_committed_baseline_holds_every_claim():
    runtimes.check(SECTIONS)


def _row(rows, **match):
    (row,) = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return row


def _table2_lambda_fast_on_nlp(sections):
    row = _row(sections["table2"], workload="nlp_qa")
    row["lambda_s"] = row["dgsf_s"]


def _fig3_dgsf_pays_init(sections):
    _row(sections["fig3"], workload="kmeans", variant="dgsf")["cuda_init"] = 3.2


def _fig4_batching_slows_face_id(sections):
    row = _row(sections["fig4"], workload="face_identification")
    row["+batching"] = row["+descriptor_pooling"] + 1.0


def _async_no_faster(sections):
    _row(sections["async_stream"], step="+async")["elapsed_ms"] = \
        _row(sections["async_stream"], step="+batching")["elapsed_ms"]


def _threshold_messages_rise(sections):
    _row(sections["batch_threshold"], flush_threshold=128)["messages"] = 139


@pytest.mark.parametrize("doctor, claim", [
    (_table2_lambda_fast_on_nlp, "Table II: Lambda takes over 1.3x DGSF on nlp_qa"),
    (_fig3_dgsf_pays_init, "Fig. 3: DGSF hides the CUDA init on kmeans"),
    (_fig4_batching_slows_face_id,
     "Fig. 4: +batching slows face_identification by at most 0.05 s"),
    (_async_no_faster, "async stream: +async beats +batching by over 5 ms"),
    (_threshold_messages_rise,
     "batch threshold: messages never rise with the threshold"),
], ids=["table2", "fig3", "fig4", "async_stream", "batch_threshold"])
def test_a_broken_claim_is_named(doctor, claim):
    sections = copy.deepcopy(SECTIONS)
    doctor(sections)
    with pytest.raises(SimulationError) as err:
        runtimes.check(sections)
    assert claim in str(err.value)
