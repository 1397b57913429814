"""Tests for the perf-regression gate (scripts/bench_compare.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py",
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def sched_doc(**overrides):
    doc = {
        "experiment": "sched_ablation",
        "seed": 3,
        "copies": 4,
        "python": "3.12.0",
        "wall_seconds": 10.0,
        "gates": {"rows": {"key": ["discipline", "size_class"],
                           "exact": ["n"], "ignore": []}},
        "rows": [
            {"discipline": "fcfs", "size_class": "small", "n": 8,
             "mean_queue_s": 10.0, "p99_queue_s": 40.0},
            {"discipline": "fcfs", "size_class": "large", "n": 4,
             "mean_queue_s": 30.0, "p99_queue_s": 90.0},
        ],
    }
    doc.update(overrides)
    return doc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, baseline, fresh, *extra):
    return bench_compare.main(
        [write(tmp_path, "base.json", baseline),
         write(tmp_path, "fresh.json", fresh), *extra]
    )


def test_identical_runs_pass(tmp_path, capsys):
    assert run(tmp_path, sched_doc(), sched_doc()) == 0
    assert "OK: 2 row(s)" in capsys.readouterr().out


def test_within_band_passes(tmp_path):
    fresh = sched_doc()
    # band for 10.0 at defaults: 0.05 + 0.02 * 10 = 0.25
    fresh["rows"][0]["mean_queue_s"] = 10.2
    assert run(tmp_path, sched_doc(), fresh) == 0


@pytest.mark.parametrize("direction", [1.15, 0.85])
def test_out_of_band_either_direction_fails(tmp_path, capsys, direction):
    fresh = sched_doc()
    fresh["rows"][0]["mean_queue_s"] = 10.0 * direction
    assert run(tmp_path, sched_doc(), fresh) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "mean_queue_s" in err


def test_count_field_must_match_exactly(tmp_path, capsys):
    fresh = sched_doc()
    fresh["rows"][0]["n"] = 9  # within any band, but counts are exact
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert "count changed" in capsys.readouterr().err


def test_compat_mismatch_is_not_comparable(tmp_path, capsys):
    assert run(tmp_path, sched_doc(), sched_doc(seed=4)) == 2
    assert "NOT COMPARABLE" in capsys.readouterr().err


def test_unknown_experiment_is_not_comparable(tmp_path, capsys):
    """The gate knows an experiment only by the gates its baseline
    declares; a baseline without them cannot be compared."""
    undeclared = sched_doc(experiment="mystery")
    del undeclared["gates"]
    assert run(tmp_path, undeclared, undeclared) == 2
    assert "declares no gates" in capsys.readouterr().err
    # any experiment id is fine once the baseline declares its gates
    assert run(tmp_path, sched_doc(experiment="mystery"),
               sched_doc(experiment="mystery")) == 0


def test_environment_keys_are_ignored(tmp_path):
    fresh = sched_doc(python="3.11.9", wall_seconds=99.0)
    assert run(tmp_path, sched_doc(), fresh) == 0


def test_missing_row_fails(tmp_path, capsys):
    """A fresh run that lost a baseline row is a regression, not a subset
    to wave through."""
    fresh = sched_doc()
    fresh["rows"] = fresh["rows"][:1]
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert "rows[fcfs/large]: row missing from fresh run" \
        in capsys.readouterr().err


def test_fresh_only_row_fails(tmp_path, capsys):
    fresh = sched_doc()
    fresh["rows"].append({"discipline": "sff", "size_class": "small", "n": 8,
                          "mean_queue_s": 5.0})
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert "missing from baseline" in capsys.readouterr().err


def test_empty_fresh_run_is_not_comparable(tmp_path):
    assert run(tmp_path, sched_doc(), sched_doc(rows=[])) == 2


def test_wider_tolerance_accepts_drift(tmp_path):
    fresh = sched_doc()
    fresh["rows"][0]["mean_queue_s"] = 11.0
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert run(tmp_path, sched_doc(), fresh, "--rel-tol", "0.15") == 0


def test_ablation_sections_both_compared(tmp_path, capsys):
    doc = {
        "experiment": "fig4_ablation_plus_async_cache",
        "seed": 0,
        "gates": {section: {"key": ["workload"], "exact": [], "ignore": []}
                  for section in ("ablation", "warm_cache")},
        "ablation": [{"workload": "kmeans", "native": 5.0, "no_opt": 20.0}],
        "warm_cache": [{"workload": "kmeans", "cold_e2e": 11.0, "warm_e2e": 9.0}],
    }
    assert run(tmp_path, doc, json.loads(json.dumps(doc))) == 0
    assert "OK: 2 row(s)" in capsys.readouterr().out
    bad = json.loads(json.dumps(doc))
    bad["warm_cache"][0]["warm_e2e"] = 12.0
    assert run(tmp_path, doc, bad) == 1


def kernel_doc(**overrides):
    doc = {
        "experiment": "kernel_bench",
        "seed": 7,
        "events": 1000,
        "python": "3.11.7",
        "wall_seconds": 5.0,
        "gates": {
            "scenarios": {"key": ["scenario", "impl"], "exact": ["n_events"],
                          "ignore": ["sched_wall_s", "wall_s",
                                     "events_per_sec"]},
            "speedups": {"key": ["scenario"], "exact": [],
                         "ignore": ["speedup"]},
            "order": {"key": ["scenario"],
                      "exact": ["n_events", "order_n", "order_crc"],
                      "ignore": []},
        },
        "scenarios": [
            {"scenario": "timer_flood", "impl": "wheel", "n_events": 1000,
             "final_now": 39.9, "timeouts_recycled": 0,
             "sched_wall_s": 0.1, "wall_s": 0.5, "events_per_sec": 2000.0},
            {"scenario": "timer_flood", "impl": "legacy", "n_events": 1000,
             "final_now": 39.9, "timeouts_recycled": 0,
             "sched_wall_s": 0.1, "wall_s": 1.5, "events_per_sec": 700.0},
        ],
        "speedups": [{"scenario": "timer_flood", "speedup": 2.9}],
        "order": [{"scenario": "timer_flood", "n_events": 500,
                   "order_n": 500, "order_crc": 123456789}],
    }
    doc.update(overrides)
    return doc


def test_kernel_bench_machine_dependent_fields_ignored(tmp_path):
    fresh = kernel_doc()
    # A different machine: throughput and speedup swing wildly — fine.
    fresh["scenarios"][0]["events_per_sec"] = 9999.0
    fresh["scenarios"][0]["wall_s"] = 0.01
    fresh["speedups"][0]["speedup"] = 1.1
    assert run(tmp_path, kernel_doc(), fresh) == 0


def test_kernel_bench_order_crc_is_exact(tmp_path, capsys):
    fresh = kernel_doc()
    fresh["order"][0]["order_crc"] = 987654321  # pop order changed
    assert run(tmp_path, kernel_doc(), fresh) == 1
    assert "order_crc" in capsys.readouterr().err


def test_kernel_bench_event_count_is_exact(tmp_path, capsys):
    fresh = kernel_doc()
    fresh["scenarios"][1]["n_events"] = 999
    assert run(tmp_path, kernel_doc(), fresh) == 1
    assert "n_events" in capsys.readouterr().err


def test_kernel_bench_different_event_scale_not_comparable(tmp_path):
    assert run(tmp_path, kernel_doc(), kernel_doc(events=500)) == 2


def test_quick_kernel_run_gates_order_section_only(tmp_path):
    """verify.sh gates a --quick (100k) run against the 1M baseline on the
    size-independent order section: --skip-compat events + --sections."""
    fresh = kernel_doc(events=100_000, quick=True)
    fresh["scenarios"] = [dict(s, n_events=100_000) for s in fresh["scenarios"]]
    # full comparison: not comparable (different event scale)
    assert run(tmp_path, kernel_doc(), fresh) == 2
    # the verify.sh invocation: order rows only, events exempted
    assert run(tmp_path, kernel_doc(), fresh,
               "--sections", "order", "--skip-compat", "events") == 0
    bad = json.loads(json.dumps(fresh))
    bad["order"][0]["order_crc"] = 1
    assert run(tmp_path, kernel_doc(), bad,
               "--sections", "order", "--skip-compat", "events") == 1


def test_unknown_section_name_is_not_comparable(tmp_path, capsys):
    assert run(tmp_path, kernel_doc(), kernel_doc(),
               "--sections", "nonsense") == 2
    assert "unknown section" in capsys.readouterr().err


def shard_doc(**overrides):
    exact = ["groups", "invocations", "n_events", "n_epochs", "n_envelopes",
             "merged_crc"]
    throughput = ["wall_s", "events_per_sec", "scaleout"]
    doc = {
        "experiment": "shard_bench",
        "seed": 7,
        "profile": "full",
        "cpu_count": 4,
        "gates": {
            "scaleout": {"key": ["scenario", "shards"], "exact": exact,
                         "ignore": throughput},
            "smoke": {"key": ["scenario", "shards"],
                      "exact": exact + ["pop_crc"], "ignore": throughput},
            "tracing": {"key": ["scenario", "shards"],
                        "exact": ["groups", "invocations", "n_events",
                                  "merged_crc", "trace_digest", "n_spans",
                                  "n_envelopes"],
                        "ignore": ["events_per_sec_ratio"]},
        },
        "scaleout": [
            {"scenario": "pool", "shards": 1, "groups": 8,
             "invocations": 1_000_000, "n_events": 5_000_016,
             "n_epochs": 1, "n_envelopes": 0, "merged_crc": 111,
             "wall_s": 40.0, "events_per_sec": 125_000.0, "scaleout": 1.0},
            {"scenario": "pool", "shards": 4, "groups": 8,
             "invocations": 1_000_000, "n_events": 5_000_016,
             "n_epochs": 1, "n_envelopes": 0, "merged_crc": 111,
             "wall_s": 15.0, "events_per_sec": 333_000.0, "scaleout": 2.7},
        ],
        "smoke": [
            {"scenario": "pool", "shards": 1, "groups": 8,
             "invocations": 50_000, "n_events": 250_016, "n_epochs": 1,
             "n_envelopes": 0, "merged_crc": 222, "pop_crc": 333,
             "wall_s": 2.0, "events_per_sec": 125_000.0, "scaleout": 1.0},
            {"scenario": "sync", "shards": 2, "groups": 8,
             "invocations": 50_000, "n_events": 250_400, "n_epochs": 64,
             "n_envelopes": 210, "merged_crc": 444,
             "wall_s": 2.5, "events_per_sec": 100_000.0, "scaleout": 0.9},
        ],
        "tracing": [
            {"scenario": "pool", "shards": 2, "groups": 8,
             "invocations": 20_000, "n_events": 100_016,
             "merged_crc": 555, "trace_digest": 666, "n_spans": 60_000,
             "n_envelopes": 0, "events_per_sec_ratio": 0.55},
        ],
    }
    doc.update(overrides)
    return doc


def test_shard_bench_throughput_ignored_digest_exact(tmp_path, capsys):
    fresh = shard_doc()
    # another machine: wall/throughput/scaleout swing freely
    fresh["scaleout"][1].update(wall_s=60.0, events_per_sec=83_000.0,
                                scaleout=0.66)
    fresh["cpu_count"] = 1
    assert run(tmp_path, shard_doc(), fresh) == 0
    # ...but a merged-outcome digest change is a correctness regression
    bad = shard_doc()
    bad["smoke"][1]["merged_crc"] = 999
    assert run(tmp_path, shard_doc(), bad) == 1
    assert "merged_crc" in capsys.readouterr().err


def test_shard_bench_epoch_and_envelope_counts_exact(tmp_path, capsys):
    bad = shard_doc()
    bad["smoke"][1]["n_envelopes"] = 211
    assert run(tmp_path, shard_doc(), bad) == 1
    assert "n_envelopes" in capsys.readouterr().err


def test_shard_bench_smoke_only_fresh_run(tmp_path):
    """The verify.sh shape: fresh smoke rows gated against the committed
    full-profile baseline with --sections smoke."""
    fresh = shard_doc(profile="smoke", scaleout=[])
    assert run(tmp_path, shard_doc(), fresh, "--sections", "smoke") == 0


def test_real_committed_baselines_self_compare(tmp_path):
    """The committed baselines must be valid inputs to their own gate."""
    root = Path(__file__).resolve().parent.parent
    for name in ("BENCH_sched.json", "BENCH_ablation.json",
                 "BENCH_kernel.json", "BENCH_shard.json", "BENCH_llm.json",
                 "BENCH_sharing.json"):
        path = root / name
        assert bench_compare.main([str(path), str(path)]) == 0


def test_committed_gates_match_their_producers():
    """Each committed file's declaration is the one its producer writes,
    so a regenerated baseline keeps the same gates."""
    from repro.experiments import (fig4, llm_ablation, sched_ablation,
                                   shard_ablation, sharing)

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "bench_kernel", root / "scripts" / "bench_kernel.py")
    bench_kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernel)
    producers = {"BENCH_ablation.json": fig4, "BENCH_sched.json": sched_ablation,
                 "BENCH_llm.json": llm_ablation, "BENCH_shard.json": shard_ablation,
                 "BENCH_kernel.json": bench_kernel, "BENCH_sharing.json": sharing}
    for name, producer in producers.items():
        doc = json.loads((root / name).read_text())
        assert doc["gates"] == producer.GATES, name
        if hasattr(producer, "EXPERIMENT"):
            assert doc["experiment"] == producer.EXPERIMENT, name
    # the files ``python -m repro.experiments NAME --out`` rewrites carry
    # exactly the header it writes plus the module's sections, so a
    # regenerated baseline differs from the committed one only in its rows
    # (BENCH_shard.json keeps its older header until its scaleout
    # re-record: verify.sh gates a --copies 0 smoke against it)
    header = {"experiment", "seed", "copies", "python", "cpu_count",
              "wall_seconds", "gates"}
    for name in ("BENCH_ablation.json", "BENCH_sched.json", "BENCH_llm.json",
                 "BENCH_sharing.json"):
        doc = json.loads((root / name).read_text())
        assert set(doc) == header | set(producers[name].GATES), name


# --- shard_bench tracing section ---------------------------------------------

def test_tracing_digest_and_span_count_are_exact_gated(tmp_path, capsys):
    fresh = shard_doc()
    fresh["tracing"][0]["trace_digest"] += 1
    assert run(tmp_path, shard_doc(), fresh, "--sections", "tracing") == 1
    assert "trace_digest" in capsys.readouterr().err

    fresh = shard_doc()
    fresh["tracing"][0]["n_spans"] -= 10
    assert run(tmp_path, shard_doc(), fresh, "--sections", "tracing") == 1
    assert "n_spans" in capsys.readouterr().err


def test_tracing_overhead_ratio_is_never_banded(tmp_path):
    fresh = shard_doc()
    # 10x slower tracing is a machine property, not a regression
    fresh["tracing"][0]["events_per_sec_ratio"] = 0.05
    assert run(tmp_path, shard_doc(), fresh, "--sections", "tracing") == 0


def test_empty_named_section_fails(tmp_path, capsys):
    """An empty section named by --sections is every one of its baseline
    rows gone missing."""
    fresh = shard_doc(profile="smoke", scaleout=[], tracing=[])
    assert run(tmp_path, shard_doc(), fresh,
               "--sections", "smoke,tracing") == 1
    assert "tracing[pool/2]: row missing from fresh run" \
        in capsys.readouterr().err


def test_smoke_and_tracing_sections_compare_together(tmp_path, capsys):
    """The verify.sh shape: fresh smoke+tracing rows against the committed
    full baseline, scaleout left to the manual refresh."""
    fresh = shard_doc(profile="smoke", scaleout=[])
    assert run(tmp_path, shard_doc(), fresh,
               "--sections", "smoke,tracing") == 0
    assert "OK: 3 row(s)" in capsys.readouterr().out
