"""Tests for the flight-recorder bundle (repro.obs.flight).

One small traced sharded run is frozen to disk once per module; the
tests then exercise the write/load/validate surfaces — including the
corruption paths a CI-artifact consumer relies on to distrust a
half-uploaded or hand-edited bundle.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.faas.topology import pool_collect, pool_scenario
from repro.obs import (
    load_bundle_records,
    load_chrome_records,
    trace_digest,
    validate_flight_bundle,
    write_flight_bundle,
)
from repro.sim.shard import run_sharded

REPO_ROOT = Path(__file__).resolve().parent.parent
SYNC_ARGS = (60, 2, 0.05, 0.18, 0.5, 4)
LOOKAHEAD = 2e-3


@pytest.fixture(scope="module")
def traced_result():
    return run_sharded(
        pool_scenario, num_shards=2, total_groups=4, seed=7,
        lookahead_s=LOOKAHEAD, scenario_args=SYNC_ARGS,
        collect=pool_collect, mode="inline", tracing=True,
    )


@pytest.fixture(scope="module")
def bundle(tmp_path_factory, traced_result):
    out_dir = tmp_path_factory.mktemp("flight")
    manifest = write_flight_bundle(traced_result, out_dir)
    return out_dir, manifest


def test_write_requires_a_traced_run():
    untraced = run_sharded(
        pool_scenario, num_shards=1, total_groups=2, seed=7,
        scenario_args=(30, 2, 0.05, 0.18, None, 0),
        collect=pool_collect, mode="inline",
    )
    with pytest.raises(ConfigurationError, match="tracing=True"):
        write_flight_bundle(untraced, "/tmp/never-written")


def test_bundle_writes_every_file_and_validates(bundle, traced_result):
    out_dir, manifest = bundle
    for name in manifest["files"] + ["manifest.json"]:
        assert (out_dir / name).is_file(), name
    assert manifest["num_shards"] == 2
    assert manifest["trace_digest"] == traced_result.trace_digest
    assert manifest["merged_digest"] == traced_result.merged_digest
    assert manifest["n_span_records"] == len(traced_result.tracer.records)
    assert manifest["events_processed"] == traced_result.events_processed
    assert manifest["sleeps_elided"] == traced_result.sleeps_elided
    assert validate_flight_bundle(out_dir) == []


def test_records_json_round_trips_the_exact_digest(bundle, traced_result):
    out_dir, manifest = bundle
    records = load_bundle_records(out_dir / "records.json")
    assert trace_digest(records) == manifest["trace_digest"]
    assert trace_digest(records) == traced_result.tracer.digest()


def test_chrome_trace_reverses_track_name_mapping(bundle):
    out_dir, _ = bundle
    records = load_chrome_records(out_dir / "trace.json")
    assert records
    tracks = {r["pid"] for r in records}
    # per-shard process tracks survive the int-pid round trip
    assert any(t.startswith("shard0/") for t in tracks)
    assert any(t.startswith("shard1/") for t in tracks)
    spans = [r for r in records if r["ph"] == "X"]
    assert all(r["dur_us"] >= 0 for r in spans)


def test_epochs_file_carries_sync_telemetry(bundle, traced_result):
    out_dir, _ = bundle
    epochs = json.loads((out_dir / "epochs.json").read_text())
    assert epochs["n_epochs"] == traced_result.n_epochs
    assert epochs["n_envelopes"] == traced_result.n_envelopes
    assert len(epochs["per_shard"]) == 2


def _copy_bundle(bundle_dir, tmp_path):
    clone = tmp_path / "clone"
    clone.mkdir()
    for path in bundle_dir.iterdir():
        (clone / path.name).write_text(path.read_text())
    return clone


def test_validation_catches_missing_file(bundle, tmp_path):
    clone = _copy_bundle(bundle[0], tmp_path)
    (clone / "records.json").unlink()
    problems = validate_flight_bundle(clone)
    assert problems == ["missing bundle file: records.json"]


def test_validation_catches_tampered_records(bundle, tmp_path):
    clone = _copy_bundle(bundle[0], tmp_path)
    snapshot = json.loads((clone / "records.json").read_text())
    snapshot["records"][0][5] += 1.0      # shift one span's t_start
    (clone / "records.json").write_text(json.dumps(snapshot))
    problems = validate_flight_bundle(clone)
    assert any("digest" in p for p in problems)


def test_validation_catches_foreign_bundle_version(bundle, tmp_path):
    clone = _copy_bundle(bundle[0], tmp_path)
    manifest = json.loads((clone / "manifest.json").read_text())
    manifest["version"] = 999
    (clone / "manifest.json").write_text(json.dumps(manifest))
    problems = validate_flight_bundle(clone)
    assert problems and "unsupported bundle version" in problems[0]


def test_validation_catches_inconsistent_epochs(bundle, tmp_path):
    clone = _copy_bundle(bundle[0], tmp_path)
    epochs = json.loads((clone / "epochs.json").read_text())
    epochs["n_epochs"] += 1
    (clone / "epochs.json").write_text(json.dumps(epochs))
    problems = validate_flight_bundle(clone)
    assert any("n_epochs" in p for p in problems)


def test_validation_of_garbage_directory_is_readable(tmp_path):
    problems = validate_flight_bundle(tmp_path / "nope")
    assert len(problems) == 1 and "manifest.json unreadable" in problems[0]


def test_shard_report_validate_cli_rejects_directory_without_manifest(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "shard_report.py"),
         "--validate", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "manifest.json unreadable" in proc.stderr
    assert "Traceback" not in proc.stderr
