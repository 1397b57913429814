"""Flight-recorder bundles: one self-validating artifact per sharded run.

A sharded run with tracing on ends holding the whole story — merged span
timeline, merged metrics, SLO alerts (per-shard streams + the
cluster-level re-evaluation), critical-path attribution, and the
conservative-sync epoch telemetry.  :func:`write_flight_bundle` freezes
all of it into one directory so the run can be debugged (or a CI
artifact inspected) long after the processes are gone:

========================  ==================================================
file                      contents
========================  ==================================================
``manifest.json``         run shape, digests, file inventory (the index)
``trace.json``            Chrome trace-event JSON — load in Perfetto
``records.json``          exact span records (tracer snapshot form) — the
                          digest-checkable source of truth; ``trace.json``
                          stores microsecond floats and is lossy
``metrics.json``          merged registry dump (``as_dict`` form)
``alerts.json``           per-shard SLO transitions + cluster re-evaluation
``critpath.json``         critical-path aggregate + coverage violations
``flame.folded``          folded critical-path stacks (``stack weight``
                          lines) — feed two bundles' copies to
                          :mod:`repro.obs.diff` for a flamegraph diff
``epochs.json``           ``run_sharded``'s sync telemetry (epoch log,
                          barrier stalls, envelope traffic, imbalance)
========================  ==================================================

:func:`validate_flight_bundle` re-opens a bundle and checks it end to
end — files present, trace loadable with per-shard tracks, the records
digest matching the manifest, critpath coverage above the bar — and
returns a list of problems (empty = valid), which is what
``scripts/shard_report.py --validate`` and verify.sh gate on.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.critpath import critpath_report, dump_folded, folded_stacks
from repro.obs.slo import evaluate_cluster_slo
from repro.obs.trace import SpanRecord, trace_digest

__all__ = [
    "BUNDLE_VERSION",
    "write_flight_bundle",
    "validate_flight_bundle",
    "load_chrome_records",
    "load_bundle_records",
]

BUNDLE_VERSION = 1

#: the critpath coverage bar a bundle must clear to validate (the same
#: 95% bar ``scripts/profile_report.py`` enforces)
DEFAULT_MIN_COVERAGE = 0.95

_BUNDLE_FILES = (
    "trace.json",
    "records.json",
    "metrics.json",
    "alerts.json",
    "critpath.json",
    "flame.folded",
    "epochs.json",
)


def _dump(path: str, payload) -> None:
    # default=str matches trace_digest's canonicalization: a non-JSON arg
    # value (numpy scalar, enum, ...) serializes to the same string the
    # digest hashed, so a written-then-reloaded bundle digests identically
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)


def write_flight_bundle(result, out_dir,
                        min_coverage: float = DEFAULT_MIN_COVERAGE,
                        cluster_rules: Optional[list] = None) -> dict:
    """Freeze a traced :class:`~repro.sim.shard.ShardRunResult` to disk.

    Requires a run made with ``run_sharded(..., tracing=True)`` — without
    the merged tracer there is nothing to record.  Returns the manifest
    dict (also written as ``manifest.json``).
    """
    if result.tracer is None:
        raise ConfigurationError(
            "flight bundle requires a traced run: pass tracing=True to "
            "run_sharded (result.tracer is None)"
        )
    os.makedirs(out_dir, exist_ok=True)
    tracer = result.tracer

    cluster = evaluate_cluster_slo(result.metrics, rules=cluster_rules)
    critpath = critpath_report(tracer, min_coverage=min_coverage)
    # per-invocation rows can run to millions; the bundle keeps the
    # aggregate + the violation list (names the offenders) and records
    # how many rows were summarized away
    critpath_out = {
        "aggregate": critpath["aggregate"],
        "violations": critpath["violations"],
        "min_coverage": min_coverage,
        "invocations": len(critpath["per_invocation"]),
        "coverage_min": min(
            (row["coverage"] for row in critpath["per_invocation"]),
            default=None,
        ),
    }

    _dump(os.path.join(out_dir, "trace.json"), tracer.to_chrome())
    _dump(os.path.join(out_dir, "records.json"), tracer.snapshot())
    _dump(os.path.join(out_dir, "metrics.json"), result.metrics.as_dict())
    _dump(os.path.join(out_dir, "alerts.json"), {
        "shard": result.alerts,
        "cluster": cluster.alert_log(),
        "cluster_summary": cluster.summary(),
    })
    _dump(os.path.join(out_dir, "critpath.json"), critpath_out)
    dump_folded(folded_stacks(tracer), os.path.join(out_dir, "flame.folded"))
    _dump(os.path.join(out_dir, "epochs.json"), result.sync)

    lookahead = result.lookahead_s
    manifest = {
        "version": BUNDLE_VERSION,
        "num_shards": result.num_shards,
        "total_groups": result.total_groups,
        "mode": result.mode,
        "lookahead_s": None if lookahead == float("inf") else lookahead,
        "n_epochs": result.n_epochs,
        "n_envelopes": result.n_envelopes,
        "events_processed": result.events_processed,
        "merged_digest": result.merged_digest,
        "trace_digest": result.trace_digest,
        "n_span_records": len(tracer.records),
        "n_alerts": len(result.alerts),
        "files": list(_BUNDLE_FILES),
        # sampling provenance: a bundle made at rate < 1.0 holds a
        # *subset* of traces — diffing it against an unsampled bundle is
        # valid for kept traces but the cohorts are smaller
        "sampled_out": tracer.sampled_out,
        "sampling": tracer.summary().get("sampling"),
    }
    _dump(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def load_chrome_records(path) -> list[dict]:
    """Load a bundle's ``trace.json`` back into flat span dicts.

    Reverses the export's integer pid/tid mapping via the
    ``process_name``/``thread_name`` metadata events, so each returned
    dict carries the original string track names.  Times are microsecond
    floats as stored — lossy vs the simulator's seconds; digest checks
    must use ``records.json`` (:func:`load_bundle_records`) instead.
    """
    with open(path) as fh:
        chrome = json.load(fh)
    events = chrome.get("traceEvents")
    if not isinstance(events, list):
        raise ConfigurationError(f"{path}: no traceEvents list")
    pid_names: dict[int, str] = {}
    tid_names: dict[tuple[int, int], str] = {}
    records = []
    for event in events:
        if event.get("ph") == "M":
            if event["name"] == "process_name":
                pid_names[event["pid"]] = event["args"]["name"]
            elif event["name"] == "thread_name":
                tid_names[(event["pid"], event["tid"])] = event["args"]["name"]
            continue
        records.append({
            "name": event["name"],
            "cat": event.get("cat"),
            "ph": event.get("ph"),
            "ts_us": event.get("ts"),
            "dur_us": event.get("dur", 0.0),
            "pid": pid_names.get(event["pid"], str(event["pid"])),
            "tid": tid_names.get((event["pid"], event["tid"]),
                                 str(event["tid"])),
            "args": event.get("args", {}),
        })
    return records


def load_bundle_records(path) -> list[SpanRecord]:
    """Load a bundle's ``records.json`` back into :class:`SpanRecord`\\ s
    (exact floats — the digest-checkable form)."""
    with open(path) as fh:
        snapshot = json.load(fh)
    records = []
    for entry in snapshot["records"]:
        (span_id, parent_id, trace_id, name, cat,
         t_start, t_end, pid, tid, ph, args) = entry
        records.append(SpanRecord(
            span_id=span_id, parent_id=parent_id, trace_id=trace_id,
            name=name, cat=cat, t_start=t_start, t_end=t_end,
            pid=pid, tid=tid, ph=ph, args=args,
        ))
    return records


def validate_flight_bundle(bundle_dir,
                           min_coverage: float = DEFAULT_MIN_COVERAGE) -> list[str]:
    """Check a bundle end to end; returns problems (empty = valid)."""
    problems: list[str] = []
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    if manifest.get("version") != BUNDLE_VERSION:
        return [f"unsupported bundle version {manifest.get('version')!r} "
                f"(expected {BUNDLE_VERSION})"]
    for name in manifest.get("files", _BUNDLE_FILES):
        if not os.path.exists(os.path.join(bundle_dir, name)):
            problems.append(f"missing bundle file: {name}")
    if problems:
        return problems

    # trace.json: loadable, and with >1 shard every shard owns a track
    try:
        records = load_chrome_records(os.path.join(bundle_dir, "trace.json"))
    except (OSError, ValueError, KeyError, ConfigurationError) as exc:
        problems.append(f"trace.json unloadable: {exc}")
        records = []
    if manifest.get("num_shards", 1) > 1 and records:
        shard_tracks = {
            r["pid"].split("/", 1)[0]
            for r in records if r["pid"].startswith("shard")
        }
        if len(shard_tracks) < manifest["num_shards"]:
            problems.append(
                f"trace.json has spans from {len(shard_tracks)} shard "
                f"track(s), expected {manifest['num_shards']}"
            )

    # records.json: the exact form must reproduce the manifest digest
    try:
        exact = load_bundle_records(os.path.join(bundle_dir, "records.json"))
        digest = trace_digest(exact)
        if digest != manifest.get("trace_digest"):
            problems.append(
                f"records.json digest {digest} != manifest trace_digest "
                f"{manifest.get('trace_digest')}"
            )
        if len(exact) != manifest.get("n_span_records"):
            problems.append(
                f"records.json holds {len(exact)} records, manifest says "
                f"{manifest.get('n_span_records')}"
            )
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"records.json unloadable: {exc}")

    # critpath.json: coverage bar
    try:
        with open(os.path.join(bundle_dir, "critpath.json")) as fh:
            critpath = json.load(fh)
        for violation in critpath.get("violations", []):
            problems.append(f"critpath violation: {violation}")
        coverage_min = critpath.get("coverage_min")
        if coverage_min is not None and coverage_min < min_coverage:
            problems.append(
                f"critpath coverage_min {coverage_min:.3f} < {min_coverage}"
            )
    except (OSError, ValueError) as exc:
        problems.append(f"critpath.json unloadable: {exc}")

    # alerts.json / epochs.json: well-formed and consistent with manifest
    try:
        with open(os.path.join(bundle_dir, "alerts.json")) as fh:
            alerts = json.load(fh)
        if not isinstance(alerts.get("shard"), list) \
                or not isinstance(alerts.get("cluster"), list):
            problems.append("alerts.json missing shard/cluster lists")
        elif len(alerts["shard"]) != manifest.get("n_alerts"):
            problems.append(
                f"alerts.json holds {len(alerts['shard'])} shard alerts, "
                f"manifest says {manifest.get('n_alerts')}"
            )
    except (OSError, ValueError) as exc:
        problems.append(f"alerts.json unloadable: {exc}")
    try:
        with open(os.path.join(bundle_dir, "epochs.json")) as fh:
            epochs = json.load(fh)
        if epochs.get("n_epochs") != manifest.get("n_epochs"):
            problems.append(
                f"epochs.json n_epochs {epochs.get('n_epochs')} != "
                f"manifest {manifest.get('n_epochs')}"
            )
    except (OSError, ValueError) as exc:
        problems.append(f"epochs.json unloadable: {exc}")
    return problems
