"""Differential regression attribution: *why* did the tail move?

A banded-metric failure ("steady p99 +40 ms") names the symptom; this
module names the cause.  It aligns two runs — flight bundles, critpath
attribution reports, or benchmark rows carrying embedded attribution —
by workload x percentile x resource category and decomposes the latency
delta additively:

    steady/continuous p99 +40.0 ms: 80% queue, 15% gpu_compute

The decomposition leans on the critical-path invariant
(:mod:`repro.obs.critpath`): per-invocation resource seconds sum to the
invocation's wall time (coverage >= 95%), so the *mean over a tail
cohort* of each category is an additive split of that cohort's mean
latency — and the per-category deltas between two runs sum to the
latency delta.  No heuristics, no span re-matching: plain subtraction.

Three layers:

* :func:`cohort_attribution` — critpath rows -> per-workload tail
  cohorts (invocations at/above each percentile cutoff) with mean
  resource seconds per category,
* :func:`diff_attribution` + :func:`format_diff_row` — align two
  attribution maps and emit the regression table,
* :func:`flame_diff` — two folded-stack maps -> difffolded lines
  (``stack base fresh``, integer microseconds) loadable in
  ``flamegraph.pl --negate`` / speedscope's diff view.

``python -m repro.obs.diff BASE FRESH [--out DIR]`` runs the whole
pipeline from the CLI; ``scripts/bench_compare.py --explain`` calls the
same functions when a banded metric fails in CI.

Everything here is offline analysis over frozen artifacts — it never
touches a live simulation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.critpath import (
    RESOURCES,
    folded_stacks,
    invocation_critpaths,
)
from repro.obs.metrics import percentile

__all__ = [
    "PERCENTILES",
    "cohort_attribution",
    "attribution_from_tracer",
    "attribution_from_bundle",
    "load_attribution",
    "diff_attribution",
    "format_diff_row",
    "flame_diff",
    "dump_flame_diff",
    "main",
]

#: tail percentiles attribution is computed at
PERCENTILES = (50, 95, 99)

#: minimum share of the latency delta a category must explain to be
#: named in the formatted line (smaller contributors fold into the rest)
_SHARE_FLOOR = 0.05


class _RecordsView:
    """Duck-typed stand-in for a Tracer over already-frozen records.

    :func:`~repro.obs.critpath.invocation_critpaths` and
    :func:`~repro.obs.critpath.folded_stacks` only need ``by_trace()``,
    so a bundle's ``records.json`` can feed them without a live tracer.
    """

    def __init__(self, records):
        self.records = records

    def by_trace(self):
        out = {}
        for r in self.records:
            if r.trace_id is not None:
                out.setdefault(r.trace_id, []).append(r)
        return out


# -- layer 1: cohort attribution ---------------------------------------------

def cohort_attribution(rows, percentiles=PERCENTILES) -> dict:
    """Critpath rows -> per-workload tail-cohort category means.

    ``rows`` is :func:`~repro.obs.critpath.invocation_critpaths` output.
    For each workload and each percentile ``p``, the cohort is every
    invocation with ``e2e_s >= percentile(e2e, p)`` — the invocations
    that *are* the tail, not a single order statistic — and the entry
    records the cohort's mean latency plus the mean seconds each
    resource category contributed.  Because critical-path categories
    partition wall time, ``sum(categories) ~= latency_s``; diffing two
    of these maps decomposes a latency delta additively.
    """
    by_workload: dict[str, list[dict]] = {}
    for row in rows:
        by_workload.setdefault(str(row["workload"]), []).append(row)
    out = {}
    for workload, group in sorted(by_workload.items()):
        e2es = [row["e2e_s"] for row in group]
        entry: dict = {"count": len(group)}
        for pct in percentiles:
            cutoff = percentile(e2es, pct)
            cohort = [row for row in group if row["e2e_s"] >= cutoff]
            if not cohort:  # degenerate (all-zero) group
                cohort = group
            n = len(cohort)
            entry[f"p{pct}"] = {
                "latency_s": sum(row["e2e_s"] for row in cohort) / n,
                "cohort": n,
                "categories": {
                    name: sum(row["resources"][name] for row in cohort) / n
                    for name in RESOURCES
                },
            }
        out[workload] = entry
    return out


def attribution_from_tracer(tracer, percentiles=PERCENTILES) -> dict:
    """Live (or merged) tracer -> attribution map."""
    return cohort_attribution(invocation_critpaths(tracer), percentiles)


def attribution_from_bundle(bundle_dir, percentiles=PERCENTILES) -> dict:
    """Flight bundle -> attribution map, rebuilt from ``records.json``.

    The bundle's ``critpath.json`` keeps only the aggregate (per-
    invocation rows can run to millions), so cohorts are recomputed from
    the exact span records — the digest-checked source of truth.
    """
    from repro.obs.flight import load_bundle_records

    records = load_bundle_records(os.path.join(bundle_dir, "records.json"))
    view = _RecordsView(records)
    return cohort_attribution(invocation_critpaths(view), percentiles)


def load_attribution(path) -> dict:
    """Load an attribution map from any supported artifact.

    * a flight-bundle *directory* -> rebuilt from ``records.json``,
    * a JSON file with an ``"attribution"`` key -> that map,
    * a benchmark JSON whose ``"rows"`` carry per-row ``"attribution"``
      (e.g. ``BENCH_llm.json``) -> one pseudo-workload per
      ``scenario/mode`` row,
    * a bare attribution map -> itself.
    """
    if os.path.isdir(path):
        return attribution_from_bundle(path)
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: not an attribution artifact")
    if isinstance(data.get("attribution"), dict):
        return data["attribution"]
    if isinstance(data.get("rows"), list):
        out = {}
        for row in data["rows"]:
            attr = row.get("attribution")
            if isinstance(attr, dict):
                label = "/".join(
                    str(row[k]) for k in ("scenario", "mode") if k in row
                ) or f"row{len(out)}"
                out[label] = attr
        if not out:
            raise ConfigurationError(
                f"{path}: benchmark rows carry no attribution (regenerate "
                f"with tracing enabled)"
            )
        return out
    return data


# -- layer 2: alignment + diff table -----------------------------------------

def _percentile_keys(entry: dict) -> list[str]:
    keys = [
        k for k, v in entry.items()
        if k.startswith("p") and isinstance(v, dict) and "latency_s" in v
    ]
    return sorted(keys, key=lambda k: int(k[1:]))


def diff_attribution(base: dict, fresh: dict,
                     percentiles: Optional[tuple] = None) -> list[dict]:
    """Align two attribution maps; one diff row per workload x percentile.

    Only workloads present in *both* maps are diffed (a workload that
    appeared or vanished is a shape change, not a regression).  Each row
    carries the latency delta, per-category deltas, each category's
    share of the attributed delta, and the top contributor — the
    category CI blames when the corresponding banded metric fails.
    """
    rows = []
    for workload in sorted(set(base) & set(fresh)):
        b_entry, f_entry = base[workload], fresh[workload]
        keys = [k for k in _percentile_keys(b_entry)
                if k in set(_percentile_keys(f_entry))]
        if percentiles is not None:
            wanted = {f"p{p}" for p in percentiles}
            keys = [k for k in keys if k in wanted]
        for key in keys:
            b, f = b_entry[key], f_entry[key]
            deltas = {
                name: f["categories"].get(name, 0.0)
                - b["categories"].get(name, 0.0)
                for name in sorted(set(b["categories"]) | set(f["categories"]))
            }
            delta_latency = f["latency_s"] - b["latency_s"]
            attributed = sum(deltas.values())
            sign = 1.0 if attributed >= 0 else -1.0
            # shares are magnitudes over the dominant direction, so an
            # improvement (negative deltas) attributes the same way a
            # regression does
            denom = sum(d * sign for d in deltas.values() if d * sign > 0)
            shares = {
                name: (d * sign / denom if denom > 0 and d * sign > 0 else 0.0)
                for name, d in deltas.items()
            }
            top = max(deltas, key=lambda name: sign * deltas[name])
            rows.append({
                "workload": workload,
                "percentile": key,
                "base_latency_s": b["latency_s"],
                "fresh_latency_s": f["latency_s"],
                "delta_latency_s": delta_latency,
                "deltas": deltas,
                "shares": shares,
                "top": top,
                "regression": delta_latency > 0,
            })
    return rows


def format_diff_row(row: dict) -> str:
    """``steady/continuous p99 +40.0 ms: 80% queue, 15% gpu_compute``."""
    delta_ms = row["delta_latency_s"] * 1e3
    contributors = sorted(
        ((share, name) for name, share in row["shares"].items()
         if share >= _SHARE_FLOOR),
        key=lambda pair: (-pair[0], pair[1]),
    )
    if contributors:
        detail = ", ".join(f"{share:.0%} {name}" for share, name in contributors)
    else:
        detail = "no attributed movement"
    return (f"{row['workload']} {row['percentile']} "
            f"{delta_ms:+.1f} ms: {detail}")


# -- layer 3: flamegraph diff ------------------------------------------------

def flame_diff(base_stacks: dict, fresh_stacks: dict) -> list[str]:
    """Two folded-stack maps -> difffolded lines ``stack base fresh``.

    Weights are integer microseconds (matching
    :func:`~repro.obs.critpath.dump_folded`); stacks absent from one
    side get weight 0, which is exactly how ``flamegraph.pl --negate``
    and speedscope's left-heavy diff view expect grown/vanished stacks.
    """
    lines = []
    for key in sorted(set(base_stacks) | set(fresh_stacks)):
        b = round(base_stacks.get(key, 0.0) * 1e6)
        f = round(fresh_stacks.get(key, 0.0) * 1e6)
        lines.append(f"{key} {b} {f}")
    return lines


def dump_flame_diff(base_stacks: dict, fresh_stacks: dict, path) -> int:
    """Write the difffolded flame diff to ``path``; returns line count."""
    lines = flame_diff(base_stacks, fresh_stacks)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def _bundle_stacks(path) -> Optional[dict]:
    records_path = os.path.join(path, "records.json")
    if not (os.path.isdir(path) and os.path.exists(records_path)):
        return None
    from repro.obs.flight import load_bundle_records

    return folded_stacks(_RecordsView(load_bundle_records(records_path)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="attribute a latency regression between two runs",
    )
    parser.add_argument("base", help="flight bundle dir or attribution JSON")
    parser.add_argument("fresh", help="flight bundle dir or attribution JSON")
    parser.add_argument("--out", default=None,
                        help="directory for diff.json + flame_diff.folded")
    parser.add_argument("--regressions-only", action="store_true",
                        help="print only rows whose latency moved up")
    args = parser.parse_args(argv)

    rows = diff_attribution(load_attribution(args.base),
                            load_attribution(args.fresh))
    shown = [r for r in rows if r["regression"]] \
        if args.regressions_only else rows
    for row in shown:
        print(format_diff_row(row))
    if not rows:
        print("no overlapping workloads to diff", file=sys.stderr)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "diff.json"), "w") as fh:
            json.dump({"rows": rows}, fh, indent=1, sort_keys=True)
        base_stacks = _bundle_stacks(args.base)
        fresh_stacks = _bundle_stacks(args.fresh)
        if base_stacks is not None and fresh_stacks is not None:
            dump_flame_diff(base_stacks, fresh_stacks,
                            os.path.join(args.out, "flame_diff.folded"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
