#!/usr/bin/env python
"""Perf-regression gate: diff a fresh bench JSON against a committed baseline.

Every committed ``BENCH_*.json`` declares its own gates in its header,
written by the producer that makes its rows (``python -m
repro.experiments NAME --out PATH`` or ``scripts/bench_kernel.py``)::

    "gates": {"<section>": {"key": [...], "exact": [...], "ignore": [...]}}

This script reads that declaration from the baseline and compares the
two files section by section, with no per-experiment code:

* **compat keys** (``experiment``, ``seed``, ``copies``, ``events``) must
  match — comparing runs with different parameters is a configuration
  error (exit 2), not a pass, and so is a baseline without gates,
* rows are matched by their section's ``key`` fields; every baseline row
  must be in the fresh run and every fresh row in the baseline,
* ``exact`` fields (counts, order and outcome digests) must be equal,
* ``ignore``d fields (machine-dependent wall and throughput numbers) are
  never compared — the kernel and shard benches keep those honest with
  their own floors instead,
* every other numeric field must satisfy
  ``|fresh - base| <= abs_tol + rel_tol * |base|`` — deviations in
  either direction fail, because in a deterministic simulator "faster"
  is just as much a behaviour change as "slower".

Environment header keys (``python``, ``cpu_count``, ``wall_seconds``) are
never compared.

Exit status: 0 = within tolerance, 1 = regression (prints every
violation), 2 = files not comparable.

With ``--explain``, a banded-metric failure is followed by differential
regression attribution (:mod:`repro.obs.diff`): rows that carry an
embedded ``attribution`` map (``BENCH_llm.json`` does) are diffed by
percentile x resource category and the violations are annotated with
*why* the tail moved — "steady/continuous p99 +40.0 ms: 80% queue" —
so CI names the guilty subsystem, not just the guilty number.
``--explain-out PATH`` additionally writes the full diff table as JSON
(the CI diff-report artifact).

Usage::

    python scripts/bench_compare.py BENCH_sched.json /tmp/fresh-sched.json
    python scripts/bench_compare.py BENCH_runtimes.json fresh.json --rel-tol 0.01
    python scripts/bench_compare.py BENCH_llm.json fresh.json --explain
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: top-level keys that must match for two runs to be comparable
COMPAT_KEYS = ("experiment", "seed", "copies", "events")


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read bench JSON {path}: {exc}")


def check_compat(baseline: dict, fresh: dict,
                 skip: frozenset = frozenset()) -> list[str]:
    problems = []
    for key in COMPAT_KEYS:
        if key in skip:
            continue
        b, f = baseline.get(key), fresh.get(key)
        if b is not None and f is not None and b != f:
            problems.append(f"compat key {key!r} differs: baseline={b} fresh={f}")
    if not baseline.get("gates"):
        problems.append("baseline declares no gates (regenerate it with its "
                        "producer)")
    return problems


def index_rows(rows: list[dict], key: list) -> dict:
    out = {}
    for row in rows:
        out[tuple(row.get(field) for field in key)] = row
    return out


def compare_section(section: str, gate: dict, base_rows: list,
                    fresh_rows: list, rel_tol: float,
                    abs_tol: float) -> list[str]:
    key = gate["key"]
    exact = set(gate["exact"])
    skipped = set(key) | set(gate["ignore"])
    base_by_key = index_rows(base_rows, key)
    fresh_by_key = index_rows(fresh_rows, key)
    problems = []
    for row_key in fresh_by_key.keys() - base_by_key.keys():
        problems.append(f"{section}[{'/'.join(str(k) for k in row_key)}]: "
                        f"row missing from baseline")
    for row_key, base_row in base_by_key.items():
        label = f"{section}[{'/'.join(str(k) for k in row_key)}]"
        fresh_row = fresh_by_key.get(row_key)
        if fresh_row is None:
            problems.append(f"{label}: row missing from fresh run")
            continue
        for field, base_val in base_row.items():
            if field in skipped or not isinstance(base_val, (int, float)):
                continue
            fresh_val = fresh_row.get(field)
            if not isinstance(fresh_val, (int, float)):
                problems.append(f"{label}.{field}: missing from fresh run")
                continue
            if field in exact:
                if fresh_val != base_val:
                    problems.append(
                        f"{label}.{field}: count changed "
                        f"{base_val} -> {fresh_val}"
                    )
                continue
            band = abs_tol + rel_tol * abs(base_val)
            delta = fresh_val - base_val
            if abs(delta) > band:
                problems.append(
                    f"{label}.{field}: {base_val} -> {fresh_val} "
                    f"(delta {delta:+.4f} exceeds band ±{band:.4f})"
                )
    return problems


def attribution_maps(gates: dict, baseline: dict,
                     fresh: dict) -> tuple[dict, dict]:
    """Collect per-row ``attribution`` maps, keyed by the row identity."""
    base_attr: dict = {}
    fresh_attr: dict = {}
    for section, gate in gates.items():
        for source, out in ((baseline, base_attr), (fresh, fresh_attr)):
            for row in source.get(section, []):
                if isinstance(row.get("attribution"), dict):
                    label = "/".join(str(row.get(f)) for f in gate["key"])
                    out[label] = row["attribution"]
    return base_attr, fresh_attr


def explain(gates: dict, baseline: dict, fresh: dict,
            out_path: Path | None) -> list[dict]:
    """Attribute the regression; prints the diff table, returns its rows.

    Imported lazily so the plain compare path needs no repro package on
    sys.path (verify.sh calls this script bare).
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs.diff import diff_attribution, format_diff_row

    base_attr, fresh_attr = attribution_maps(gates, baseline, fresh)
    rows = diff_attribution(base_attr, fresh_attr)
    if not rows:
        print("explain: rows carry no attribution maps to diff "
              "(regenerate the bench with tracing enabled)", file=sys.stderr)
    else:
        print("attribution (why the tail moved):", file=sys.stderr)
        for row in rows:
            marker = " <-- regression" if row["regression"] else ""
            print(f"  * {format_diff_row(row)}{marker}", file=sys.stderr)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps({"rows": rows}, indent=1,
                                       sort_keys=True) + "\n")
        print(f"explain: wrote {out_path}", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path,
                        help="committed baseline JSON (e.g. BENCH_sched.json)")
    parser.add_argument("fresh", type=Path,
                        help="freshly generated JSON to gate")
    parser.add_argument("--rel-tol", type=float, default=0.02,
                        help="relative tolerance per metric (default 2%%)")
    parser.add_argument("--abs-tol", type=float, default=0.05,
                        help="absolute tolerance in metric units (default 0.05)")
    parser.add_argument("--sections", default=None,
                        help="comma-separated section names to compare "
                             "(default: every section the baseline gates); "
                             "used when a quick fresh run only reproduces "
                             "the profile-independent sections")
    parser.add_argument("--skip-compat", action="append", default=[],
                        metavar="KEY",
                        help="compat key to exempt from the match check "
                             "(e.g. 'events' when gating a --quick kernel "
                             "run on its size-independent order section)")
    parser.add_argument("--explain", action="store_true",
                        help="on a banded-metric failure, print differential "
                             "regression attribution from the rows' embedded "
                             "attribution maps (repro.obs.diff)")
    parser.add_argument("--explain-out", type=Path, default=None, metavar="PATH",
                        help="also write the attribution diff table as JSON "
                             "(implies --explain)")
    args = parser.parse_args(argv)
    if args.explain_out is not None:
        args.explain = True

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    compat = check_compat(baseline, fresh, frozenset(args.skip_compat))
    if compat:
        print(f"NOT COMPARABLE: {args.baseline} vs {args.fresh}", file=sys.stderr)
        for p in compat:
            print(f"  - {p}", file=sys.stderr)
        return 2

    gates = baseline["gates"]
    if args.sections is not None:
        wanted = {name.strip() for name in args.sections.split(",") if name.strip()}
        unknown = wanted - gates.keys()
        if unknown:
            print(f"NOT COMPARABLE: unknown section(s) {sorted(unknown)} for "
                  f"experiment {baseline['experiment']!r}", file=sys.stderr)
            return 2
        gates = {name: gate for name, gate in gates.items() if name in wanted}

    problems = []
    compared = 0
    for section, gate in gates.items():
        fresh_rows = fresh.get(section, [])
        compared += len(fresh_rows)
        problems += compare_section(
            section, gate, baseline.get(section, []), fresh_rows,
            args.rel_tol, args.abs_tol,
        )

    if compared == 0:
        print("NOT COMPARABLE: fresh run contains no rows", file=sys.stderr)
        return 2
    if problems:
        print(f"REGRESSION: {args.fresh} deviates from {args.baseline} "
              f"({len(problems)} violation(s)):", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        if args.explain:
            explain(gates, baseline, fresh, args.explain_out)
        return 1
    print(f"OK: {compared} row(s) of {args.fresh} within "
          f"±({args.abs_tol} + {args.rel_tol * 100:g}%) of {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
