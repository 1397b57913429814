#!/usr/bin/env python3
"""Compare two benchmark reports metric by metric.

    python3 bench/compare.py BASE FRESH

BASE and FRESH are ``--out`` directories of ``bench/run.py`` (one
subdirectory per workload).  For every workload found in both it prints
each end-to-end metric with its base and fresh value, the change and the
bound ``BENCHMARK.json`` allows, then the workload's own user-visible
metrics with their bounds, whether ``sim_digest`` matched, and, when both
sides hold a traced report, the per-layer metrics side by side so a moved
number points at a layer.

Exit status 1 when any end-to-end or workload metric got worse than its
bound; per-layer metrics have no bound and never fail the comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


def change(base: float, fresh: float, better: str, bound: float) -> tuple[float, bool]:
    """(relative change, worse than the bound?) of ``fresh`` against ``base``."""
    delta = (fresh - base) / abs(base) if base else (0.0 if fresh == base else float("inf"))
    worse = delta if better == "lower" else -delta
    return delta, worse > bound + 1e-12


def _row(name, unit, base, fresh, better, bound) -> tuple[str, bool]:
    delta, regressed = change(base, fresh, better, bound)
    verdict = "WORSE" if regressed else "ok"
    text = (f"  {name:<38} {base:>12.6g} {fresh:>12.6g} {delta:>+9.2%} "
            f"{bound:>7.0%} {unit:<6} {verdict}")
    return text, regressed


def compare_workload(name: str, base_dir: Path, fresh_dir: Path, spec: dict) -> bool:
    """Print one workload's comparison; True when something regressed."""
    regressed = False
    base, fresh = _load(base_dir / "result.json"), _load(fresh_dir / "result.json")
    print(f"{name}")
    if base is not None and fresh is not None:
        print(f"  {'metric':<38} {'base':>12} {'fresh':>12} {'change':>9} "
              f"{'bound':>7} unit")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in base["metrics"] or key not in fresh["metrics"]:
                print(f"  {key:<38} missing from a report")
                regressed = True
                continue
            text, bad = _row(key, metric["unit"], base["metrics"][key]["value"],
                             fresh["metrics"][key]["value"], metric["better"],
                             metric["bound"])
            print(text)
            regressed |= bad
        for key, extra in base["extras"].items():
            if key not in fresh["extras"]:
                print(f"  {key:<38} missing from fresh")
                regressed = True
                continue
            text, bad = _row(key, extra["unit"], extra["value"],
                             fresh["extras"][key]["value"], extra["better"],
                             extra["bound"])
            print(text)
            regressed |= bad
        for side, report in (("base", base), ("fresh", fresh)):
            failed = [c[0] for c in report["checks"] if not c[1]]
            if failed:
                print(f"  {side} failed checks: {', '.join(failed)}")
                regressed = True
    else:
        print("  no untraced report on both sides")
    base_layers = _load(base_dir / "layers.json")
    fresh_layers = _load(fresh_dir / "layers.json")
    digests = [r["sim_digest"] for r in (base, fresh, base_layers, fresh_layers) if r]
    same = len(set(digests)) == 1
    print(f"  sim_digest {'identical' if same else 'DIFFERS'}: "
          + " ".join(f"{d:#010x}" for d in digests))
    if base_layers is not None and fresh_layers is not None:
        print(f"  {'per-layer metric':<38} {'base':>12} {'fresh':>12} {'change':>12}")
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key not in base_layers["metrics"] or key not in fresh_layers["metrics"]:
                print(f"  {key:<38} missing from a report")
                continue
            b = base_layers["metrics"][key]["value"]
            f = fresh_layers["metrics"][key]["value"]
            if key.endswith(".share"):
                moved = f"{(f - b) * 100:>+10.2f}pp"
            else:
                moved = f"{(f - b) / abs(b):>+12.2%}" if b else f"{'':>12}"
            print(f"  {key:<38} {b:>12.6g} {f:>12.6g} {moved} {metric['unit']}")
    return regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("fresh", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]
             if (args.base / w["name"]).is_dir() and (args.fresh / w["name"]).is_dir()]
    if not names:
        print(f"no workload reported in both {args.base} and {args.fresh}",
              file=sys.stderr)
        return 2
    regressed = [name for name in names
                 if compare_workload(name, args.base / name, args.fresh / name, spec)]
    if regressed:
        print(f"\nWORSE than the bound on: {', '.join(regressed)}")
        return 1
    print(f"\nno metric worse than its bound ({len(names)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
