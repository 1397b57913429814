#!/usr/bin/env python3
"""Full-stack benchmark of the DGSF reproduction on two clocks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Runs one workload (``faas_steady``, ``faas_burst``, ``llm_chat`` or
``calibration``, see ``plans.py``) against the program in ``src/`` and
measures it from outside.  Untraced (``--trace 0``) it reports the
end-to-end metrics of ``BENCHMARK.json``: the host clock (how fast the
simulator runs, its set-up time and memory) and the simulated clock (what
the modelled DGSF system does).  Traced (``--trace 1``) it runs the same
input with tracing, counting wrappers and a stack sampler on, and reports
the per-layer metrics instead.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits with status 1, a missing program with status 2.
With ``--out DIR`` the full report goes to ``DIR/<workload>/`` for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: fresh interpreters timed for ``setup_s``
SETUP_RUNS = 5


def measure_setup(workload: str, seed: int) -> list[float]:
    """``SETUP_RUNS`` set-up times, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _with_units(values: dict, specs) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def _write(out_dir: Path, name: str, data) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if isinstance(data, list):
        path.write_text("\n".join(data) + "\n")
    else:
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of work to plan for (sets the passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the full report (none by default)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from harness import run_workload
    from plans import COMMON_EXTRAS, WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup = [] if args.trace else measure_setup(wl.name, args.seed)
    report = run_workload(wl, args.seed, args.seconds, traced=bool(args.trace))
    counts = report["counts"]
    env = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__}

    print(f"bench {wl.name}: seed {args.seed}, {args.seconds:g} s planned, "
          f"{counts['n_invocations']} {wl.unit}s in {counts['n_passes']} passes, "
          f"{report['host_s']:.2f} host CPU s")
    if args.trace:
        layers = report["layers"]
        metrics = _with_units(layers, spec["per_layer"])
        print(f"  traced, every trace kept, tracing overhead "
              f"x{layers['trace.overhead_ratio']:.3f}")
    else:
        values = dict(report["user"], setup_s=statistics.median(setup),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = _with_units(values, spec["end_to_end"])
        extras = {m.name: {"value": values[m.name], "unit": m.unit,
                           "better": m.better, "bound": m.bound}
                  for m in COMMON_EXTRAS + wl.extras}
    for name, metric in metrics.items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        for name, metric in extras.items():
            print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}  "
                  f"(compare.py bound {metric['bound']:.0%})")
    print("  counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  sim_digest {report['sim_digest']:#010x}; "
          + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, ok, detail in report["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))

    if args.out is not None:
        out_dir = args.out / wl.name
        common = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "counts": counts, "env": env,
                  "sim_digest": report["sim_digest"], "checks": report["checks"]}
        if args.trace:
            _write(out_dir, "layers.json", dict(
                common, metrics=metrics, host_s=report["host_s"]))
            _write(out_dir, "stacks.folded", report["folded"])
            _write(out_dir, "critpath.json", {"attribution": report["attribution"]})
        else:
            _write(out_dir, "result.json", dict(
                common, metrics=metrics, extras=extras, host_s=report["host_s"],
                passes=report["passes"], setup_s_samples=setup))

    correct = all(ok for _, ok, _ in report["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": counts["n_invocations"],
        "failed": counts["n_invocations"] - counts["n_completed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
