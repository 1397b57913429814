#!/usr/bin/env bash
# Repo verification: lint (when ruff is available) + tier-1 test suite.
#
# Usage: scripts/verify.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
# Parallelize across cores when pytest-xdist is installed (CI installs it;
# the suite is isolation-clean under -n auto). Fall back to serial -x.
if PYTHONPATH=src python -c "import xdist" >/dev/null 2>&1; then
    PYTHONPATH=src python -m pytest -q -n auto "$@"
else
    PYTHONPATH=src python -m pytest -x -q "$@"
fi

echo "== §VIII-E migration experiment (experiments migration) =="
# The defaults are the committed BENCH_migration.json's parameters (seed 0,
# copies 10, which it does not use): six plan runs give Fig. 8 and the
# migration confirmation-window ablation, plus Table V's microbenchmark
# and the Table I migration strategies.  The run fails itself if any of
# their claims stops holding.
MIGRATION_OUT="${MIGRATION_BENCH_OUT:-/tmp/dgsf-bench-migration.json}"
PYTHONPATH=src python -m repro.experiments migration --out "$MIGRATION_OUT"

echo "== migration-bench regression gate (bench_compare) =="
python scripts/bench_compare.py BENCH_migration.json "$MIGRATION_OUT"

echo "== crash-recovery benchmark =="
PYTHONPATH=src python -m pytest -q --benchmark-disable \
    benchmarks/test_ablation_faults.py

echo "== full-stack benchmark smoke (bench/tests) =="
# Runs every bench/ workload for --seconds 1, untraced and traced: each
# declared metric is emitted and sim_digest repeats.  This is the only
# step that imports bench/, which reads repro.obs.critpath and
# repro.obs.diff.
PYTHONPATH=src python -m pytest -q bench/tests

echo "== observability smoke (profile_report) =="
PYTHONPATH=src python scripts/profile_report.py \
    --workload kmeans \
    --out-dir "${PROFILE_OUT_DIR:-/tmp/dgsf-profile}" \
    --min-coverage 0.95

echo "== scheduler ablation smoke (experiments sched) =="
# seed and copies must match the committed BENCH_sched.json (seed=3,
# copies=4) or bench_compare refuses the comparison.  Every baseline row
# must come back: bench_compare reads each file's declared gates and
# fails on a missing row.
SCHED_OUT="${SCHED_BENCH_OUT:-/tmp/dgsf-bench-sched.json}"
PYTHONPATH=src python -m repro.experiments sched --seed 3 --copies 4 \
    --out "$SCHED_OUT"

echo "== perf-regression gate (bench_compare) =="
python scripts/bench_compare.py BENCH_sched.json "$SCHED_OUT"

echo "== critical-path ablation (experiments critpath) =="
# The bottleneck moves: gpu_compute uncontended, more wire with every
# optimization off, queue at one GPU.  The run fails itself if a claim
# stops holding.
PYTHONPATH=src python -m repro.experiments critpath --copies 2

echo "== §VIII-B/C runtimes experiment (experiments runtimes) =="
# The defaults are the committed BENCH_runtimes.json's parameters (seed 0,
# copies 10, which it does not use): nine single-invocation runs per
# workload give Table II (native, DGSF, Lambda and CPU runtimes, each GPU
# path within 25% of the paper), Fig. 3's phase split and Fig. 4's
# cumulative optimizations, plus the async-stream and batch-threshold
# ablations.  The run fails itself if any of their claims stops holding.
RUNTIMES_OUT="${RUNTIMES_BENCH_OUT:-/tmp/dgsf-bench-runtimes.json}"
PYTHONPATH=src python -m repro.experiments runtimes --out "$RUNTIMES_OUT"

echo "== runtimes-bench regression gate (bench_compare) =="
python scripts/bench_compare.py BENCH_runtimes.json "$RUNTIMES_OUT"

echo "== §VIII-D sharing experiment (experiments sharing) =="
# The defaults are the committed BENCH_sharing.json's parameters (seed 0,
# copies 10): 14 simulations give Tables III-IV and Figs. 5-7.  The run
# fails itself if any of the paper's sharing shape claims stops holding.
SHARING_OUT="${SHARING_BENCH_OUT:-/tmp/dgsf-bench-sharing.json}"
PYTHONPATH=src python -m repro.experiments sharing --out "$SHARING_OUT"

echo "== sharing-bench regression gate (bench_compare) =="
python scripts/bench_compare.py BENCH_sharing.json "$SHARING_OUT"

echo "== kernel event-throughput bench (bench_kernel, --quick) =="
# The committed BENCH_kernel.json is the full 1M-event profile (manual
# refresh, ~90s); the smoke runs the 100k --quick profile and gates only
# the size-independent order section (ORDER_EVENTS is fixed, so the pop
# digests are comparable across profiles). --min-speedup stays well below
# the committed ~4x so only a real structural regression trips it on a
# noisy runner.
KERNEL_OUT="${KERNEL_BENCH_OUT:-/tmp/dgsf-bench-kernel.json}"
PYTHONPATH=src python scripts/bench_kernel.py --quick --out "$KERNEL_OUT" \
    --min-speedup 1.5

echo "== kernel-bench regression gate (bench_compare) =="
python scripts/bench_compare.py BENCH_kernel.json "$KERNEL_OUT" \
    --sections order --skip-compat events

echo "== sharded-simulation smoke (experiments shard) =="
# --copies 0 skips the 1M-invocation scaleout section (a manual refresh,
# --copies 10) and regenerates the smoke rows at 1/2/4/8 shards plus the
# tracing rows.  The run fails itself if the merged digest moves across
# shard counts or with tracing, if the 1-shard pop order differs from a
# plain single-process run, or, on a machine with >= 4 cores, if the
# pool at 4 shards runs below 1.2x the 1-shard events/sec.
SHARD_OUT="${SHARD_BENCH_OUT:-/tmp/dgsf-bench-shard.json}"
PYTHONPATH=src python -m repro.experiments shard --seed 7 --copies 0 \
    --out "$SHARD_OUT"

echo "== shard-bench regression gate (bench_compare) =="
# smoke gates the merged-outcome digests; tracing gates the merged
# trace_digest/n_spans exactly (throughput fields are declared ignored —
# they are machine-dependent)
python scripts/bench_compare.py BENCH_shard.json "$SHARD_OUT" \
    --sections smoke,tracing

echo "== LLM serving smoke (experiments llm) =="
# seed and copies must match the committed BENCH_llm.json (seed=0,
# copies=2).  The run also fails itself unless continuous batching beats
# request-level on steady-chat p99 token latency.
LLM_OUT="${LLM_BENCH_OUT:-/tmp/dgsf-bench-llm.json}"
PYTHONPATH=src python -m repro.experiments llm --seed 0 --copies 2 \
    --out "$LLM_OUT"

echo "== llm-bench regression gate (bench_compare) =="
# token/iteration/preemption/migration counts gate exactly; latency
# percentiles band; nothing throughput-shaped is compared.  --explain
# prints differential regression attribution on a banded failure.
python scripts/bench_compare.py BENCH_llm.json "$LLM_OUT" --explain

echo "== regression-attribution smoke (explain_smoke) =="
# Injects a synthetic queue slowdown into a copy of the fresh LLM bench
# and asserts bench_compare --explain blames the right category; the
# perturbed copy + attribution diff land in EXPLAIN_OUT_DIR as the CI
# diff-report artifact.  Misattribution exits non-zero.
python scripts/explain_smoke.py "$LLM_OUT" \
    --out "${EXPLAIN_OUT_DIR:-/tmp/dgsf-explain-smoke}"

echo "== sharded flight-recorder smoke (shard_report) =="
# 4-shard process-mode traced run -> one merged flight bundle; the script
# itself re-validates the bundle (per-shard tracks, records digest,
# critpath coverage), then shard_report --validate re-opens it the way a
# CI-artifact consumer would.
FLIGHT_OUT="${FLIGHT_OUT_DIR:-/tmp/dgsf-flight}"
PYTHONPATH=src python scripts/shard_report.py --out-dir "$FLIGHT_OUT"
PYTHONPATH=src python scripts/shard_report.py --validate "$FLIGHT_OUT"
