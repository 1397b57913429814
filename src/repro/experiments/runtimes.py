"""§VIII-B/C runtimes: Table II and Figs. 3–4 from one set of runs.

Table II (native/DGSF/Lambda/CPU runtimes), Fig. 3 (phase breakdown)
and Fig. 4 (the §V-C optimization ablation) each time one uncontended
invocation per workload.  This module simulates each distinct
(workload, variant) configuration once — nine runs per workload, all
``DgsfConfig(num_gpus=1, seed=seed)`` — and derives every row from them:

* ``native``, ``cpu`` and ``lambda``: Table II's baselines and the DGSF
  Lambda deployment;
* ``dgsf`` under each of Fig. 4's cumulative optimization steps
  (:data:`STEPS`).  ``no_opt`` is Fig. 3's unoptimized DGSF and
  ``+batching`` (every optimization of the paper) is DGSF in Table II
  and Fig. 3.  ``+async`` is this reproduction's extension beyond the
  paper: enqueue-only calls forwarded at once on the pipelined RPC
  channel, so server dispatch and GPU work overlap guest-side compute;
* ``dgsf_warm``: the repeat invocation with the API-server artifact
  cache enabled, Fig. 3's extra row.

The paper averages "three runs after one warmup"; the simulation is
deterministic per seed, so each configuration runs once.  Table II's
migration column takes one more 2-GPU world per workload: a forced
migration with the workload's peak memory resident.

Two §V-C microbenchmarks ride along, each on a guest wired straight to
an API server (:func:`repro.testing.make_world`):

* ``async_stream``: an RPC-bound stream of enqueue-only kernel launches
  interleaved with host compute, under ``+batching`` and ``+async``.
  Batching holds the launches below the flush threshold until the final
  sync, serializing server dispatch and GPU time after the host loop;
  async forwarding overlaps them from the first call.
* ``batch_threshold``: four ResNet inference batches under each batch
  flush threshold.  Threshold 1 sends one message per enqueue-only call;
  larger thresholds amortize it until sync points dominate.

:func:`sections` ends with :func:`check`, which raises
:class:`SimulationError` naming the first claim of these results that the
rows break.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.core.config import DgsfConfig, OptimizationFlags
from repro.core.migration import migrate_api_server
from repro.errors import SimulationError
from repro.experiments.runner import (
    run_single_invocation,
    run_single_invocation_traced,
)
from repro.mllib import OnnxInferenceSession
from repro.obs import aggregate_critpaths, invocation_critpaths
from repro.simcuda.types import GB, MB
from repro.testing import make_world
from repro.workloads import ALL_WORKLOAD_NAMES, WORKLOADS

__all__ = ["sections", "check", "STEPS", "EXPERIMENT", "GATES"]

#: ``BENCH_runtimes.json``: experiment id and its gates (call and message
#: counts exact; seconds banded)
EXPERIMENT = "runtimes"
GATES = {
    "table2": {"key": ["workload"], "exact": [], "ignore": []},
    "fig3": {"key": ["workload", "variant"], "exact": [], "ignore": []},
    "fig4": {"key": ["workload"], "exact": [], "ignore": []},
    "async_stream": {"key": ["step"],
                     "exact": ["batched", "async_forwarded", "max_in_flight"],
                     "ignore": []},
    "batch_threshold": {"key": ["flush_threshold"], "exact": ["messages"],
                        "ignore": []},
}

#: Fig. 4's cumulative optimization steps, in the paper's order
STEPS: dict[str, OptimizationFlags] = {
    "no_opt": OptimizationFlags.none(),
    "+handle_pooling": OptimizationFlags.none().with_(handle_pooling=True),
    "+descriptor_pooling": OptimizationFlags.none().with_(
        handle_pooling=True, descriptor_pooling=True),
    "+batching": OptimizationFlags.all(),
    "+async": OptimizationFlags.all().with_(async_forward=True),
}
#: the deployment variants run besides the DGSF steps
VARIANTS = ("native", "cpu", "lambda", "dgsf_warm")
#: Fig. 3's variants -> the run each reads
FIG3_RUNS = {"native": "native", "dgsf_unopt": "no_opt",
             "dgsf": "+batching", "dgsf_warm": "dgsf_warm"}
PHASES = ("download", "cuda_init", "model_load", "processing")

#: the RPC-bound stream: ROUNDS launches of KERNEL_S GPU work with HOST_S
#: of host compute after each.  ROUNDS stays below the guest's batch
#: flush threshold (48), so batching defers every launch to the sync.
ROUNDS = 40
KERNEL_S = 0.001
HOST_S = 0.0003
#: batch flush thresholds swept over four ResNet inference batches
THRESHOLDS = (1, 4, 16, 48, 128)


def _gpu_time(inv) -> float:
    """Fig. 4's time: the paper removes "the times taken to download
    input and model files", leaving CUDA init + model load + inference."""
    return (inv.phases.get("cuda_init", 0.0)
            + inv.phases.get("model_load", 0.0)
            + inv.phases.get("processing", 0.0))


def _dump_trace(dep, inv, trace_dir: Path, stem: str) -> None:
    """Export the run's Chrome trace + critical-path/phase artifacts."""
    dep.tracer.dump_chrome(trace_dir / f"{stem}.trace.json")
    rows = invocation_critpaths(dep.tracer, [inv])
    payload = {
        "per_invocation": rows,
        "aggregate": aggregate_critpaths(rows),
        "tracer": dep.tracer.summary(),
    }
    (trace_dir / f"{stem}.critpath.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )


def _simulate(name: str, variant: str, config: DgsfConfig,
              trace_dir: Optional[Path], stem: str):
    if trace_dir is None:
        return run_single_invocation(name, variant, config)
    inv, dep = run_single_invocation_traced(name, variant, config)
    _dump_trace(dep, inv, trace_dir, f"{name}_{stem}")
    return inv


def _runs(name: str, seed: int, trace_dir: Optional[Path]) -> dict:
    """The workload's nine runs: each variant, then each DGSF step."""
    config = DgsfConfig(num_gpus=1, seed=seed)
    runs = {variant: _simulate(name, variant, config, trace_dir, variant)
            for variant in VARIANTS}
    for step, flags in STEPS.items():
        runs[step] = _simulate(name, "dgsf",
                               config.with_(optimizations=flags),
                               trace_dir, step.lstrip("+"))
    return runs


def _migration_s(name: str, seed: int) -> float:
    """Table II's "Aprox. Migration Time": a forced migration with the
    workload's peak memory resident, whose cost is dominated by moving
    the application's allocations between GPUs."""
    params = WORKLOADS[name]
    world = make_world(DgsfConfig(num_gpus=2, seed=seed))
    guest, server, _ = world.attach_guest(
        declared_bytes=params.declared_gpu_bytes)

    def allocate_and_migrate():
        # allocate the workload's peak in a handful of chunks, as the apps do
        remaining = params.paper_peak_bytes
        chunk = max(64 * MB, remaining // 6)
        while remaining > 0:
            size = min(chunk, remaining)
            yield from guest.cudaMalloc(size)
            remaining -= size
        return (yield from migrate_api_server(server, 1))

    return world.drive(allocate_and_migrate()).duration_s


def _async_stream_row(step: str, seed: int) -> dict:
    """ROUNDS rounds of {enqueue a kernel, host compute}, then one sync."""
    world = make_world(DgsfConfig(num_gpus=1, seed=seed))
    guest, _, _ = world.attach_guest(flags=STEPS[step])
    env = world.env

    def stream():
        token = yield from guest.cudaGetFunction("timed")
        t0 = env.now
        for _ in range(ROUNDS):
            yield from guest.cudaLaunchKernel(token, args=(KERNEL_S,))
            yield env.timeout(HOST_S)
        yield from guest.cudaDeviceSynchronize()
        return env.now - t0

    elapsed_s = world.drive(stream())
    return {
        "step": step,
        "elapsed_ms": round(elapsed_s * 1e3, 3),
        "batched": guest.calls_batched,
        "async_forwarded": guest.calls_async_forwarded,
        "max_in_flight": guest.max_async_in_flight_seen,
    }


def _batch_threshold_row(threshold: int, seed: int) -> dict:
    """Four ResNet inference batches with one batch flush threshold."""
    world = make_world(DgsfConfig(num_gpus=1, seed=seed))
    guest, _, _ = world.attach_guest(declared_bytes=14 * GB,
                                     batch_flush_threshold=threshold)
    session = OnnxInferenceSession(
        world.env, guest, WORKLOADS["image_classification"].spec)
    world.drive(session.load())
    t0, m0 = world.env.now, guest.messages_sent
    for _ in range(4):
        world.drive(session.run(input_bytes=4 * MB))
    return {
        "flush_threshold": threshold,
        "inference_s": round(world.env.now - t0, 3),
        "messages": guest.messages_sent - m0,
    }


def sections(seed: int = 0, copies: int = 0,
             trace_dir: Optional[str] = None) -> dict[str, list[dict]]:
    """``BENCH_runtimes.json``'s sections, one per table, figure or
    microbenchmark.

    ``copies`` is unused: each row is one uncontended invocation.  With
    ``trace_dir`` set, every invocation runs with span tracing on and
    exports ``<workload>_<run>.trace.json`` (Chrome trace-event format,
    Perfetto-loadable) plus a ``.critpath.json`` (phase split and
    critical-path attribution) next to it; ``<run>`` is ``native``,
    ``cpu``, ``lambda``, ``dgsf_warm`` or a Fig. 4 step without its
    ``+``.  Tracing never perturbs the simulated timeline, so the rows
    are identical either way.
    """
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    table2, fig3, fig4 = [], [], []
    for name in ALL_WORKLOAD_NAMES:
        params = WORKLOADS[name]
        runs = _runs(name, seed, trace_dir)
        table2.append({
            "workload": name,
            "peak_mem_mb": round(params.paper_peak_bytes / MB),
            "native_s": runs["native"].e2e_s,
            "dgsf_s": runs["+batching"].e2e_s,
            "lambda_s": runs["lambda"].e2e_s,
            "cpu_s": runs["cpu"].e2e_s,
            "migration_s": _migration_s(name, seed),
            "paper_native_s": params.paper_native_s,
            "paper_dgsf_s": params.paper_dgsf_s,
        })
        for variant, run in FIG3_RUNS.items():
            inv = runs[run]
            fig3.append({
                "workload": name,
                "variant": variant,
                **{phase: round(inv.phases.get(phase, 0.0), 3)
                   for phase in PHASES},
                "total": round(inv.e2e_s, 3),
            })
        fig4.append({
            "workload": name,
            "native": round(_gpu_time(runs["native"]), 3),
            **{step: round(_gpu_time(runs[step]), 3) for step in STEPS},
        })
    out = {
        "table2": table2,
        "fig3": fig3,
        "fig4": fig4,
        "async_stream": [_async_stream_row(step, seed)
                         for step in ("+batching", "+async")],
        "batch_threshold": [_batch_threshold_row(threshold, seed)
                            for threshold in THRESHOLDS],
    }
    check(out)
    return out


def _claim(holds: bool, claim: str) -> None:
    if not holds:
        raise SimulationError(f"§VIII-B/C claim broken: {claim}")


def check(sections: dict[str, list[dict]]) -> None:
    """Raise :class:`SimulationError` naming the first broken claim.

    Reads only the rows :func:`sections` returns, so a committed
    ``BENCH_runtimes.json`` can be checked without simulating.
    """
    # Table II: DGSF beats native on every workload because the CUDA init
    # is off its critical path, the CPU is far slower, and both GPU paths
    # are calibrated within 25% of the paper.
    table2 = {row["workload"]: row for row in sections["table2"]}
    for name, row in table2.items():
        native, dgsf, cpu = row["native_s"], row["dgsf_s"], row["cpu_s"]
        _claim(dgsf < native,
               f"Table II: {name} runs faster under DGSF than natively "
               f"({dgsf:.3f} vs {native:.3f} s)")
        _claim(1.5 <= native - dgsf <= 6.0,
               f"Table II: {name}'s native-DGSF gap is 1.5-6 s, about the "
               f"hidden CUDA init ({native - dgsf:.3f} s)")
        _claim(cpu > 1.4 * native,
               f"Table II: {name} on CPU takes over 1.4x native "
               f"({cpu:.3f} vs {native:.3f} s)")
        for col, paper in (("native_s", row["paper_native_s"]),
                           ("dgsf_s", row["paper_dgsf_s"])):
            _claim(abs(row[col] - paper) <= 0.25 * paper,
                   f"Table II: {name} {col} within 25% of the paper's "
                   f"{paper} s ({row[col]:.3f} s)")
    # K-means on CPU is the extreme case (-29.6x in the paper).
    km = table2["kmeans"]
    _claim(km["cpu_s"] / km["native_s"] > 15,
           f"Table II: kmeans on CPU takes over 15x native "
           f"({km['cpu_s'] / km['native_s']:.1f}x)")
    # Lambda spikes on the network-heavy workloads and stays close to
    # DGSF for covid and face detection.
    for name in ("nlp_qa", "image_classification"):
        row = table2[name]
        _claim(row["lambda_s"] > 1.3 * row["dgsf_s"],
               f"Table II: Lambda takes over 1.3x DGSF on {name} "
               f"({row['lambda_s']:.3f} vs {row['dgsf_s']:.3f} s)")
    for name in ("covidctnet", "face_detection"):
        row = table2[name]
        _claim(row["lambda_s"] < 1.25 * row["dgsf_s"],
               f"Table II: Lambda stays under 1.25x DGSF on {name} "
               f"({row['lambda_s']:.3f} vs {row['dgsf_s']:.3f} s)")
    # Migration time grows with the workload's memory footprint.
    small = min(table2.values(), key=lambda row: row["peak_mem_mb"])
    large = max(table2.values(), key=lambda row: row["peak_mem_mb"])
    _claim(small["migration_s"] < large["migration_s"],
           f"Table II: migrating {small['workload']} (smallest footprint) "
           f"is faster than {large['workload']} (largest) "
           f"({small['migration_s']:.3f} vs {large['migration_s']:.3f} s)")

    # Fig. 3: native and unoptimized DGSF pay the full CUDA init on the
    # critical path, DGSF does not; the optimizations help overall and
    # never hurt a phase beyond batching shifting a few per-call costs
    # between load and processing; remoting costs processing time; the
    # download does not depend on the deployment, and the warm cache
    # removes the object-store GET from it and nothing else.
    fig3 = {(row["workload"], row["variant"]): row for row in sections["fig3"]}
    for name in sorted({workload for workload, _ in fig3}):
        native, unopt = fig3[name, "native"], fig3[name, "dgsf_unopt"]
        dgsf, warm = fig3[name, "dgsf"], fig3[name, "dgsf_warm"]
        _claim(native["cuda_init"] >= 3.0,
               f"Fig. 3: native pays the full CUDA init on {name} "
               f"({native['cuda_init']} s, at least 3 s)")
        _claim(dgsf["cuda_init"] < 0.2,
               f"Fig. 3: DGSF hides the CUDA init on {name} "
               f"({dgsf['cuda_init']} s, under 0.2 s)")
        _claim(unopt["cuda_init"] >= 3.0,
               f"Fig. 3: unoptimized DGSF pays the on-demand CUDA init on "
               f"{name} ({unopt['cuda_init']} s, at least 3 s)")
        _claim(dgsf["total"] < unopt["total"],
               f"Fig. 3: the optimizations cut {name}'s total "
               f"({dgsf['total']} vs {unopt['total']} s unoptimized)")
        for phase in ("model_load", "processing"):
            _claim(dgsf[phase] <= unopt[phase] + 0.05,
                   f"Fig. 3: the optimizations lengthen {name}'s {phase} by "
                   f"at most 0.05 s ({dgsf[phase]} vs {unopt[phase]} s)")
        _claim(dgsf["processing"] >= 0.99 * native["processing"],
               f"Fig. 3: DGSF processing on {name} is at least native's "
               f"({dgsf['processing']} vs {native['processing']} s)")
        _claim(abs(dgsf["download"] - native["download"])
               <= 0.1 * native["download"],
               f"Fig. 3: {name}'s download under DGSF is within 10% of "
               f"native's ({dgsf['download']} vs {native['download']} s)")
        _claim(warm["download"] < dgsf["download"],
               f"Fig. 3: the warm cache cuts {name}'s download "
               f"({warm['download']} vs {dgsf['download']} s cold)")
        _claim(warm["total"] < dgsf["total"],
               f"Fig. 3: the warm cache cuts {name}'s total "
               f"({warm['total']} vs {dgsf['total']} s cold)")
        _claim(abs(warm["processing"] - dgsf["processing"])
               <= 0.05 * dgsf["processing"],
               f"Fig. 3: the warm cache leaves {name}'s processing within 5% "
               f"({warm['processing']} vs {dgsf['processing']} s cold)")
    # K-means' download is mostly the object-store GET: warm, what remains
    # is host-side input prep and the cache's staging latency.
    cold, warm = fig3["kmeans", "dgsf"], fig3["kmeans", "dgsf_warm"]
    _claim(warm["download"] < 0.5 * cold["download"],
           f"Fig. 3: the warm cache cuts kmeans' download below half "
           f"({warm['download']} vs {cold['download']} s cold)")
    # Face detection in §VIII-B: DGSF model load about 1.1 s against
    # native's 1.7 s plus handle creation, processing +~28%.
    native, dgsf = fig3["face_detection", "native"], fig3["face_detection", "dgsf"]
    ratio = dgsf["processing"] / native["processing"]
    _claim(abs(ratio - 1.28) <= 0.15,
           f"Fig. 3: face_detection's DGSF processing is 1.28x native's "
           f"within 0.15 ({ratio:.3f}x)")
    _claim(dgsf["model_load"] < native["model_load"],
           f"Fig. 3: face_detection's DGSF model load is below native's "
           f"({dgsf['model_load']} vs {native['model_load']} s)")

    # Fig. 4: each cumulative step helps, within 0.05 s (batching shifts a
    # few localized-call timestamps by microseconds), and async forwarding
    # never loses to batching-only; handle pooling removes about the
    # library init (3.2 s context, plus 1.2 + 0.2 s per cuDNN + cuBLAS
    # handle pair); full DGSF beats native.
    fig4 = {row["workload"]: row for row in sections["fig4"]}
    steps = list(STEPS)
    for name, row in fig4.items():
        for prev, step in zip(steps, steps[1:]):
            _claim(row[step] <= row[prev] + 0.05,
                   f"Fig. 4: {step} slows {name} by at most 0.05 s "
                   f"({row[step]} vs {row[prev]} s)")
        # K-means has no cuDNN/cuBLAS (only the context); CovidCTNet's two
        # TF models create two handle pairs.
        target, tol = {"kmeans": (3.2, 0.6),
                       "covidctnet": (6.0, 1.2)}.get(name, (4.6, 1.0))
        saving = row["no_opt"] - row["+handle_pooling"]
        _claim(abs(saving - target) <= tol,
               f"Fig. 4: handle pooling saves {name} {target}±{tol} s "
               f"({saving:.3f} s)")
        _claim(row["+batching"] < row["native"],
               f"Fig. 4: fully optimized DGSF beats native on {name} "
               f"({row['+batching']} vs {row['native']} s)")
    # Face identification is the paper's exemplar: unoptimized ≈ 14.5 s,
    # fully optimized ≈ 4.7 s, a 67% reduction.
    fid = fig4["face_identification"]
    _claim(abs(fid["no_opt"] - 14.5) <= 0.25 * 14.5,
           f"Fig. 4: face_identification unoptimized within 25% of the "
           f"paper's 14.5 s ({fid['no_opt']} s)")
    _claim(abs(fid["+batching"] - 4.7) <= 0.3 * 4.7,
           f"Fig. 4: face_identification fully optimized within 30% of the "
           f"paper's 4.7 s ({fid['+batching']} s)")
    reduction = 1 - fid["+batching"] / fid["no_opt"]
    _claim(reduction >= 0.55,
           f"Fig. 4: the optimizations cut face_identification by at least "
           f"55% ({reduction:.3f}; paper 0.67)")
    # K-means "does not use any of the optimized APIs".
    km = fig4["kmeans"]
    _claim(km["+handle_pooling"] - km["+batching"] < 1.0,
           f"Fig. 4: descriptor pooling and batching give kmeans under 1 s "
           f"({km['+handle_pooling']} -> {km['+batching']} s)")
    # Face detection and NLP see only "borderline improvement" from the
    # descriptor and batching layers, next to their large GPU work.
    for name in ("face_detection", "nlp_qa"):
        row = fig4[name]
        tail = (row["+handle_pooling"] - row["+batching"]) / row["+handle_pooling"]
        _claim(tail < 0.45,
               f"Fig. 4: descriptor pooling and batching cut {name} by under "
               f"45% ({tail:.3f})")

    # Async stream: both steps take every launch off the sync path, and
    # pipelined forwarding beats batching-only by overlapping the deferred
    # GPU work with the host loop; neither beats the GPU work itself.
    stream = {row["step"]: row for row in sections["async_stream"]}
    batching, pipelined = stream["+batching"], stream["+async"]
    _claim(batching["batched"] == ROUNDS,
           f"async stream: +batching batches all {ROUNDS} launches "
           f"({batching['batched']})")
    _claim(pipelined["async_forwarded"] == ROUNDS,
           f"async stream: +async forwards all {ROUNDS} launches "
           f"({pipelined['async_forwarded']})")
    _claim(pipelined["max_in_flight"] > 1,
           f"async stream: +async keeps more than one call in flight "
           f"(depth {pipelined['max_in_flight']})")
    _claim(pipelined["elapsed_ms"] < batching["elapsed_ms"] - 5.0,
           f"async stream: +async beats +batching by over 5 ms "
           f"({pipelined['elapsed_ms']} vs {batching['elapsed_ms']} ms)")
    for step, row in stream.items():
        _claim(row["elapsed_ms"] >= ROUNDS * KERNEL_S * 1e3,
               f"async stream: {step} takes at least the "
               f"{ROUNDS * KERNEL_S * 1e3:g} ms of GPU work "
               f"({row['elapsed_ms']} ms)")

    # Batch threshold: messages fall as the threshold rises; at 48 the
    # enqueue-only traffic has collapsed into the unavoidable synchronous
    # round trips, so 128 changes (almost) nothing.
    by = {row["flush_threshold"]: row for row in sections["batch_threshold"]}
    messages = [by[threshold]["messages"] for threshold in THRESHOLDS]
    _claim(all(a >= b for a, b in zip(messages, messages[1:])),
           f"batch threshold: messages never rise with the threshold "
           f"({messages} at {list(THRESHOLDS)})")
    _claim(by[48]["messages"] < 0.65 * by[1]["messages"],
           f"batch threshold: 48 sends under 65% of threshold 1's messages "
           f"({by[48]['messages']} vs {by[1]['messages']})")
    _claim(by[128]["messages"] >= 0.95 * by[48]["messages"],
           f"batch threshold: 128 sends at least 95% of threshold 48's "
           f"messages ({by[128]['messages']} vs {by[48]['messages']})")
    _claim(abs(by[128]["inference_s"] - by[48]["inference_s"])
           <= 0.1 * by[48]["inference_s"],
           f"batch threshold: 128 runs within 10% of threshold 48's time "
           f"({by[128]['inference_s']} vs {by[48]['inference_s']} s)")
