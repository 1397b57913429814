"""Critical-path extraction and per-resource attribution over span trees.

The tracer records every invocation as a tree of spans: a platform root
(``invocation:*``) with retroactive ``phase`` children, guest ``rpc:*``
round trips, the ``gpu_request`` queue span, net ``xfer:*`` transfers and
API-server ``srv:*`` execution spans stitched in via the propagated wire
context.  Because a function invocation is one logical thread, its
critical path is the *innermost* span covering each instant of the root's
wall time; this module sweeps the tree to produce:

* :func:`critical_path` — the ordered list of :class:`PathSegment`\\ s
  (time interval, covering span stack, attributed resource) for one
  invocation's trace,
* :func:`invocation_critpaths` — the one analysis row per invocation:
  seconds per resource (queue / wire / serialization / gpu_compute /
  object_store / cpu), the dominant resource, and coverage (fraction of
  root wall time explained by non-root spans; the bar is >= 95%), next
  to the phase split (download, cuda_init, gpu_queue, model_load,
  processing, ...), its phase coverage and the RPC call mix,
* :func:`aggregate_critpaths` + :func:`bottleneck_table` — per-phase and
  per-resource percentiles and "top bottleneck by workload x
  percentile" rollups,
* :func:`folded_stacks` / :func:`dump_folded` — a folded flamegraph
  export (``stack;frames;joined value``) loadable in speedscope or
  FlameGraph's ``flamegraph.pl``.

Everything here is offline analysis over an existing tracer — it reads
records and never touches the simulation.

Resource semantics (how a span category maps to the contended resource):

====================  =================  =================================
span                  resource           meaning
====================  =================  =================================
``platform_queue``    ``queue``          waiting for a warm container
``gpu_queue`` phase / ``queue``          §V-A ① waiting for an API server
``gpu_request``
``download`` phase    ``object_store``   S3 GET (or cache staging)
``xfer:*``            ``wire``           NIC serialization + propagation
``srv:*``             ``gpu_compute``    API-server execution (exec-lock
                                         wait + CUDA work)
``rpc:*`` remainder   ``serialization``  client-side marshal/stack time
                                         not inside a nested xfer/srv span
everything else       ``cpu``            guest-local compute
====================  =================  =================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import percentile

__all__ = [
    "RESOURCES",
    "PathSegment",
    "resource_of",
    "critical_path",
    "invocation_critpaths",
    "aggregate_critpaths",
    "bottleneck_table",
    "folded_stacks",
    "dump_folded",
    "critpath_report",
]

#: every resource bucket attribution can land in
RESOURCES = ("queue", "wire", "serialization", "gpu_compute", "object_store", "cpu")

#: span category -> nesting depth.  Higher = more specific: an ``srv:*``
#: span inside an ``rpc:*`` span inside a ``processing`` phase wins the
#: instant.  Categories share the root's trace but (by construction of
#: the wire context) may all parent directly under the root, so category
#: priority — not parent pointers — encodes the physical nesting.
_CAT_DEPTH = {
    "invocation": 0,
    "phase": 1,
    "queue": 2,
    "rpc": 3,
    "net": 4,
    "server": 5,
}

_CAT_RESOURCE = {
    "queue": "queue",
    "rpc": "serialization",
    "net": "wire",
    "server": "gpu_compute",
}

_PHASE_RESOURCE = {
    "platform_queue": "queue",
    "gpu_queue": "queue",
    "download": "object_store",
}


def resource_of(record) -> str:
    """The resource bucket a span's *own* time is attributed to."""
    if record.cat == "phase":
        return _PHASE_RESOURCE.get(record.name, "cpu")
    return _CAT_RESOURCE.get(record.cat, "cpu")


@dataclass
class PathSegment:
    """One interval of an invocation's critical path."""

    t_start: float
    t_end: float
    #: resource of the innermost covering span
    resource: str
    #: covering span names, outermost (the invocation root) first
    stack: tuple

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


def _find_root(records):
    for r in records:
        if r.ph == "X" and r.cat == "invocation":
            return r
    return None


def critical_path(records, root=None) -> list[PathSegment]:
    """Sweep one trace's spans into ordered critical-path segments.

    ``records`` is one trace's record list (e.g. a value of
    ``tracer.by_trace()``); ``root`` defaults to its ``invocation`` span.
    Spans are clipped to the root's extent (post-completion teardown RPC
    belongs to the platform, not the function), then a boundary sweep
    assigns every instant to the innermost active span by category depth
    (ties: latest start, then span id — the most recently opened wins).
    Adjacent segments with the same stack are merged.
    """
    root = root or _find_root(records)
    if root is None or root.t_end <= root.t_start:
        return []
    spans = []
    for r in records:
        if r.ph != "X" or r.cat not in _CAT_DEPTH or r is root:
            continue
        lo = max(r.t_start, root.t_start)
        hi = min(r.t_end, root.t_end)
        if hi > lo:
            spans.append((lo, hi, r))
    # boundary sweep: at each boundary, close spans ending there, open
    # spans starting there, then emit one segment up to the next boundary
    starts_at: dict[float, list] = {}
    ends_at: dict[float, list] = {}
    for lo, hi, r in spans:
        starts_at.setdefault(lo, []).append(r)
        ends_at.setdefault(hi, []).append(r)
    boundaries = sorted(
        {root.t_start, root.t_end} | set(starts_at) | set(ends_at)
    )
    active: dict[int, dict[int, object]] = {}  # depth -> {span_id: record}
    segments: list[PathSegment] = []
    for i, t in enumerate(boundaries[:-1]):
        for r in ends_at.get(t, ()):
            depth_set = active.get(_CAT_DEPTH[r.cat])
            if depth_set is not None:
                depth_set.pop(r.span_id, None)
        for r in starts_at.get(t, ()):
            active.setdefault(_CAT_DEPTH[r.cat], {})[r.span_id] = r
        t_next = boundaries[i + 1]
        stack = [root.name]
        innermost = root
        for depth in sorted(active):
            layer = active[depth]
            if not layer:
                continue
            best = max(layer.values(), key=lambda r: (r.t_start, r.span_id))
            stack.append(best.name)
            innermost = best
        seg = PathSegment(t, t_next, resource_of(innermost), tuple(stack))
        if segments and segments[-1].stack == seg.stack \
                and segments[-1].t_end == seg.t_start:
            segments[-1] = PathSegment(
                segments[-1].t_start, seg.t_end, seg.resource, seg.stack
            )
        else:
            segments.append(seg)
    return segments


def invocation_critpaths(tracer, invocations=None) -> list[dict]:
    """One analysis row per root ``invocation`` span.

    Besides the critical-path attribution, each row carries the phase
    split (``phases``: seconds per ``phase`` child of the root),
    ``phase_coverage`` (the fraction of the root those phases account
    for) and ``rpc_mix`` (``rpc:*`` span count per name).  Only
    ``tracer.by_trace()`` is read, so frozen records can stand in for a
    live tracer.

    ``invocations`` (optional) restricts/orders the rows to the given
    :class:`~repro.faas.platform.Invocation` records via their
    ``trace_id`` and adds ``measured_e2e_s`` plus ``e2e_matches_span``:
    whether the root span equals the invocation's measured ``e2e_s``.
    """
    by_trace = tracer.by_trace()
    inv_by_trace = {}
    if invocations is not None:
        inv_by_trace = {inv.trace_id: inv for inv in invocations
                        if getattr(inv, "trace_id", None) in by_trace}
        trace_ids = list(inv_by_trace)
    else:
        trace_ids = sorted(by_trace)
    rows = []
    for trace_id in trace_ids:
        records = by_trace[trace_id]
        root = _find_root(records)
        if root is None:
            continue
        segments = critical_path(records, root)
        resources = {name: 0.0 for name in RESOURCES}
        covered = 0.0
        for seg in segments:
            resources[seg.resource] += seg.duration_s
            if len(seg.stack) > 1:
                covered += seg.duration_s
        phases: dict[str, float] = {}
        rpc_mix: dict[str, int] = {}
        for r in records:
            if r.ph != "X":
                continue
            if r.cat == "phase" and r.parent_id == root.span_id:
                phases[r.name] = phases.get(r.name, 0.0) + r.duration_s
            elif r.cat == "rpc":
                rpc_mix[r.name] = rpc_mix.get(r.name, 0) + 1
        duration = root.duration_s
        attributed = sum(resources.values())
        dominant = max(RESOURCES, key=lambda name: resources[name])
        row = {
            "trace_id": trace_id,
            "invocation_id": root.args.get("invocation_id"),
            "workload": root.args.get("workload", root.name),
            "status": root.args.get("status", "unknown"),
            "e2e_s": duration,
            "resources": resources,
            "attributed_s": attributed,
            # non-root spans must explain >= 95% of wall time
            "coverage": covered / duration if duration > 0 else 1.0,
            "dominant": dominant,
            "dominant_share": resources[dominant] / duration if duration > 0 else 0.0,
            "segments": len(segments),
            "phases": phases,
            "phase_coverage": (sum(phases.values()) / duration
                               if duration > 0 else 1.0),
            "rpc_mix": rpc_mix,
        }
        inv = inv_by_trace.get(trace_id)
        if inv is not None:
            row["measured_e2e_s"] = inv.e2e_s
            row["e2e_matches_span"] = abs(inv.e2e_s - duration) < 1e-9
        rows.append(row)
    return rows


def _series_stats(values: list[float]) -> dict:
    return {
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
    }


def _aggregate(rows: list[dict]) -> dict:
    per_resource = {}
    for name in RESOURCES:
        seconds = [row["resources"][name] for row in rows]
        shares = [
            row["resources"][name] / row["e2e_s"] if row["e2e_s"] > 0 else 0.0
            for row in rows
        ]
        per_resource[name] = {
            "mean_s": sum(seconds) / len(seconds),
            "p50_s": percentile(seconds, 50),
            "p95_s": percentile(seconds, 95),
            "share_mean": sum(shares) / len(shares),
            "share_p50": percentile(shares, 50),
            "share_p95": percentile(shares, 95),
        }
    top = {
        "mean": max(RESOURCES, key=lambda n: per_resource[n]["mean_s"]),
        "p50": max(RESOURCES, key=lambda n: per_resource[n]["p50_s"]),
        "p95": max(RESOURCES, key=lambda n: per_resource[n]["p95_s"]),
    }
    # a phase's series holds only the invocations that ran that phase
    phase_series: dict[str, list[float]] = {}
    for row in rows:
        for name, seconds in row["phases"].items():
            phase_series.setdefault(name, []).append(seconds)
    return {
        "count": len(rows),
        "e2e": _series_stats([row["e2e_s"] for row in rows]),
        "coverage_min": min(row["coverage"] for row in rows),
        "resources": per_resource,
        "top_bottleneck": top,
        "phases": {name: _series_stats(values)
                   for name, values in sorted(phase_series.items())},
    }


def aggregate_critpaths(rows: list[dict]) -> dict:
    """Aggregate analysis rows, overall and per workload: resource and
    phase seconds, e2e mean/p50/p95/p99 and the top bottleneck."""
    if not rows:
        return {"count": 0, "workloads": {}}
    out = _aggregate(rows)
    by_workload: dict[str, list[dict]] = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    out["workloads"] = {
        name: _aggregate(group)
        for name, group in sorted(by_workload.items())
    }
    return out


def bottleneck_table(aggregate: dict) -> list[dict]:
    """Flatten "top bottleneck by workload x percentile" into table rows."""
    rows = []
    for workload, agg in aggregate.get("workloads", {}).items():
        for pct in ("p50", "p95"):
            resource = agg["top_bottleneck"][pct]
            stats = agg["resources"][resource]
            rows.append({
                "workload": workload,
                "percentile": pct,
                "bottleneck": resource,
                "seconds": round(stats[f"{pct}_s"], 4),
                "share": round(stats[f"share_{pct}"], 4),
            })
    return rows


def folded_stacks(tracer, invocations=None) -> dict[str, float]:
    """Aggregate critical-path segments into folded stacks -> seconds.

    Stack frames are joined with ``;`` outermost-first, so the root frame
    (``invocation:<workload>``) groups the flamegraph by workload.
    """
    by_trace = tracer.by_trace()
    if invocations is not None:
        trace_ids = [inv.trace_id for inv in invocations
                     if getattr(inv, "trace_id", None) in by_trace]
    else:
        trace_ids = sorted(by_trace)
    stacks: dict[str, float] = {}
    for trace_id in trace_ids:
        records = by_trace[trace_id]
        for seg in critical_path(records):
            key = ";".join(seg.stack)
            stacks[key] = stacks.get(key, 0.0) + seg.duration_s
    return stacks


def dump_folded(stacks: dict[str, float], path) -> int:
    """Write folded stacks (integer microsecond weights) to ``path``.

    The format is one ``frame;frame;... value`` line per stack —
    speedscope and Brendan Gregg's ``flamegraph.pl`` both load it
    directly.  Returns the number of lines written; sub-microsecond
    stacks round up to 1 so no sampled stack vanishes from the graph.
    """
    lines = []
    for key in sorted(stacks):
        weight = max(1, round(stacks[key] * 1e6))
        lines.append(f"{key} {weight}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def critpath_report(tracer, invocations=None,
                    min_coverage: Optional[float] = None) -> dict:
    """Per-invocation attribution + aggregate, with optional validation.

    With ``min_coverage`` set, rows below the bar are listed under
    ``"violations"`` (empty = pass) so CLI callers can gate on it.
    """
    rows = invocation_critpaths(tracer, invocations)
    report = {
        "per_invocation": rows,
        "aggregate": aggregate_critpaths(rows),
    }
    if min_coverage is not None:
        report["violations"] = [
            f"invocation {row['invocation_id']} ({row['workload']}): "
            f"critical-path coverage {row['coverage']:.3f} < {min_coverage}"
            for row in rows if row["coverage"] < min_coverage
        ]
    return report
