"""Span-based sim-time tracing with Chrome trace-event export.

Every invocation gets a *trace* (one ``trace_id``); layers along the way
open *spans* against it: the platform records the root ``invocation``
span and one child span per measured phase, the guest wraps each RPC
round trip (sync and async), the API server wraps execution of each
request, and the monitor records GPU-queue waits and migrations.
Point-in-time happenings (retries, crashes, batch flushes) are
*instants*.

The tracer keeps every record of every trace until it holds
``max_spans`` records; past that bound it stores nothing more and counts
what it dropped — it never drops silently (``dropped`` is surfaced in
:meth:`Tracer.summary` and in the exported JSON's ``otherData``).

Recording is pure bookkeeping over ``env.now`` — no events, no timeouts,
no RNG — so tracing never perturbs the simulated timeline.

Export is the Chrome trace-event JSON object format (``traceEvents`` +
metadata), loadable in Perfetto or chrome://tracing.  Track names
(``pid``/``tid``) are strings internally and mapped to integers with
``process_name``/``thread_name`` metadata events on export; timestamps
are microseconds per the format spec.

Every tracer allocates span/trace ids from its *own* counters, offset
into the id block of its ``namespace`` (0 by default), so its ids do not
depend on what else traced in the process.

**Distributed collection** (sharded runs, :mod:`repro.sim.shard`): a
shard's tracer uses the shard id as its namespace, so ids are
collision-free across shards.  :meth:`Tracer.snapshot` dumps the
records as plain picklable tuples (mirroring
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`) and
:meth:`Tracer.merge_snapshot` folds shard snapshots into one merged
tracer — optionally re-homing each shard's spans onto a prefixed
Perfetto process track.  :func:`trace_digest` is the canonical
content digest: records are stably sorted by timeline position and ids
renumbered by that order, so the digest is invariant to absolute
counter values — a 1-shard sharded run digests identically to a plain
single-process run of the same world.  The ids that are *not*
renumbered (invocation ids in ``inv-N`` track names and span args) are
counted per :class:`~repro.faas.platform.ServerlessPlatform`, so a
world's digest does not depend on what else ran earlier in the process.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Span", "SpanRecord", "Tracer", "trace_digest"]

#: width of one namespace's id block: a tracer's ids live in
#: ``[namespace * 2**40, (namespace + 1) * 2**40)`` — far beyond any
#: realistic span count, so blocks never collide
_NAMESPACE_STRIDE = 1 << 40

#: snapshot wire-format version (bumped on layout changes)
_SNAPSHOT_VERSION = 1


@dataclass
class SpanRecord:
    """One completed span ("X") or instant ("i") event."""

    span_id: int
    parent_id: Optional[int]
    trace_id: Optional[int]
    name: str
    cat: str
    t_start: float
    t_end: float
    pid: str
    tid: str
    ph: str = "X"
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


class Span:
    """An open span; call :meth:`end` to record it."""

    __slots__ = (
        "tracer", "span_id", "parent_id", "trace_id",
        "name", "cat", "pid", "tid", "t_start", "args", "_ended",
    )

    def __init__(self, tracer, name, cat, pid, tid, trace_id, parent_id,
                 t_start, args):
        self.tracer = tracer
        self.span_id = tracer._next_span_id()
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.t_start = t_start
        self.args = args
        self._ended = False

    def end(self, t_end: Optional[float] = None, **args) -> None:
        """Record the span, closing it at ``t_end`` (default: now)."""
        if self._ended:
            return
        self._ended = True
        self.tracer._open.pop(self.span_id, None)
        if args:
            self.args.update(args)
        self.tracer._record(SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            trace_id=self.trace_id,
            name=self.name,
            cat=self.cat,
            t_start=self.t_start,
            t_end=self.tracer.now if t_end is None else t_end,
            pid=self.pid,
            tid=self.tid,
            args=self.args,
        ))

    # -- children ---------------------------------------------------------------
    def child(self, name: str, cat: str = "span", **args) -> "Span":
        """Open a child span on the same track, starting now."""
        return self.tracer.begin(
            name, cat=cat, pid=self.pid, tid=self.tid,
            trace_id=self.trace_id, parent=self, **args,
        )

    def child_complete(self, name: str, t_start: float, t_end: float,
                       cat: str = "span", **args) -> None:
        """Record an already-finished child span (retroactive)."""
        self.tracer.complete(
            name, t_start, t_end, cat=cat, pid=self.pid, tid=self.tid,
            trace_id=self.trace_id, parent=self, **args,
        )

    def phase(self, name: str, seconds: float) -> None:
        """Record a phase that just finished (ending now) and took
        ``seconds`` — the shape ``Invocation.add_phase`` reports in."""
        now = self.tracer.now
        self.child_complete(name, now - seconds, now, cat="phase")

    def instant(self, name: str, **args) -> None:
        self.tracer.instant(
            name, pid=self.pid, tid=self.tid,
            trace_id=self.trace_id, parent=self, **args,
        )


class Tracer:
    """Bounded collector of spans across the whole deployment.

    Span and trace ids count from ``namespace * 2**40 + 1``: shard
    workers use their shard id as ``namespace``, so every shard's ids are
    globally unique in the merged trace.  ``env`` may be ``None`` for a
    merge-target tracer that only aggregates snapshots (its clock tracks
    the latest merged ``t_end``).
    """

    def __init__(self, env, max_spans: int = 250_000, namespace: int = 0):
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        if namespace < 0:
            raise ValueError("namespace must be non-negative")
        self.env = env
        self.max_spans = max_spans
        self.namespace = namespace
        self._merged_now = 0.0
        base = namespace * _NAMESPACE_STRIDE
        self._span_counter = itertools.count(base + 1)
        self._trace_counter = itertools.count(base + 1)
        self.records: list[SpanRecord] = []
        #: records discarded because the tracer was full — never silent:
        #: surfaced in summary() and the exported JSON
        self.dropped = 0
        #: span_id -> Span handles begun but not yet ended.  Export closes
        #: them synthetically at ``env.now`` with an ``"open": true`` flag
        #: instead of dropping them from the JSON.
        self._open: dict[int, Span] = {}

    @property
    def now(self) -> float:
        if self.env is None:
            return self._merged_now
        return self.env.now

    def _next_span_id(self) -> int:
        return next(self._span_counter)

    def new_trace_id(self) -> int:
        return next(self._trace_counter)

    # -- recording --------------------------------------------------------------
    def begin(self, name: str, cat: str = "span", pid: str = "sim",
              tid: str = "main", trace_id: Optional[int] = None,
              parent: Optional[Span] = None, t_start: Optional[float] = None,
              **args) -> Span:
        """Open a span starting now (or at ``t_start``)."""
        span = Span(
            self, name, cat, pid, tid,
            trace_id=trace_id if trace_id is not None else
            (parent.trace_id if parent is not None else None),
            parent_id=parent.span_id if parent is not None else None,
            t_start=self.now if t_start is None else t_start,
            args=args,
        )
        self._open[span.span_id] = span
        return span

    def complete(self, name: str, t_start: float, t_end: float,
                 cat: str = "span", pid: str = "sim", tid: str = "main",
                 trace_id: Optional[int] = None,
                 parent: Optional[Span] = None,
                 parent_id: Optional[int] = None, **args) -> None:
        """Record an already-finished span in one shot.

        ``parent`` takes a :class:`Span` handle; layers that only carry the
        propagated ``(trace_id, span_id)`` wire context (e.g. the API
        server) pass the raw ``parent_id`` instead.
        """
        self._record(SpanRecord(
            span_id=self._next_span_id(),
            parent_id=parent.span_id if parent is not None else parent_id,
            trace_id=trace_id if trace_id is not None else
            (parent.trace_id if parent is not None else None),
            name=name, cat=cat, t_start=t_start, t_end=t_end,
            pid=pid, tid=tid, args=args,
        ))

    def instant(self, name: str, cat: str = "event", pid: str = "sim",
                tid: str = "main", trace_id: Optional[int] = None,
                parent: Optional[Span] = None,
                parent_id: Optional[int] = None, **args) -> None:
        """Record a point-in-time event (retry, crash, flush, ...)."""
        now = self.now
        self._record(SpanRecord(
            span_id=self._next_span_id(),
            parent_id=parent.span_id if parent is not None else parent_id,
            trace_id=trace_id if trace_id is not None else
            (parent.trace_id if parent is not None else None),
            name=name, cat=cat, t_start=now, t_end=now,
            pid=pid, tid=tid, ph="i", args=args,
        ))

    def _record(self, record: SpanRecord) -> None:
        if len(self.records) >= self.max_spans:
            self.dropped += 1
            return
        self.records.append(record)

    # -- queries ----------------------------------------------------------------
    def spans(self, cat: Optional[str] = None) -> list[SpanRecord]:
        if cat is None:
            return [r for r in self.records if r.ph == "X"]
        return [r for r in self.records if r.ph == "X" and r.cat == cat]

    def instants(self, name: Optional[str] = None) -> list[SpanRecord]:
        if name is None:
            return [r for r in self.records if r.ph == "i"]
        return [r for r in self.records if r.ph == "i" and r.name == name]

    def by_trace(self) -> dict[int, list[SpanRecord]]:
        out: dict[int, list[SpanRecord]] = {}
        for r in self.records:
            if r.trace_id is not None:
                out.setdefault(r.trace_id, []).append(r)
        return out

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (live invocations, in-flight RPC)."""
        return len(self._open)

    def _open_records(self) -> list[SpanRecord]:
        """Synthetic closed records for still-open spans, ending now.

        Export-only views — nothing is stored, the spans stay open and
        their eventual real :meth:`Span.end` records normally.
        """
        now = self.now
        records = []
        for span in sorted(self._open.values(), key=lambda s: s.span_id):
            args = dict(span.args)
            args["open"] = True
            records.append(SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                trace_id=span.trace_id,
                name=span.name,
                cat=span.cat,
                t_start=span.t_start,
                t_end=max(now, span.t_start),
                pid=span.pid,
                tid=span.tid,
                args=args,
            ))
        return records

    def summary(self) -> dict:
        return {
            "spans": sum(1 for r in self.records if r.ph == "X"),
            "instants": sum(1 for r in self.records if r.ph == "i"),
            "traces": len(self.by_trace()),
            "dropped": self.dropped,
            "open_spans": self.open_spans,
            "max_spans": self.max_spans,
        }

    # -- export -----------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (object format) for Perfetto.

        Spans still open at export time are emitted with a synthetic end
        at ``env.now`` and an ``"open": true`` flag — a mid-run export
        never silently omits in-flight work.
        """
        pids: dict[str, int] = {}
        tids: dict[tuple[str, str], int] = {}
        events: list[dict] = []
        for r in self.records + self._open_records():
            if r.pid not in pids:
                pids[r.pid] = len(pids) + 1
                events.append({
                    "ph": "M", "name": "process_name", "pid": pids[r.pid],
                    "tid": 0, "args": {"name": r.pid},
                })
            track = (r.pid, r.tid)
            if track not in tids:
                tids[track] = len(tids) + 1
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pids[r.pid],
                    "tid": tids[track], "args": {"name": r.tid},
                })
            args = dict(r.args)
            if r.trace_id is not None:
                args["trace_id"] = r.trace_id
            args["span_id"] = r.span_id
            if r.parent_id is not None:
                args["parent_id"] = r.parent_id
            event = {
                "name": r.name,
                "cat": r.cat,
                "ph": r.ph,
                "ts": r.t_start * 1e6,
                "pid": pids[r.pid],
                "tid": tids[track],
                "args": args,
            }
            if r.ph == "X":
                event["dur"] = (r.t_end - r.t_start) * 1e6
            else:
                event["s"] = "t"
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs",
                "clock": "sim-seconds",
                "dropped": self.dropped,
                "open_spans": self.open_spans,
            },
        }

    def dump_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def digest(self) -> int:
        """Canonical content digest (see :func:`trace_digest`), including
        synthetic closes for still-open spans — exactly what a shard
        snapshot ships, so plain-run and merged digests are comparable."""
        return trace_digest(self.records + self._open_records())

    # -- cross-process collection ------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable dump of every record, for shipping a shard's spans
        back to the coordinator (see :mod:`repro.sim.shard`).

        Kept intentionally plain (nested tuples/lists of primitives) so it
        survives ``multiprocessing`` pipes without custom reducers.  Spans
        still open at snapshot time are included with a synthetic end at
        ``now`` and an ``"open": true`` arg — a shard harvest never
        silently omits in-flight work.
        """
        def entry(r: SpanRecord) -> tuple:
            return (r.span_id, r.parent_id, r.trace_id, r.name, r.cat,
                    r.t_start, r.t_end, r.pid, r.tid, r.ph, dict(r.args))

        records = [entry(r) for r in self.records + self._open_records()]
        return {
            "version": _SNAPSHOT_VERSION,
            "namespace": self.namespace,
            "max_spans": self.max_spans,
            "dropped": self.dropped,
            "open_spans": self.open_spans,
            "records": records,
        }

    def merge_snapshot(self, snapshot: dict,
                       track_prefix: Optional[str] = None) -> int:
        """Fold a :meth:`snapshot` into this tracer; returns records added.

        ``track_prefix`` (e.g. ``"shard2/"``) re-homes the snapshot's
        spans onto prefixed Perfetto process tracks, so a merged export
        shows one process group per shard.  Records are appended in
        snapshot order; merging shard snapshots in shard order keeps the
        merged record sequence — and therefore :func:`trace_digest` —
        deterministic.  Dropped counts accumulate; records past this
        tracer's ``max_spans`` are counted dropped, never lost silently.
        """
        if not isinstance(snapshot, dict) or "records" not in snapshot:
            raise ValueError(f"bad tracer snapshot: {type(snapshot).__name__}")
        version = snapshot.get("version")
        if version != _SNAPSHOT_VERSION:
            raise ValueError(
                f"tracer snapshot version {version!r} is not supported "
                f"(expected {_SNAPSHOT_VERSION})"
            )
        added = 0
        self.dropped += snapshot.get("dropped", 0)
        for entry in snapshot["records"]:
            (span_id, parent_id, trace_id, name, cat,
             t_start, t_end, pid, tid, ph, args) = entry
            if track_prefix:
                pid = f"{track_prefix}{pid}"
            record = SpanRecord(
                span_id=span_id, parent_id=parent_id, trace_id=trace_id,
                name=name, cat=cat, t_start=t_start, t_end=t_end,
                pid=pid, tid=tid, ph=ph, args=dict(args),
            )
            self._record(record)
            added += 1
            if t_end > self._merged_now:
                self._merged_now = t_end
        return added


def trace_digest(records) -> int:
    """CRC32 content digest of a record list, invariant to absolute ids.

    Records are stably sorted by timeline position (start, end, track,
    category, name, phase, canonical args) and span/trace ids renumbered
    by first appearance in that order, so two runs recording the *same
    spans* digest identically even when their id counters differ — the
    bar that makes a 1-shard sharded run comparable to a plain run.  A
    parent id pointing outside the record set canonicalizes to ``-1``.
    """
    def sort_key(r: SpanRecord):
        return (r.t_start, r.t_end, r.pid, r.tid, r.cat, r.name, r.ph,
                json.dumps(r.args, sort_keys=True, default=str))

    ordered = sorted(records, key=sort_key)
    span_index = {r.span_id: i for i, r in enumerate(ordered)}
    trace_index: dict[int, int] = {}
    crc = 0
    for i, r in enumerate(ordered):
        if r.trace_id is None:
            trace = None
        else:
            trace = trace_index.setdefault(r.trace_id, len(trace_index))
        parent = (None if r.parent_id is None
                  else span_index.get(r.parent_id, -1))
        row = json.dumps(
            [i, parent, trace, r.name, r.cat, r.t_start, r.t_end,
             r.pid, r.tid, r.ph, r.args],
            sort_keys=True, separators=(",", ":"), default=str,
        )
        crc = zlib.crc32(row.encode(), crc)
    return crc
