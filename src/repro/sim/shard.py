"""Sharded parallel simulation with conservative time synchronization.

Million-invocation scenarios are event-kernel bound: one Python process
can only drain one calendar queue.  This module scales the simulator out
across cores by partitioning a deployment into *groups* (each an
independent API-server group + GPU pool + monitor slice), packing groups
onto *shards*, and running every shard's :class:`~repro.sim.core.Environment`
in its own worker process (``multiprocessing`` spawn context, so workers
are import-clean and fork-unsafe state cannot leak).

Synchronization is classic conservative (CMB-style) lookahead windowing:

* the minimum cross-group link delay ``L`` (declared by the topology) is
  the provable lookahead bound — an envelope sent at time ``t`` cannot be
  due before ``t + L`` (:mod:`repro.simnet.envelope` enforces this at
  send time);
* shards advance in epochs.  If every shard has processed everything up
  to time ``T`` and the globally earliest pending event is at
  ``candidate >= T``, then **every** shard may safely run to
  ``candidate + L``: no event exists anywhere before ``candidate``, so no
  message can be *sent* before ``candidate``, so none can be *due* before
  ``candidate + L``.  Choosing ``candidate`` as the global minimum next
  event time makes empty stretches fast-forward for free — idle epochs
  are skipped rather than stepped;
* at each barrier the coordinator drains every shard's outbox, routes
  envelopes to the owning shard, and injects them in the canonical
  ``(deliver_time, src, seq)`` order so same-timestamp deliveries
  tie-break identically regardless of how groups were packed.

With no cross-group channels the lookahead is infinite (the minimum over
an empty link set), the run degenerates to one barrier, and shards are
embarrassingly parallel — the independent-GPU-pool case.

**Correctness bar** (enforced by tests and the shard ablation,
:mod:`repro.experiments.shard_ablation`):
with ``shards=1`` the epoch loop processes the exact event sequence of a
plain single-process ``env.run()`` (the CRC pop-order digest is
bit-identical — ``run(until=T)`` only sets deadlines, it never schedules
events), and for ``shards>1`` the merged per-group outcomes are
seed-stable and shard-count-invariant.
"""

from __future__ import annotations

import json
import struct
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.simnet.envelope import Envelope, GroupPort, decode_envelope

__all__ = [
    "ShardSpec",
    "ShardContext",
    "ShardSim",
    "ShardRunResult",
    "assign_groups",
    "run_sharded",
    "pop_order_crc",
]

_INF = float("inf")

#: per-epoch rows retained in ``ShardRunResult.sync["epoch_log"]``; beyond
#: this the log stops storing rows and counts what it dropped (aggregates
#: stay exact) — a million-epoch run must not ship a million-row log
_EPOCH_LOG_CAP = 4096


def assign_groups(total_groups: int, num_shards: int) -> list[tuple[int, ...]]:
    """Round-robin group→shard assignment: group ``g`` lives on shard
    ``g % num_shards``.  Deterministic and independent of group weights;
    the merged outcome must not depend on this choice (only wall time
    may)."""
    if total_groups <= 0:
        raise ConfigurationError(f"total_groups must be positive, got {total_groups}")
    if num_shards <= 0:
        raise ConfigurationError(f"num_shards must be positive, got {num_shards}")
    if num_shards > total_groups:
        raise ConfigurationError(
            f"num_shards={num_shards} exceeds total_groups={total_groups}: "
            f"a shard with no groups has nothing to simulate"
        )
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    for g in range(total_groups):
        shards[g % num_shards].append(g)
    return [tuple(groups) for groups in shards]


def pop_order_crc(trace: list) -> int:
    """CRC32 of a ``(time, priority, eid)`` pop trace (bench_kernel format)."""
    crc = 0
    pack = struct.pack
    for when, priority, eid in trace:
        crc = zlib.crc32(pack("<dqq", when, priority, eid), crc)
    return crc


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to build its shard (picklable).

    ``scenario`` / ``collect`` / ``metrics_collect`` must be module-level
    callables (spawn pickles them by reference).  ``scenario(ctx)`` builds
    the shard's world and starts its processes; ``collect(ctx)`` returns a
    JSON-shaped ``{group_id: row}`` mapping after the run drains;
    ``metrics_collect(ctx)`` (optional) returns a metrics snapshot list
    (see :meth:`repro.obs.MetricsRegistry.snapshot`).
    """

    shard_id: int
    num_shards: int
    groups: tuple[int, ...]
    total_groups: int
    seed: int
    #: conservative lookahead; ``inf`` = no cross-group links declared
    lookahead_s: float
    scenario: Callable
    scenario_args: tuple = ()
    collect: Optional[Callable] = None
    metrics_collect: Optional[Callable] = None
    record_pop_trace: bool = False
    #: collect per-shard span traces + SLO alert logs and ship them home
    #: in the harvest (see :class:`ShardContext.tracer`)
    tracing: bool = False
    #: per-shard tracer bound (only meaningful with ``tracing``)
    trace_max_spans: int = 250_000


class ShardContext:
    """What a scenario builder sees inside one shard."""

    def __init__(self, spec: ShardSpec, env: Environment):
        self.spec = spec
        self.env = env
        self.shard_id = spec.shard_id
        self.num_shards = spec.num_shards
        self.groups = spec.groups
        self.total_groups = spec.total_groups
        self.seed = spec.seed
        self.lookahead_s = spec.lookahead_s
        #: free-form slot for the scenario to stash per-group worlds/stats
        self.state: dict = {}
        #: the shard's span tracer (``None`` unless the spec asked for
        #: tracing).  Ids are namespaced by shard id, so the coordinator
        #: can merge every shard's spans into one collision-free trace.
        self.tracer = None
        if spec.tracing:
            from repro.obs import Tracer

            self.tracer = Tracer(env, max_spans=spec.trace_max_spans,
                                 namespace=spec.shard_id)
        #: group id -> SLO engine, registered by the scenario via
        #: :meth:`register_slo`; alert logs are harvested at finish
        self.slo_engines: dict[int, Any] = {}
        #: tracers the scenario built *outside* the shard runtime (see
        #: :meth:`note_tracer`) — their spans cannot be merged, which is
        #: surfaced as a diagnostic instead of silent loss
        self._foreign_tracers: list = []
        self._root_rngs = RngRegistry(seed=spec.seed)
        self._ports: dict[int, GroupPort] = {
            g: GroupPort(env, g, spec.lookahead_s, tracer=self.tracer)
            for g in spec.groups
        }

    def register_slo(self, group_id: int, engine) -> None:
        """Register a group's SLO engine for alert harvest at finish."""
        self.slo_engines[int(group_id)] = engine

    def note_tracer(self, tracer) -> None:
        """Declare a tracer the scenario created on its own.

        When it is not the shard tracer its spans stay behind in the
        worker process; the harvest emits a diagnostic so a deployment
        with ``tracing_enabled`` cannot lose its trace silently.
        """
        if tracer is not None and tracer is not self.tracer:
            self._foreign_tracers.append(tracer)

    def group_rngs(self, group_id: int) -> RngRegistry:
        """The RNG substream registry of group ``group_id``.

        Derived from ``(seed, group)`` only — independent of the shard
        count, the shard this group landed on, and every other group's
        draw count.  This is what makes merged outcomes shard-count
        invariant.
        """
        return self._root_rngs.fork(f"group[{group_id}]")

    def shard_rngs(self) -> RngRegistry:
        """Shard-local streams (diagnostics only — anything that affects
        outcomes must use :meth:`group_rngs` or invariance breaks)."""
        return self._root_rngs.fork(f"shard[{self.shard_id}]")

    def port(self, group_id: int) -> GroupPort:
        """The cross-shard port of a group owned by this shard."""
        try:
            return self._ports[group_id]
        except KeyError:
            raise ConfigurationError(
                f"group {group_id} is not owned by shard {self.shard_id} "
                f"(owns {self.groups})"
            ) from None


class ShardSim:
    """One shard's environment plus the epoch-stepping machinery.

    Used identically by the inline driver (all shards in this process)
    and by worker processes — the synchronization algorithm lives in
    :func:`run_sharded`; this class only knows how to run *one* epoch.
    """

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.env = Environment()
        if spec.record_pop_trace:
            self.env._pop_trace = []
        self.ctx = ShardContext(spec, self.env)
        spec.scenario(self.ctx, *spec.scenario_args)
        self.run_wall_s = 0.0
        self.epochs_run = 0
        #: wall time spent blocked at epoch barriers (worker: waiting for
        #: the coordinator's next command; inline: 0 by construction)
        self.barrier_stall_s = 0.0

    def run_epoch(self, t_end: Optional[float],
                  deliveries: list[tuple]) -> tuple[float, list[tuple], dict]:
        """Inject ``deliveries``, advance to ``t_end`` (None = drain).

        Returns ``(next_local_event_time, outbox, epoch_stats)`` where the
        outbox holds the encoded envelopes sent during this epoch and
        ``epoch_stats`` reports events popped and wall time spent.
        """
        env = self.env
        ports = self.ctx._ports
        if deliveries:
            decoded = [decode_envelope(wire) for wire in deliveries]
            decoded.sort(key=Envelope.sort_key)
            for envelope in decoded:
                port = ports.get(envelope.dst)
                if port is None:
                    raise SimulationError(
                        f"shard {self.spec.shard_id} received envelope for "
                        f"group {envelope.dst} it does not own"
                    )
                port.deliver(envelope)
        events_before = env.events_processed
        t0 = time.perf_counter()
        if t_end is None:
            env.run()
        else:
            env.run(until=t_end)
        epoch_wall = time.perf_counter() - t0
        self.run_wall_s += epoch_wall
        self.epochs_run += 1
        outbox: list[tuple] = []
        for g in self.spec.groups:  # group order: deterministic drain
            outbox.extend(ports[g].drain_outbox())
        stats = {
            "events": env.events_processed - events_before,
            "wall_s": epoch_wall,
        }
        return env.peek(), outbox, stats

    def finish(self, horizon: Optional[float] = None) -> dict:
        """Post-run harvest: outcome rows, counters, optional digests.

        ``horizon`` is the run's ``until`` bound, if any: a horizon-bounded
        run legitimately leaves events pending *beyond* the horizon
        (monitor health loops tick forever), but everything up to it must
        have been processed.
        """
        spec = self.spec
        next_event = self.env.peek()
        if horizon is None:
            if next_event != _INF:
                raise SimulationError(
                    f"shard {spec.shard_id} finished with pending events"
                )
        elif next_event <= horizon:
            raise SimulationError(
                f"shard {spec.shard_id} finished with an unprocessed event "
                f"at {next_event} <= horizon {horizon}"
            )
        out: dict[str, Any] = {
            "shard_id": spec.shard_id,
            "groups": list(spec.groups),
            "events_processed": self.env.events_processed,
            "sleeps_elided": self.env.sleeps_elided,
            "processes_created": self.env.processes_created,
            "envelopes_sent": sum(p.sent for p in self.ctx._ports.values()),
            "envelopes_received": sum(p.received for p in self.ctx._ports.values()),
            "epochs_run": self.epochs_run,
            "run_wall_s": self.run_wall_s,
            "barrier_stall_wall_s": self.barrier_stall_s,
            "final_now": self.env.now,
            "rows": {},
        }
        if spec.collect is not None:
            rows = spec.collect(self.ctx)
            if not isinstance(rows, dict):
                raise ConfigurationError(
                    f"collect must return a dict of group rows, got {type(rows)}"
                )
            out["rows"] = {int(g): row for g, row in rows.items()}
        if spec.metrics_collect is not None:
            out["metrics"] = spec.metrics_collect(self.ctx)
        if spec.record_pop_trace:
            trace = self.env._pop_trace
            out["pop_crc"] = pop_order_crc(trace)
            out["pop_n"] = len(trace)
        if spec.tracing:
            out["trace"] = self.ctx.tracer.snapshot()
        if self.ctx.slo_engines:
            alerts = []
            for g in sorted(self.ctx.slo_engines):
                for alert in self.ctx.slo_engines[g].alert_log():
                    row = dict(alert) if isinstance(alert, dict) else alert.as_dict()
                    row["group"] = g
                    alerts.append(row)
            alerts.sort(key=lambda a: (a.get("t", 0.0), a["group"],
                                       a.get("rule", ""), a.get("state", "")))
            if spec.tracing:
                out["alerts"] = alerts
            elif alerts:
                # alerts fired but nobody asked for the distributed harvest
                out.setdefault("diagnostics", []).append(
                    f"shard {spec.shard_id}: {len(alerts)} SLO alert(s) from "
                    f"{len(self.ctx.slo_engines)} engine(s) were discarded — "
                    f"run_sharded(tracing=True) ships them to the coordinator"
                )
        if self.ctx._foreign_tracers:
            n_spans = sum(len(t.records) for t in self.ctx._foreign_tracers)
            out.setdefault("diagnostics", []).append(
                f"shard {spec.shard_id}: {len(self.ctx._foreign_tracers)} "
                f"tracer(s) with {n_spans} span(s) stayed behind in the "
                f"worker (deployment has tracing_enabled but the tracer is "
                f"not the shard tracer); pass ctx.tracer into the deployment "
                f"or the trace is lost"
            )
        return out


# ---------------------------------------------------------------------------
# worker process entry point (spawn)
# ---------------------------------------------------------------------------

def _shard_worker(spec: ShardSpec, conn) -> None:
    """Worker main: build the shard, serve epoch commands until 'exit'."""
    try:
        sim = ShardSim(spec)
        conn.send(("ready", sim.env.peek()))
    except BaseException as exc:  # noqa: BLE001 — ship the failure home
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    while True:
        t_stall = time.perf_counter()
        command = conn.recv()
        sim.barrier_stall_s += time.perf_counter() - t_stall
        try:
            if command[0] == "epoch":
                _, t_end, deliveries = command
                next_time, outbox, stats = sim.run_epoch(t_end, deliveries)
                conn.send(("ok", next_time, outbox, stats))
            elif command[0] == "finish":
                conn.send(("ok", sim.finish(command[1])))
            elif command[0] == "exit":
                return
            else:
                conn.send(("error", f"unknown command {command[0]!r}"))
        except BaseException as exc:  # noqa: BLE001
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            return


class _InlineShard:
    """Driver adapter: a ShardSim in this process."""

    def __init__(self, spec: ShardSpec):
        self.sim = ShardSim(spec)
        self.next_time = self.sim.env.peek()
        self.epoch_stats: dict = {}

    def run_epoch(self, t_end, deliveries):
        self.next_time, outbox, self.epoch_stats = \
            self.sim.run_epoch(t_end, deliveries)
        return outbox

    def finish(self, horizon) -> dict:
        return self.sim.finish(horizon)

    def close(self) -> None:
        pass


class _ProcessShard:
    """Driver adapter: a ShardSim in a spawned worker process."""

    def __init__(self, spec: ShardSpec, ctx_mp):
        self.conn, child = ctx_mp.Pipe()
        self.proc = ctx_mp.Process(
            target=_shard_worker, args=(spec, child),
            name=f"shard-{spec.shard_id}", daemon=True,
        )
        self.proc.start()
        child.close()
        self.next_time = self._expect("ready")
        self.epoch_stats: dict = {}

    def _expect(self, tag: str):
        reply = self.conn.recv()
        if reply[0] == "error":
            raise SimulationError(f"shard worker failed: {reply[1]}")
        if reply[0] != tag:
            raise SimulationError(f"protocol error: expected {tag}, got {reply[0]}")
        return reply[1] if len(reply) == 2 else reply[1:]

    def begin_epoch(self, t_end, deliveries) -> None:
        self.conn.send(("epoch", t_end, deliveries))

    def end_epoch(self) -> list[tuple]:
        self.next_time, outbox, self.epoch_stats = self._expect("ok")
        return outbox

    def run_epoch(self, t_end, deliveries):
        self.begin_epoch(t_end, deliveries)
        return self.end_epoch()

    def finish(self, horizon) -> dict:
        self.conn.send(("finish", horizon))
        return self._expect("ok")

    def close(self) -> None:
        try:
            self.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=10)
        self.conn.close()


@dataclass
class ShardRunResult:
    """Merged outcome of a sharded run."""

    num_shards: int
    total_groups: int
    lookahead_s: float
    mode: str
    #: group id -> the row collect() produced for it (merged across shards)
    merged: dict[int, Any] = field(default_factory=dict)
    #: CRC32 of the canonical JSON of ``merged`` — the shard-count
    #: invariance digest (identical for every shard count, same seed)
    merged_digest: int = 0
    #: per-shard harvest dicts (events, envelopes, optional pop digests)
    shards: list[dict] = field(default_factory=list)
    n_epochs: int = 0
    n_envelopes: int = 0
    events_processed: int = 0
    #: waits that advanced a shard's clock in place; each is one event the
    #: Timeout version of the run would have added to events_processed
    sleeps_elided: int = 0
    wall_s: float = 0.0
    #: merged MetricsRegistry; always present, always carrying the
    #: ``shard.*`` sync-layer instruments (plus whatever the spec's
    #: ``metrics_collect`` shipped from the shards)
    metrics: Any = None
    #: merged cross-shard Tracer when ``tracing=True``, else None
    tracer: Any = None
    #: canonical digest of the merged trace (0 when not tracing) — the
    #: shards=1-equals-plain-run invariance digest for observability
    trace_digest: int = 0
    #: merged SLO alert transitions (group-tagged, time-ordered)
    alerts: list = field(default_factory=list)
    #: conservative-sync telemetry: epoch log, fast-forwards, envelope
    #: bytes, barrier stalls, load imbalance, harvest diagnostics
    sync: dict = field(default_factory=dict)

    @property
    def pop_crc(self) -> int:
        """Single-shard pop-order digest (only meaningful for 1 shard)."""
        if len(self.shards) != 1 or "pop_crc" not in self.shards[0]:
            raise ConfigurationError(
                "pop_crc requires a 1-shard run with record_pop_trace=True"
            )
        return self.shards[0]["pop_crc"]


def _merged_digest(merged: dict) -> int:
    import json

    canonical = json.dumps(
        {str(g): merged[g] for g in sorted(merged)},
        sort_keys=True, separators=(",", ":"),
    )
    return zlib.crc32(canonical.encode())


def run_sharded(
    scenario: Callable,
    *,
    num_shards: int,
    total_groups: int,
    seed: int = 0,
    lookahead_s: Optional[float] = None,
    scenario_args: tuple = (),
    collect: Optional[Callable] = None,
    metrics_collect: Optional[Callable] = None,
    mode: str = "auto",
    until: Optional[float] = None,
    record_pop_trace: bool = False,
    tracing: bool = False,
    trace_max_spans: int = 250_000,
) -> ShardRunResult:
    """Run ``scenario`` partitioned into ``num_shards`` shards.

    ``lookahead_s`` is the minimum cross-group link delay (``None`` means
    the topology declares no cross-group links — infinite lookahead, one
    barrier).  ``mode``: ``"inline"`` runs every shard in this process
    (deterministic debugging, zero spawn cost), ``"process"`` runs one
    spawned worker per shard, ``"auto"`` picks inline for one shard and
    processes otherwise.

    ``tracing=True`` attaches a namespaced tracer to every shard, ships
    span snapshots and SLO alert logs home in the harvest, and merges
    them into ``result.tracer`` (one Perfetto-loadable timeline with a
    per-shard track prefix when ``num_shards > 1``) plus ``result.alerts``
    and ``result.trace_digest``.  Each shard tracer keeps every record
    until it holds ``trace_max_spans`` and counts the rest as dropped;
    the merged tracer sums those counts.  Tracing is pure bookkeeping:
    the event timeline — pop order included — is identical with it on or
    off, and ``trace_digest`` is the same in inline and process mode.
    """
    lookahead = _INF if lookahead_s is None else float(lookahead_s)
    if lookahead <= 0:
        raise ConfigurationError(f"lookahead_s must be positive, got {lookahead_s}")
    if mode not in ("auto", "inline", "process"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    resolved_mode = mode
    if mode == "auto":
        resolved_mode = "inline" if num_shards == 1 else "process"

    assignment = assign_groups(total_groups, num_shards)
    owner_of = {g: s for s, groups in enumerate(assignment) for g in groups}
    specs = [
        ShardSpec(
            shard_id=s, num_shards=num_shards, groups=groups,
            total_groups=total_groups, seed=seed, lookahead_s=lookahead,
            scenario=scenario, scenario_args=tuple(scenario_args),
            collect=collect, metrics_collect=metrics_collect,
            record_pop_trace=record_pop_trace,
            tracing=tracing, trace_max_spans=trace_max_spans,
        )
        for s, groups in enumerate(assignment)
    ]

    t_wall = time.perf_counter()
    if resolved_mode == "inline":
        drivers: list = [_InlineShard(spec) for spec in specs]
    else:
        import multiprocessing

        ctx_mp = multiprocessing.get_context("spawn")
        drivers = [_ProcessShard(spec, ctx_mp) for spec in specs]

    result = ShardRunResult(
        num_shards=num_shards, total_groups=total_groups,
        lookahead_s=lookahead, mode=resolved_mode,
    )
    epoch_log: list[dict] = []
    epoch_log_dropped = 0
    fast_forwards = 0
    envelope_bytes = 0
    barrier_wall_s = 0.0  # coordinator wall time reaping epoch replies
    try:
        #: envelopes routed but not yet injected, per destination shard
        pending: list[list[tuple]] = [[] for _ in range(num_shards)]
        pending_min = _INF  # earliest deliver_time among pending envelopes
        prev_t_end: Optional[float] = None
        while True:
            candidate = min(min(d.next_time for d in drivers), pending_min)
            if candidate == _INF:
                break
            if until is not None and candidate > until:
                break
            if prev_t_end is not None and candidate > prev_t_end:
                # idle stretch: the next event is past the previous window,
                # so the epoch clock jumps there instead of stepping
                # lookahead-by-lookahead through empty time
                fast_forwards += 1
            t_end = None if lookahead == _INF else candidate + lookahead
            if until is not None:
                t_end = until if t_end is None else min(t_end, until)
            prev_t_end = t_end
            deliveries, pending = pending, [[] for _ in range(num_shards)]
            pending_min = _INF
            # Start every shard's epoch before reaping any (process mode
            # overlaps them; inline mode degenerates to a sequential loop).
            if resolved_mode == "process":
                for s, driver in enumerate(drivers):
                    driver.begin_epoch(t_end, deliveries[s])
                t_reap = time.perf_counter()
                outboxes = [driver.end_epoch() for driver in drivers]
                barrier_wall_s += time.perf_counter() - t_reap
            else:
                outboxes = [
                    driver.run_epoch(t_end, deliveries[s])
                    for s, driver in enumerate(drivers)
                ]
            result.n_epochs += 1
            epoch_events = [d.epoch_stats.get("events", 0) for d in drivers]
            epoch_envelopes = 0
            for outbox in outboxes:
                for wire in outbox:
                    dst = wire[2]
                    shard = owner_of.get(dst)
                    if shard is None:
                        raise ConfigurationError(
                            f"envelope addressed to unknown group {dst}"
                        )
                    pending[shard].append(wire)
                    deliver_time = wire[5]
                    if deliver_time < pending_min:
                        pending_min = deliver_time
                    result.n_envelopes += 1
                    epoch_envelopes += 1
                    envelope_bytes += len(json.dumps(wire, separators=(",", ":")))
            if len(epoch_log) < _EPOCH_LOG_CAP:
                epoch_log.append({
                    "epoch": result.n_epochs - 1,
                    "candidate": candidate,
                    "t_end": t_end,
                    "events": epoch_events,
                    "wall_s": [d.epoch_stats.get("wall_s", 0.0) for d in drivers],
                    "envelopes": epoch_envelopes,
                })
            else:
                epoch_log_dropped += 1
        if pending_min != _INF and (until is None or pending_min <= until):
            raise SimulationError(
                f"run terminated with an undelivered envelope due at {pending_min}"
            )
        harvests = [driver.finish(until) for driver in drivers]
    finally:
        for driver in drivers:
            driver.close()
    result.wall_s = time.perf_counter() - t_wall

    merged: dict[int, Any] = {}
    snapshots = []
    diagnostics: list[str] = []
    for harvest in harvests:
        result.shards.append(harvest)
        result.events_processed += harvest["events_processed"]
        result.sleeps_elided += harvest["sleeps_elided"]
        for g, row in harvest["rows"].items():
            if g in merged:
                raise SimulationError(f"group {g} reported by two shards")
            merged[g] = row
        if "metrics" in harvest:
            snapshots.append(harvest["metrics"])
        diagnostics.extend(harvest.get("diagnostics", ()))
    result.merged = dict(sorted(merged.items()))
    result.merged_digest = _merged_digest(result.merged)
    for message in diagnostics:
        # worker-side warnings cannot cross the process boundary; re-emit
        # harvested diagnostics here so silent observability loss is loud
        warnings.warn(message, RuntimeWarning, stacklevel=2)

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)

    # Sync-layer telemetry.  Only deterministic quantities go into the
    # registry (bench_compare gates exact fields); wall times live in
    # ``result.sync`` where they are understood to be machine-dependent.
    events_per_shard = [h["events_processed"] for h in harvests]
    mean_events = sum(events_per_shard) / len(events_per_shard)
    imbalance = (max(events_per_shard) / mean_events) if mean_events else 1.0
    final_now = max(h["final_now"] for h in harvests)
    registry.counter("shard.epochs").inc(result.n_epochs)
    registry.counter("shard.fast_forwards").inc(fast_forwards)
    registry.counter("shard.envelopes_sent").inc(
        sum(h["envelopes_sent"] for h in harvests))
    registry.counter("shard.envelopes_received").inc(
        sum(h["envelopes_received"] for h in harvests))
    registry.counter("shard.envelope_bytes").inc(envelope_bytes)
    for harvest in harvests:
        registry.counter(
            "shard.events", shard=harvest["shard_id"]
        ).inc(harvest["events_processed"])
    registry.gauge("shard.load_imbalance").set(imbalance, t=final_now)
    result.metrics = registry

    result.sync = {
        "n_epochs": result.n_epochs,
        "fast_forwards": fast_forwards,
        "n_envelopes": result.n_envelopes,
        "envelope_bytes": envelope_bytes,
        "envelopes_sent": sum(h["envelopes_sent"] for h in harvests),
        "envelopes_received": sum(h["envelopes_received"] for h in harvests),
        "barrier_wall_s": barrier_wall_s,
        "load_imbalance": imbalance,
        "epoch_log": epoch_log,
        "epoch_log_dropped": epoch_log_dropped,
        "per_shard": [
            {
                "shard_id": h["shard_id"],
                "groups": h["groups"],
                "events": h["events_processed"],
                "epochs_run": h["epochs_run"],
                "run_wall_s": h["run_wall_s"],
                "barrier_stall_wall_s": h["barrier_stall_wall_s"],
            }
            for h in harvests
        ],
        "diagnostics": diagnostics,
    }

    if tracing:
        from repro.obs import Tracer

        merged_tracer = Tracer(
            None, max_spans=trace_max_spans * num_shards + 1024)
        merged_alerts: list[dict] = []
        for harvest in harvests:  # shard-id order: deterministic merge
            prefix = f"shard{harvest['shard_id']}/" if num_shards > 1 else None
            merged_tracer.merge_snapshot(harvest["trace"], track_prefix=prefix)
            merged_alerts.extend(harvest.get("alerts", ()))
        merged_alerts.sort(key=lambda a: (a.get("t", 0.0), a.get("group", -1),
                                          a.get("rule", ""), a.get("state", "")))
        result.tracer = merged_tracer
        result.trace_digest = merged_tracer.digest()
        result.alerts = merged_alerts
    return result
