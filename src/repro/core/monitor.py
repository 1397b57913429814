"""The GPU server's monitor (paper §V-A, §V-D).

"The monitor is the main piece of the GPU server, maintaining statistics
about the state of each GPU and API server and handling incoming function
GPU requests by using scheduling policies to choose an appropriate API
server."

Responsibilities implemented here:

* a queue of function GPU requests, dispatched by a pluggable discipline
  (:mod:`repro.core.scheduler`): the paper's deployed FCFS policy
  ("Scheduling at the GPU server enforces a first-come first-serve
  policy", §VIII-D — head-of-line blocking included), its future-work
  shortest-function-first, plus the starvation-bounded ``sff_aged`` and
  MQFQ-style fair-queueing extensions,
* GPU selection via the configured policy (best-fit / worst-fit) over
  GPUs that currently have an idle API server and enough *schedulable*
  memory (capacity minus static footprints minus committed declarations),
* the scheduling charge ledger: every granted request charges its
  declared bytes against one device until release — the single
  accounting that feasibility checks, migration targeting and the
  invariant auditor all read,
* imbalance detection and migration triggering: when one GPU hosts ≥2
  busy API servers while another is idle, move the cheapest busy server
  over (§V-D's scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, Event
from repro.core.migration import migrate_api_server, MigrationRecord
from repro.core.policies import Policy
from repro.core.scheduler import DISCIPLINES, make_scheduler

__all__ = ["Monitor", "GpuRequest"]


@dataclass
class _GpuSchedView:
    """What the policy sees about one GPU."""

    device_id: int
    schedulable_free: int


@dataclass
class GpuRequest:
    """A queued "function needs a GPU" request."""

    declared_bytes: int
    invocation_id: int
    submitted_at: float
    #: fires with the assigned ApiServer
    granted: Event
    granted_at: float = -1.0
    #: hint used by the shortest-function-first discipline (0 = unknown)
    expected_duration_s: float = 0.0
    #: fires with the replacement request when a granted-but-unbegun
    #: request is re-queued because its server died
    resubmitted: Optional[Event] = None
    #: the replacement request, once re-queued
    superseded: Optional["GpuRequest"] = None
    #: (trace_id, parent_span_id) of the requesting invocation, when
    #: tracing — lets the monitor parent its queue span under it
    trace_ctx: Optional[tuple] = None
    #: function-class key for fair-queueing disciplines (the function
    #: name, when the platform submits it); None = derived from size
    flow_key: Optional[str] = None
    #: where this request's *accountable* wait began.  Equals
    #: ``submitted_at`` for a fresh request; a crash-requeued clone gets
    #: the requeue time instead, so the original's already-traced queue
    #: span [submit, grant1] is not counted a second time inside the
    #: clone's span (critpath coverage used to exceed 100% of e2e).
    #: ``submitted_at`` keeps the true arrival for aging/starvation
    #: bounds.  -1.0 = unset (falls back to ``submitted_at``).
    accounted_from: float = -1.0

    def wait_start(self) -> float:
        """Start of the wait window charged to this request's grant."""
        return self.accounted_from if self.accounted_from >= 0.0 else self.submitted_at


class Monitor:
    """Statistics + scheduling + migration control for one GPU server."""

    def __init__(self, env: Environment, gpu_server, policy: Policy,
                 migration_enabled: bool = False, period_s: float = 0.5,
                 confirm_checks: int = 4, queue_discipline: str = "fcfs",
                 heartbeat_timeout_s: float = 2.0,
                 sff_aging_factor: float = 0.1,
                 mqfq_throttle_window_s: float = 60.0,
                 metrics=None):
        if queue_discipline not in DISCIPLINES:
            raise SimulationError(f"unknown queue discipline {queue_discipline!r}")
        self.env = env
        self.gpu_server = gpu_server
        self.policy = policy
        self.queue_discipline = queue_discipline
        self.metrics = metrics
        self.scheduler = make_scheduler(
            queue_discipline, self, metrics,
            sff_aging_factor=sff_aging_factor,
            mqfq_throttle_window_s=mqfq_throttle_window_s,
        )
        self.migration_enabled = migration_enabled
        #: imbalance and health check period; API servers send their
        #: §V-A ③ stats heartbeat every half period
        self.period_s = period_s
        self.confirm_checks = max(1, confirm_checks)
        self._imbalance_streak = 0
        #: device_id -> declared bytes committed by functions assigned there
        self.committed: dict[int, int] = {
            d.device_id: 0 for d in gpu_server.devices
        }
        #: device_id -> schedulable capacity (set after bring-up)
        self.schedulable_capacity: dict[int, int] = {}
        #: server_id -> (device_id, declared_bytes) the scheduler charged —
        #: the ONE byte accounting for grants (feasibility, migration
        #: targeting and the auditor all read it; see ``charged_bytes``)
        self._charges: dict[int, tuple[int, int]] = {}
        self.requests_total = 0
        self.requests_queued_peak = 0
        #: server_id -> last received ApiServerStats (§V-A ③ updates)
        self.last_stats: dict[int, object] = {}
        self.migration_records: list[MigrationRecord] = []
        self._migration_proc = None
        self._migration_in_flight = False
        # -- failure detection / recovery ------------------------------------
        #: declare a server dead after this long without a heartbeat
        self.heartbeat_timeout_s = heartbeat_timeout_s
        #: server_id -> time of the last §V-A ③ update received
        self._last_seen: dict[int, float] = {}
        #: server_id -> the GpuRequest currently holding that server
        self._inflight: dict[int, GpuRequest] = {}
        #: crashed-mid-session servers whose function hasn't released yet
        self._pending_release: set[int] = set()
        #: restarted servers still waiting for that release
        self._restarted: set[int] = set()
        self.crashes_detected = 0
        self.requests_requeued = 0
        self._health_proc = None
        #: optional :class:`repro.obs.Tracer` (set by the deployment)
        self.tracer = None

    def _trace_track(self) -> tuple[str, str]:
        host = getattr(self.gpu_server, "host", None)
        return (host.name if host is not None else "gpu-server"), "monitor"

    # -- bring-up ----------------------------------------------------------------
    def finalize_capacity(self) -> None:
        """Snapshot per-GPU schedulable capacity after static bring-up."""
        for device in self.gpu_server.devices:
            self.schedulable_capacity[device.device_id] = device.mem_free

    def start(self) -> None:
        # §V-A ③: every API server streams periodic updates
        for server in self.gpu_server.api_servers:
            server.start_stats_reporting(self, self.period_s / 2)
            self._last_seen[server.server_id] = self.env.now
        if self.migration_enabled and self._migration_proc is None:
            self._migration_proc = self.env.process(
                self._migration_loop(), name="monitor-migration"
            )
        if self._health_proc is None:
            self._health_proc = self.env.process(
                self._health_loop(), name="monitor-health"
            )

    def receive_stats(self, stats) -> None:
        """Record an API server's update message."""
        self.last_stats[stats.server_id] = stats
        self._last_seen[stats.server_id] = stats.t

    # -- charge ledger -----------------------------------------------------------
    def charged_bytes(self, server) -> int:
        """Declared bytes currently charged against ``server`` (0 if idle)."""
        charge = self._charges.get(server.server_id)
        return charge[1] if charge is not None else 0

    def charged_device(self, server) -> Optional[int]:
        """The device a server's charge rests on (None if uncharged)."""
        charge = self._charges.get(server.server_id)
        return charge[0] if charge is not None else None

    def charges(self) -> dict[int, tuple[int, int]]:
        """Snapshot of the ledger: server_id -> (device_id, bytes)."""
        return dict(self._charges)

    def _uncharge(self, server_id: int) -> Optional[int]:
        """Drop a server's charge; returns the device it rested on."""
        charge = self._charges.pop(server_id, None)
        if charge is None:
            return None
        device_id, declared = charge
        self.committed[device_id] -= declared
        self._publish_committed(device_id)
        return device_id

    def _publish_committed(self, device_id: int) -> None:
        """Gauge the device's committed fraction (drives the memory SLO)."""
        if self.metrics is None:
            return
        capacity = self.schedulable_capacity.get(device_id)
        if not capacity:
            return
        self.metrics.gauge(
            "gpu.committed_frac", device=device_id
        ).set(self.committed[device_id] / capacity, t=self.env.now)

    # -- dynamic (KV-cache) charges ----------------------------------------------
    def charge_extra(self, api_server, nbytes: int, force: bool = False) -> bool:
        """Grow a granted server's charge by ``nbytes`` of dynamic memory.

        LLM serving allocates KV-cache pages *after* the grant, beyond the
        declared bytes; charging them through the same ledger means cache
        pressure is visible everywhere declared bytes are: feasibility
        checks (``schedulable_free``), imbalance detection and migration
        targeting (``charged_bytes``), and the invariant auditor.  Returns
        False — charging nothing — when the device lacks schedulable
        headroom, which is the API server's signal to evict.

        ``force=True`` charges unconditionally (the progress guarantee for
        a lone sequence that must grow or live-lock): ``committed`` may
        then exceed capacity, making ``schedulable_free`` negative — no
        new grants land on the device until pages are released, which is
        exactly the pressure semantics wanted.
        """
        if nbytes <= 0:
            raise SimulationError("extra charge must be positive")
        sid = api_server.server_id
        charge = self._charges.get(sid)
        if charge is None:
            raise SimulationError(f"server {sid} holds no charge to grow")
        device_id, total = charge
        if not force and self.schedulable_free(device_id) < nbytes:
            return False
        self.committed[device_id] += nbytes
        self._charges[sid] = (device_id, total + nbytes)
        self._publish_committed(device_id)
        return True

    def uncharge_extra(self, api_server, nbytes: int) -> None:
        """Return ``nbytes`` of a server's dynamic charge (eviction path).

        The base (declared) charge must survive until :meth:`release`,
        which pops the whole remaining total at once.
        """
        sid = api_server.server_id
        charge = self._charges.get(sid)
        if charge is None:
            raise SimulationError(f"server {sid} holds no charge")
        device_id, total = charge
        if nbytes <= 0 or nbytes > total:
            raise SimulationError(
                f"cannot uncharge {nbytes} B from a {total} B charge"
            )
        self.committed[device_id] -= nbytes
        self._charges[sid] = (device_id, total - nbytes)
        self._publish_committed(device_id)

    # -- request handling --------------------------------------------------------------
    def schedulable_free(self, device_id: int) -> int:
        capacity = self.schedulable_capacity.get(device_id)
        if capacity is None:
            raise SimulationError("finalize_capacity() not called")
        return capacity - self.committed[device_id]

    @property
    def queue_length(self) -> int:
        return len(self.scheduler)

    @property
    def _queue(self):
        """The scheduler's arrival-ordered deque (legacy test hook)."""
        return self.scheduler._queue

    def observe_pending_waits(self) -> None:
        """Teardown hook: flush still-queued waits into the metrics.

        See :meth:`DispatchScheduler.flush_pending_waits` — without this,
        a saturated run's tail waits (requests never granted) are absent
        from ``scheduler.queue_wait_s`` entirely.
        """
        self.scheduler.flush_pending_waits()

    def submit_request(self, declared_bytes: int, invocation_id: int = -1,
                       expected_duration_s: float = 0.0,
                       trace_ctx: Optional[tuple] = None,
                       flow_key: Optional[str] = None) -> GpuRequest:
        """Enqueue a GPU request; its ``granted`` event fires with a server."""
        if declared_bytes <= 0:
            raise SimulationError("declared GPU memory must be positive")
        max_cap = max(self.schedulable_capacity.values(), default=0)
        if declared_bytes > max_cap:
            raise SimulationError(
                f"request for {declared_bytes} B exceeds any GPU's schedulable "
                f"capacity ({max_cap} B)"
            )
        request = GpuRequest(
            declared_bytes=declared_bytes,
            invocation_id=invocation_id,
            submitted_at=self.env.now,
            granted=Event(self.env),
            expected_duration_s=expected_duration_s,
            resubmitted=Event(self.env),
            trace_ctx=trace_ctx,
            flow_key=flow_key,
            accounted_from=self.env.now,
        )
        self.requests_total += 1
        self.scheduler.enqueue(request)
        self.requests_queued_peak = max(self.requests_queued_peak, self.queue_length)
        self._try_dispatch()
        return request

    def release(self, api_server) -> None:
        """A function finished on ``api_server``; free its slot."""
        sid = api_server.server_id
        self._inflight.pop(sid, None)
        if sid in self._pending_release:
            # The server crashed under this function and the monitor already
            # uncommitted its charge; this is the orphaned lease coming back.
            self._pending_release.discard(sid)
            if sid in self._restarted:
                self._finish_recovery(api_server)
            return
        if self._uncharge(sid) is None:
            raise SimulationError(f"server {sid} was not charged")
        # release is called after end_session, so the server is idle again
        # (possibly freshly returned to its home GPU)
        api_server.reserved = False
        self._try_dispatch()

    def cancel(self, request: GpuRequest) -> None:
        """Abandon a request whose function died waiting for (or right
        after) its grant — e.g. killed by the platform watchdog.

        Without this, a granted-but-never-attached request would keep its
        server reserved and charged forever.
        """
        while request.superseded is not None:
            request = request.superseded
        if self.scheduler.remove(request):
            return
        if not request.granted.triggered:
            return  # never queued here (or already cancelled)
        server = request.granted.value
        sid = server.server_id
        if self._inflight.get(sid) is not request:
            return  # already released or recovered
        self._inflight.pop(sid, None)
        self._uncharge(sid)
        server.reserved = False
        self._try_dispatch()

    def _gpu_views(self) -> list:
        views = []
        for device in self.gpu_server.devices:
            if any(
                s.home_device_id == device.device_id and s.schedulable
                for s in self.gpu_server.api_servers
            ):
                views.append(
                    _GpuSchedView(
                        device_id=device.device_id,
                        schedulable_free=self.schedulable_free(device.device_id),
                    )
                )
        return views

    def _grant(self, request: GpuRequest, device_id: int) -> None:
        server = next(
            s
            for s in self.gpu_server.api_servers
            if s.home_device_id == device_id and s.schedulable
        )
        server.reserved = True
        self.committed[device_id] += request.declared_bytes
        self._charges[server.server_id] = (device_id, request.declared_bytes)
        self._publish_committed(device_id)
        self._inflight[server.server_id] = request
        request.granted_at = self.env.now
        if self.tracer is not None:
            pid, tid = self._trace_track()
            trace_id, parent_id = request.trace_ctx or (None, None)
            self.tracer.complete(
                "gpu_request", request.wait_start(), self.env.now,
                cat="queue", pid=pid, tid=tid,
                trace_id=trace_id, parent_id=parent_id,
                invocation_id=request.invocation_id,
                declared_bytes=request.declared_bytes,
                server=server.server_id, device=device_id,
            )
        request.granted.succeed(server)

    def _try_dispatch(self) -> None:
        self.scheduler.dispatch()

    # -- migration control ------------------------------------------------------------
    def _migration_loop(self) -> Generator:
        """Periodically detect imbalance and migrate (§V-D)."""
        while True:
            yield self.env.timeout(self.period_s)
            if self._migration_in_flight:
                continue
            plan = self._find_imbalance()
            if plan is None:
                self._imbalance_streak = 0
                continue
            # Require sustained imbalance with no queued demand: a GPU
            # that is idle only because its next function is still
            # downloading must not trigger a move.
            if self.queue_length:
                # Queued demand invalidates the observation entirely — a
                # stale streak must not fire a move on the first tick
                # after the queue drains.
                self._imbalance_streak = 0
                continue
            self._imbalance_streak += 1
            if self._imbalance_streak < self.confirm_checks:
                continue
            self._imbalance_streak = 0
            server, target = plan
            self._migration_in_flight = True
            yield from self._migrate_one(server, target)
            self._migration_in_flight = False
            self._try_dispatch()

    # -- failure detection / recovery (§V-A ③ heartbeats as liveness) -------------
    def _health_loop(self) -> Generator:
        """Declare servers dead after missed heartbeats and run recovery.

        Pure observer: draws no randomness and only reads clocks, so an
        always-on health loop leaves fault-free runs' timelines untouched.
        """
        while True:
            yield self.env.timeout(self.period_s)
            now = self.env.now
            if self.metrics is not None:
                # the tick doubles as the SLO engine's time pulse: its
                # notification drives rule evaluation at ``now`` even when
                # no invocations complete, so alerts can *clear* during a
                # quiet recovery
                self.metrics.counter("monitor.health_ticks").inc()
            for server in self.gpu_server.api_servers:
                if server.recovering:
                    continue
                if server.dead:
                    # crashed since the last tick (or killed explicitly)
                    self._handle_dead_server(server)
                    continue
                last = self._last_seen.get(server.server_id)
                if last is not None and now - last > self.heartbeat_timeout_s:
                    server.crash()  # liveness lost: fence and tear down
                    self._handle_dead_server(server)

    def _handle_dead_server(self, server) -> None:
        """Uncommit a dead server's charge, rescue its request, restart it."""
        sid = server.server_id
        self.crashes_detected += 1
        if self.metrics is not None:
            self.metrics.counter("monitor.crashes_detected").inc()
        if self.tracer is not None:
            pid, tid = self._trace_track()
            self.tracer.instant("crash_detected", pid=pid, tid=tid, server=sid)
        server.recovering = True
        self._uncharge(sid)
        orphan = self._inflight.pop(sid, None)
        if orphan is not None:
            if server.crashed_mid_session:
                # The function was attached when the server died; it will
                # notice (RPC timeout) and come back through release().
                self._pending_release.add(sid)
            else:
                # Granted but the session never began: the request can be
                # transparently re-queued at the front of the line.
                self._requeue(orphan)
        self.gpu_server.restart_api_server(server)

    def _requeue(self, orphan: GpuRequest) -> None:
        clone = GpuRequest(
            declared_bytes=orphan.declared_bytes,
            invocation_id=orphan.invocation_id,
            submitted_at=orphan.submitted_at,
            granted=Event(self.env),
            expected_duration_s=orphan.expected_duration_s,
            resubmitted=Event(self.env),
            trace_ctx=orphan.trace_ctx,
            flow_key=orphan.flow_key,
            # the wait already served before the crash was accounted to the
            # orphan's grant; the clone's window starts at the requeue
            accounted_from=self.env.now,
        )
        orphan.superseded = clone
        self.requests_requeued += 1
        if self.metrics is not None:
            self.metrics.counter("monitor.requests_requeued").inc()
        if self.tracer is not None:
            pid, tid = self._trace_track()
            trace_id, parent_id = orphan.trace_ctx or (None, None)
            self.tracer.instant(
                "request_requeued", pid=pid, tid=tid,
                trace_id=trace_id, parent_id=parent_id,
                invocation_id=orphan.invocation_id,
            )
        self.scheduler.requeue(clone)
        if orphan.resubmitted is not None:
            orphan.resubmitted.succeed(clone)
        self._try_dispatch()

    def server_restarted(self, server) -> None:
        """The GPU server finished re-bring-up of a crashed API server."""
        sid = server.server_id
        self._last_seen[sid] = self.env.now
        server.start_stats_reporting(self, self.period_s / 2)
        self._restarted.add(sid)
        if sid not in self._pending_release:
            self._finish_recovery(server)

    def _finish_recovery(self, server) -> None:
        sid = server.server_id
        self._restarted.discard(sid)
        server.recovering = False
        server.reserved = False
        server.crashed_mid_session = False
        self._try_dispatch()

    def _find_imbalance(self) -> Optional[tuple[object, int]]:
        """(busy server to move, idle target GPU) or None.

        Decisions use the *reported* statistics (the last §V-A ③ update
        message from each server), not live state — the monitor acts on
        slightly stale information, as the real system does.

        Candidate ordering and target feasibility both use the charge
        ledger (declared bytes): the charge is what actually moves to the
        target GPU's committed accounting, so ordering by live
        ``used_bytes`` — which can sit far below the charge while a
        function is still allocating — could prefer a server whose charge
        barely fits (or doesn't fit) over a genuinely cheap one.
        """
        servers = self.gpu_server.api_servers
        busy_on: dict[int, list] = {d.device_id: [] for d in self.gpu_server.devices}
        for s in servers:
            report = self.last_stats.get(s.server_id)
            if report is None:
                continue
            # guard against moving a server that finished since it reported
            if report.busy and s.busy:
                busy_on[report.current_device_id].append(s)
        idle_gpus = [d for d, lst in busy_on.items() if not lst]
        crowded = [(d, lst) for d, lst in busy_on.items() if len(lst) >= 2]
        if not idle_gpus or not crowded:
            return None
        # most crowded GPU first; move its cheapest (least charged) server
        crowded.sort(key=lambda item: -len(item[1]))
        for device_id, servers_here in crowded:
            candidates = sorted(
                servers_here, key=lambda s: (self.charged_bytes(s), s.server_id)
            )
            for server in candidates:
                for target in sorted(idle_gpus):
                    if not self.gpu_server.migration_slot_available(target):
                        continue
                    if self.schedulable_free(target) >= self.charged_bytes(server):
                        return server, target
        return None

    def _migrate_one(self, server, target_device_id: int) -> Generator:
        source = server.current_device_id
        try:
            record = yield from migrate_api_server(server, target_device_id)
        except SimulationError:
            return  # server finished in the meantime; nothing to do
        self.migration_records.append(record)
        if self.tracer is not None:
            pid, tid = self._trace_track()
            self.tracer.complete(
                "migration", record.started_at,
                record.started_at + record.duration_s,
                cat="migration", pid=pid, tid=tid,
                server=record.server_id, source=record.source_device,
                target=record.target_device, moved_bytes=record.moved_bytes,
                allocations=record.allocations_moved,
            )
        # move the scheduling charge with the server
        charge = self._charges.get(server.server_id)
        if charge is not None:
            # the stored total includes any dynamic (KV-cache) extras, so
            # cache pressure moves to the target with the server
            _, declared = charge
            self.committed[source] -= declared
            self.committed[target_device_id] += declared
            self._charges[server.server_id] = (target_device_id, declared)
            self._publish_committed(source)
            self._publish_committed(target_device_id)
