"""Streaming SLO evaluation: burn-rate alerts over live metric streams.

The engine subscribes to a :class:`~repro.obs.metrics.MetricsRegistry`
and consumes every recorded observation as ``(metric, value, t)`` —
nothing is polled, nothing re-walks histories.  Each rule keeps sliding
**sim-time** windows over the observations it cares about and follows a
two-state machine (ok -> firing -> ok); every transition appends a
structured :class:`AlertEvent` to the engine's log.

Rules shipped by :func:`default_rules`:

* :class:`BurnRateRule` — the SRE multi-window availability alert: the
  error *budget* is ``1 - target``; a window's **burn rate** is its
  error rate divided by the budget.  The rule fires only when **every**
  window burns past its factor (a fast window for responsiveness, a slow
  window so one blip can't page) and clears as soon as any window
  recovers — after a crash heals, successes (or simply sim time) drain
  the fast window first, clearing the alert.
* :class:`LatencyRule` — windowed p95 latency against a threshold.
* :class:`GpuImbalanceRule` — spread between the busiest and idlest
  GPU's windowed mean utilization (catches skewed scheduling / a wedged
  server, §V-C's sharing concern).
* :class:`GpuMemoryPressureRule` — sustained near-capacity committed
  memory on a device (declared charges + KV-cache extras), the regime
  where LLM cache growth forces evictions and blocks grants.
* :class:`QueueStarvationRule` — oldest unserved scheduler request's
  wait (FIFO-approximated from enqueue/grant/cancel counter streams);
  catches disciplines starving large jobs.

Determinism: evaluation is pure bookkeeping over observations and their
timestamps — no events, no timeouts, no RNG — so an attached engine
never perturbs the simulated timeline (the determinism goldens pin
this).  Time-driven transitions (e.g. clearing after a quiet recovery)
ride on the monitor's health-tick pulse, which drives
:meth:`SloEngine.evaluate` without adding events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry, percentile

__all__ = [
    "AlertEvent",
    "SlidingWindow",
    "Rule",
    "BurnRateRule",
    "LatencyRule",
    "GpuImbalanceRule",
    "GpuMemoryPressureRule",
    "QueueStarvationRule",
    "SloEngine",
    "default_rules",
    "evaluate_cluster_slo",
]


@dataclass
class AlertEvent:
    """One alert transition (firing or resolved), stamped with sim time."""

    t: float
    rule: str
    severity: str
    state: str  # "firing" | "resolved"
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "details": self.details,
        }


class SlidingWindow:
    """(t, value, tag) samples within the trailing ``width`` seconds.

    ``tag`` (optional, default ``None``) carries per-sample context —
    rules use it for exemplar trace ids, so a breaching window can name
    the concrete traces behind it.
    """

    __slots__ = ("width", "_samples", "_sum")

    def __init__(self, width: float):
        if width <= 0:
            raise ValueError("window width must be positive")
        self.width = width
        self._samples: deque = deque()
        self._sum = 0.0

    def add(self, t: float, value: float, tag=None) -> None:
        self._samples.append((t, value, tag))
        self._sum += value

    def prune(self, now: float) -> None:
        cutoff = now - self.width
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            _, value, _ = samples.popleft()
            self._sum -= value

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return self._sum

    def mean(self) -> Optional[float]:
        if not self._samples:
            return None
        return self._sum / len(self._samples)

    def values(self) -> list[float]:
        return [v for _, v, _ in self._samples]

    def tagged(self) -> list[tuple]:
        """The live (value, tag) pairs whose tag is set (exemplars)."""
        return [(v, tag) for _, v, tag in self._samples if tag is not None]


class Rule:
    """Base class: consume observations, report condition state.

    ``metrics`` lists the metric names the engine routes to
    :meth:`observe`; :meth:`check` returns a details dict while the
    condition holds and ``None`` otherwise.
    """

    name: str = "rule"
    severity: str = "warning"
    metrics: tuple = ()

    def observe(self, metric, value: float, t: float) -> None:  # pragma: no cover
        raise NotImplementedError

    def check(self, now: float) -> Optional[dict]:  # pragma: no cover
        raise NotImplementedError


class BurnRateRule(Rule):
    """Multi-window, multi-burn-rate availability alert.

    ``windows`` is ``[(width_s, burn_factor), ...]``; with target 0.99
    the budget is 0.01, so ``(60.0, 5.0)`` means "error rate >= 5% over
    the last minute".  Success/failure is read from the
    ``invocation.status`` counter stream (``status == "completed"``
    counts as success; ``failed`` / ``timeout`` / anything else as
    failure).
    """

    metrics = ("invocation.status",)

    def __init__(self, name: str = "availability-burn", target: float = 0.99,
                 windows=((60.0, 5.0), (240.0, 2.0)),
                 severity: str = "page"):
        if not 0.0 < target < 1.0:
            raise ValueError("SLO target must be in (0, 1)")
        self.name = name
        self.severity = severity
        self.target = target
        self.budget = 1.0 - target
        self.windows = [
            (SlidingWindow(width), SlidingWindow(width), factor)
            for width, factor in windows
        ]  # (total, failures, burn factor)

    def observe(self, metric, value: float, t: float) -> None:
        failed = 0.0 if metric.labels.get("status") == "completed" else value
        tag = getattr(metric, "last_trace_id", None)
        for total, failures, _ in self.windows:
            total.add(t, value)
            if failed:
                failures.add(t, failed, tag)

    def check(self, now: float) -> Optional[dict]:
        details = {"target": self.target, "windows": []}
        firing = True
        for total, failures, factor in self.windows:
            total.prune(now)
            failures.prune(now)
            rate = failures.total / total.total if total.total > 0 else 0.0
            burn = rate / self.budget
            details["windows"].append({
                "width_s": total.width,
                "error_rate": round(rate, 6),
                "burn_rate": round(burn, 4),
                "burn_threshold": factor,
            })
            if burn < factor:
                firing = False
        if not firing:
            return None
        # exemplars: the traces behind the fast window's live failures
        seen: list[int] = []
        for _, tag in self.windows[0][1].tagged():
            if tag not in seen:
                seen.append(tag)
        if seen:
            details["exemplars"] = seen[-5:]
        return details


class LatencyRule(Rule):
    """Windowed p95 end-to-end latency against a static threshold."""

    metrics = ("invocation.e2e_s",)

    def __init__(self, name: str = "latency-p95", threshold_s: float = 120.0,
                 window_s: float = 300.0, min_count: int = 5,
                 severity: str = "warning"):
        self.name = name
        self.severity = severity
        self.threshold_s = threshold_s
        self.min_count = min_count
        self.window = SlidingWindow(window_s)

    def observe(self, metric, value: float, t: float) -> None:
        # count every completion: a timed-out invocation is a latency too
        self.window.add(t, value, getattr(metric, "last_trace_id", None))

    def check(self, now: float) -> Optional[dict]:
        self.window.prune(now)
        if self.window.count < self.min_count:
            return None
        p95 = percentile(self.window.values(), 95)
        if p95 <= self.threshold_s:
            return None
        details = {
            "p95_s": round(p95, 4),
            "threshold_s": self.threshold_s,
            "count": self.window.count,
        }
        # exemplars: the worst in-window latencies with trace context
        offenders = sorted(
            (pair for pair in self.window.tagged() if pair[0] > self.threshold_s),
            key=lambda pair: -pair[0],
        )
        if offenders:
            details["exemplars"] = [tag for _, tag in offenders[:3]]
        return details


class GpuImbalanceRule(Rule):
    """Busiest-vs-idlest GPU windowed mean utilization spread."""

    metrics = ("gpu.utilization",)

    def __init__(self, name: str = "gpu-imbalance", min_spread: float = 0.4,
                 window_s: float = 120.0, min_samples: int = 3,
                 severity: str = "warning"):
        self.name = name
        self.severity = severity
        self.min_spread = min_spread
        self.window_s = window_s
        self.min_samples = min_samples
        self._devices: dict[tuple, SlidingWindow] = {}

    def observe(self, metric, value: float, t: float) -> None:
        key = (metric.labels.get("gpu_server"), metric.labels.get("device"))
        window = self._devices.get(key)
        if window is None:
            window = self._devices[key] = SlidingWindow(self.window_s)
        window.add(t, value)

    def check(self, now: float) -> Optional[dict]:
        means = {}
        for key, window in self._devices.items():
            window.prune(now)
            if window.count >= self.min_samples:
                means[key] = window.mean()
        if len(means) < 2:
            return None
        busiest = max(means, key=lambda k: means[k])
        idlest = min(means, key=lambda k: means[k])
        spread = means[busiest] - means[idlest]
        if spread < self.min_spread:
            return None
        return {
            "spread": round(spread, 4),
            "min_spread": self.min_spread,
            "busiest": {"gpu": f"{busiest[0]}/gpu{busiest[1]}",
                        "mean_util": round(means[busiest], 4)},
            "idlest": {"gpu": f"{idlest[0]}/gpu{idlest[1]}",
                       "mean_util": round(means[idlest], 4)},
        }


class GpuMemoryPressureRule(Rule):
    """Sustained near-capacity committed GPU memory on any device.

    Watches the monitor's ``gpu.committed_frac`` gauge (declared charges
    plus dynamic KV-cache extras over schedulable capacity).  Fires when
    some device's windowed mean committed fraction stays at or above
    ``min_frac`` — the regime where LLM KV-cache growth forces evictions
    and blocks new grants.  One-shot spikes (a single large grant that
    releases quickly) don't hold the windowed mean up, so they don't page.
    """

    metrics = ("gpu.committed_frac",)

    def __init__(self, name: str = "gpu-memory-pressure", min_frac: float = 0.95,
                 window_s: float = 30.0, min_samples: int = 3,
                 severity: str = "warning"):
        if not 0.0 < min_frac <= 1.0:
            raise ValueError("min_frac must be in (0, 1]")
        self.name = name
        self.severity = severity
        self.min_frac = min_frac
        self.window_s = window_s
        self.min_samples = min_samples
        self._devices: dict[tuple, SlidingWindow] = {}

    def observe(self, metric, value: float, t: float) -> None:
        key = (metric.labels.get("gpu_server"), metric.labels.get("device"))
        window = self._devices.get(key)
        if window is None:
            window = self._devices[key] = SlidingWindow(self.window_s)
        window.add(t, value)

    def check(self, now: float) -> Optional[dict]:
        worst_key, worst_mean = None, None
        for key, window in self._devices.items():
            window.prune(now)
            if window.count < self.min_samples:
                continue
            mean = window.mean()
            if worst_mean is None or mean > worst_mean:
                worst_key, worst_mean = key, mean
        if worst_mean is None or worst_mean < self.min_frac:
            return None
        return {
            "device": f"gpu{worst_key[1]}",
            "mean_committed_frac": round(worst_mean, 4),
            "min_frac": self.min_frac,
        }


class QueueStarvationRule(Rule):
    """Oldest unserved GPU request waiting past ``max_wait_s``.

    Pairs the scheduler's ``enqueued`` / ``granted`` / ``cancelled``
    counter streams FIFO-style — exact for FCFS and a sound *lower*
    bound on the oldest wait for reordering disciplines (SFF serving a
    younger request keeps the older arrival at the deque head).
    """

    metrics = ("scheduler.enqueued", "scheduler.granted", "scheduler.cancelled")

    def __init__(self, name: str = "queue-starvation", max_wait_s: float = 60.0,
                 severity: str = "warning"):
        self.name = name
        self.severity = severity
        self.max_wait_s = max_wait_s
        self._pending: deque = deque()

    def observe(self, metric, value: float, t: float) -> None:
        if metric.name == "scheduler.enqueued":
            for _ in range(int(value)):
                self._pending.append(t)
        else:  # granted or cancelled both leave the queue
            for _ in range(int(value)):
                if self._pending:
                    self._pending.popleft()

    def check(self, now: float) -> Optional[dict]:
        if not self._pending:
            return None
        oldest_wait = now - self._pending[0]
        if oldest_wait <= self.max_wait_s:
            return None
        return {
            "oldest_wait_s": round(oldest_wait, 4),
            "max_wait_s": self.max_wait_s,
            "backlog": len(self._pending),
        }


def default_rules() -> list[Rule]:
    """The stock rule set deployments attach out of the box."""
    return [
        BurnRateRule(),
        LatencyRule(),
        GpuImbalanceRule(),
        GpuMemoryPressureRule(),
        QueueStarvationRule(),
    ]


class SloEngine:
    """Routes a registry's observation stream to rules, logs transitions.

    Rules are re-checked whenever one of their metrics records (streaming
    fire) and on every explicit :meth:`evaluate` (the monitor's health
    tick calls it each period, and harnesses call it once at run end) —
    so alerts both fire and *clear* even when the triggering traffic
    stops.
    """

    def __init__(self, rules: Optional[list] = None):
        self.rules: list[Rule] = list(rules) if rules is not None else default_rules()
        names = [rule.name for rule in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {names}")
        self.alerts: list[AlertEvent] = []
        #: rule name -> the AlertEvent currently firing
        self.active: dict[str, AlertEvent] = {}
        self._routes: dict[str, list[Rule]] = {}
        #: callbacks invoked on every *firing* transition (resolved
        #: transitions are log-only) — the deployment hooks the tracer's
        #: sampler here so alert-overlapping traces are tail-kept
        self._alert_hooks: list = []
        for rule in self.rules:
            for metric_name in rule.metrics:
                self._routes.setdefault(metric_name, []).append(rule)

    def attach(self, registry: MetricsRegistry) -> "SloEngine":
        registry.subscribe(self._on_observation)
        return self

    def on_alert(self, hook) -> "SloEngine":
        """Register ``hook(event)`` for firing transitions.  Hooks must be
        pure bookkeeping (no events, no RNG), same contract as registry
        subscribers."""
        self._alert_hooks.append(hook)
        return self

    # -- streaming ---------------------------------------------------------------
    def _on_observation(self, metric, value, t) -> None:
        interested = self._routes.get(metric.name)
        if not interested:
            return
        for rule in interested:
            rule.observe(metric, value, t)
        # any observation also advances time for every rule: a success
        # stream must be able to *clear* an availability burn, and a
        # starving queue must fire off grant traffic elsewhere
        self.evaluate(t)

    # -- evaluation --------------------------------------------------------------
    def evaluate(self, now: float) -> list[AlertEvent]:
        """Re-check every rule at ``now``; returns transitions (if any)."""
        transitions = []
        for rule in self.rules:
            details = rule.check(now)
            firing = self.active.get(rule.name)
            if details is not None and firing is None:
                event = AlertEvent(now, rule.name, rule.severity, "firing", details)
                self.active[rule.name] = event
                self.alerts.append(event)
                transitions.append(event)
                for hook in self._alert_hooks:
                    hook(event)
            elif details is None and firing is not None:
                event = AlertEvent(
                    now, rule.name, rule.severity, "resolved",
                    {"fired_at": firing.t, "duration_s": now - firing.t},
                )
                del self.active[rule.name]
                self.alerts.append(event)
                transitions.append(event)
        return transitions

    # -- reporting ---------------------------------------------------------------
    def summary(self) -> dict:
        fired: dict[str, int] = {}
        for event in self.alerts:
            if event.state == "firing":
                fired[event.rule] = fired.get(event.rule, 0) + 1
        return {
            "events": len(self.alerts),
            "fired": fired,
            "active": sorted(self.active),
        }

    def alert_log(self) -> list[dict]:
        """Serializable transition log, for alerts.json artifacts."""
        return [event.as_dict() for event in self.alerts]


def evaluate_cluster_slo(registry: MetricsRegistry,
                         rules: Optional[list] = None) -> SloEngine:
    """Evaluate SLO rules over a *merged* registry's gauge series.

    Per-shard engines stream live inside their own worker and never see
    the neighbours' metrics; some conditions only exist at cluster scope
    (a GPU-utilization spread *across* shards, for one).  This replays
    every timestamped gauge sample of ``registry`` — the merged registry
    a sharded run assembles — through a fresh engine in global time
    order, so windowed rules behave exactly as if they had streamed the
    cluster live.  Counters and histograms carry no per-observation
    timestamps across a snapshot merge, so only gauge-fed rules can be
    re-evaluated here; rules whose metrics never appear simply stay
    silent.  Returns the engine (inspect ``.alerts`` / ``.summary()``).
    """
    engine = SloEngine(rules if rules is not None else [GpuImbalanceRule()])
    stream: list[tuple] = []
    for (name, _), metric in sorted(registry._metrics.items()):
        if name not in engine._routes or not hasattr(metric, "times"):
            continue
        for t, value in zip(metric.times, metric.values):
            stream.append((t, name, metric, value))
    stream.sort(key=lambda sample: (sample[0], sample[1]))
    for t, _, metric, value in stream:
        for rule in engine._routes[metric.name]:
            rule.observe(metric, value, t)
        engine.evaluate(t)
    if stream:
        engine.evaluate(stream[-1][0])
    return engine
