"""Cross-shard event envelopes: the wire protocol of sharded simulation.

A sharded run (:mod:`repro.sim.shard`) partitions a deployment into
*groups* (an API-server group + its GPU pool + monitor slice) and packs
groups onto shards, each shard owning one :class:`repro.sim.core.Environment`
in its own worker process.  Anything that crosses a group boundary —
manager RPCs, object-store GETs homed on group 0, migration hand-offs,
monitor heartbeats — travels as an :class:`Envelope` over a
:class:`GroupPort`, never as a direct Python call:

* **Envelopes are data, not objects.**  The codec round-trips every
  envelope through a plain-tuple wire form (pickle/JSON-safe primitives
  only), in *both* the multiprocessing and the inline execution modes, so
  the two modes cannot diverge on payload identity.
* **Delivery is conservatively late.**  ``GroupPort.send`` stamps
  ``deliver_time >= send_time + min_link_delay_s`` — the shard runtime's
  provable lookahead bound.  Messages are exchanged only at epoch
  barriers; because no envelope can be due earlier than one lookahead
  after its send, a barrier every ``lookahead`` of simulated time is
  provably sufficient (classic CMB-style conservative synchronization).
* **Group-to-group traffic always takes the port**, even when source and
  destination happen to be packed onto the same shard.  Loopback skipping
  the barrier would make merged outcomes depend on the shard count, which
  is exactly what the shard-count-invariance bar forbids.

Within a destination environment, envelope deliveries are injected in the
canonical ``(deliver_time, src, seq)`` order, so same-timestamp deliveries
tie-break identically no matter how groups were packed onto shards.

**Trace-context propagation** (wire v2): an envelope optionally carries a
``(trace_id, parent_span_id)`` pair so an invocation whose control flow
crosses shards stitches into a *single* trace tree in the merged trace
(:mod:`repro.obs.trace`).  A port with a tracer attached records an
``envelope:send`` span covering the flight (send → deliver) on the
source group's track and an ``envelope:recv`` instant on the
destination group's track, both joined to the propagated trace.  The
canonical injection order ignores the added field entirely.  Envelopes
never outlive one sharded run, whose workers run the same code, so only
the current wire version decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.sim.core import Environment, Event
from repro.sim.resources import Store

__all__ = [
    "Envelope",
    "GroupPort",
    "encode_envelope",
    "decode_envelope",
    "normalize_payload",
]

#: wire-format version, first element of every encoded envelope; bumped on
#: any incompatible layout change so a stale worker fails loudly.  v2
#: added the trace-context slot.
WIRE_VERSION = 2

#: wire versions :func:`decode_envelope` accepts, mapped to tuple length
_DECODABLE_VERSIONS = {2: 9}


def normalize_payload(payload: Any) -> Any:
    """Canonicalize ``payload`` to JSON-shaped primitives.

    Tuples become lists, dict keys must be strings, and anything outside
    ``None | bool | int | float | str | list | tuple | dict`` is rejected.
    Normalizing at *send* time (not at process-boundary crossing) keeps
    the inline and multiprocessing modes bit-identical: a handler always
    receives the same shapes regardless of execution mode.
    """
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, (list, tuple)):
        return [normalize_payload(item) for item in payload]
    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"envelope payload dict keys must be str, got {key!r}"
                )
            out[key] = normalize_payload(value)
        return out
    raise ConfigurationError(
        f"envelope payload must be JSON-shaped primitives, got {type(payload).__name__}"
    )


@dataclass(frozen=True)
class Envelope:
    """One cross-group message, timestamped for conservative delivery."""

    src: int            #: source group id
    dst: int            #: destination group id
    channel: str        #: logical channel name (e.g. "manager", "objstore")
    send_time: float    #: sim time the source sent it
    deliver_time: float #: sim time it becomes visible at the destination
    seq: int            #: per-source monotonic sequence number
    payload: Any        #: normalized JSON-shaped payload
    #: optional ``(trace_id, parent_span_id)`` — stitches the receiver's
    #: spans into the sender's trace tree across the shard boundary
    trace_ctx: Optional[tuple] = None

    def sort_key(self) -> tuple:
        """Canonical injection order: same for every shard layout (and
        deliberately blind to the trace context — observability must not
        influence delivery order)."""
        return (self.deliver_time, self.src, self.seq)


def encode_envelope(env: Envelope) -> tuple:
    """Envelope -> plain tuple (the wire form shipped between processes)."""
    return (WIRE_VERSION, env.src, env.dst, env.channel,
            env.send_time, env.deliver_time, env.seq, env.payload,
            env.trace_ctx)


def decode_envelope(wire: tuple) -> Envelope:
    """Plain tuple -> Envelope (wire v2).

    Any other version fails with an explicit version message — a
    coordinator and worker that disagree on the codec must not misparse —
    and a malformed tuple fails with the generic wire-form error.
    """
    if not isinstance(wire, tuple) or not wire or not isinstance(wire[0], int):
        raise ConfigurationError(f"bad envelope wire form: {wire!r}")
    version = wire[0]
    expected_len = _DECODABLE_VERSIONS.get(version)
    if expected_len is None:
        raise ConfigurationError(
            f"unknown envelope wire version {version} (decodable: "
            f"{sorted(_DECODABLE_VERSIONS)}); coordinator and workers "
            f"disagree on the codec"
        )
    if len(wire) != expected_len:
        raise ConfigurationError(f"bad envelope wire form: {wire!r}")
    _, src, dst, channel, send_time, deliver_time, seq, payload, trace_ctx = wire
    if trace_ctx is not None:
        trace_ctx = tuple(trace_ctx)
    return Envelope(src=src, dst=dst, channel=channel, send_time=send_time,
                    deliver_time=deliver_time, seq=seq, payload=payload,
                    trace_ctx=trace_ctx)


class GroupPort:
    """A group's window onto the rest of the sharded deployment.

    Sending appends to the shard's outbox (drained at the next epoch
    barrier); receiving reads from per-channel FIFO
    :class:`~repro.sim.resources.Store` inboxes that the shard runtime
    fills as envelopes are injected.
    """

    def __init__(self, env: Environment, group_id: int, lookahead_s: float,
                 tracer=None):
        self.env = env
        self.group_id = group_id
        #: the minimum cross-group link delay — the conservative lookahead
        self.lookahead_s = lookahead_s
        #: optional :class:`repro.obs.trace.Tracer` — when set, every send
        #: records an ``envelope:send`` flight span and every delivery an
        #: ``envelope:recv`` instant (pure bookkeeping: the timeline is
        #: identical with or without it)
        self.tracer = tracer
        self._seq = 0
        self._outbox: list[tuple] = []
        self._channels: dict[str, Store] = {}
        #: counters (merged into shard stats by the runtime)
        self.sent = 0
        self.received = 0

    # -- sending -------------------------------------------------------------
    def send(self, dst: int, channel: str, payload: Any,
             delay_s: Optional[float] = None,
             trace_ctx: Optional[tuple] = None) -> Envelope:
        """Queue a message to group ``dst``; delivered ``delay_s`` later.

        ``delay_s`` defaults to the lookahead (the minimum link delay) and
        may not be smaller — a faster link would invalidate the epoch
        barrier's conservativeness proof.  ``trace_ctx`` is an optional
        ``(trace_id, parent_span_id)`` pair carried on the wire so the
        receiver's spans can join the sender's trace tree.
        """
        delay = self.lookahead_s if delay_s is None else delay_s
        if delay < self.lookahead_s:
            raise ConfigurationError(
                f"cross-shard delay {delay} is below the lookahead bound "
                f"{self.lookahead_s}; conservative sync would be unsound"
            )
        if delay != delay or delay == float("inf"):
            raise ConfigurationError(f"cross-shard delay must be finite, got {delay}")
        if trace_ctx is not None:
            trace_ctx = (int(trace_ctx[0]), int(trace_ctx[1]))
        self._seq += 1
        now = self.env.now
        envelope = Envelope(
            src=self.group_id, dst=int(dst), channel=str(channel),
            send_time=now, deliver_time=now + delay, seq=self._seq,
            payload=normalize_payload(payload),
            trace_ctx=trace_ctx,
        )
        self._outbox.append(encode_envelope(envelope))
        self.sent += 1
        if self.tracer is not None:
            self.tracer.complete(
                "envelope:send", now, envelope.deliver_time, cat="net",
                pid=f"group{self.group_id}", tid=f"ch:{envelope.channel}",
                trace_id=trace_ctx[0] if trace_ctx else None,
                parent_id=trace_ctx[1] if trace_ctx else None,
                dst=envelope.dst, channel=envelope.channel, seq=envelope.seq,
            )
        return envelope

    def drain_outbox(self) -> list[tuple]:
        """Take (and clear) the encoded envelopes queued since last drain."""
        out, self._outbox = self._outbox, []
        return out

    # -- receiving -----------------------------------------------------------
    def channel(self, name: str) -> Store:
        """The FIFO inbox for ``name`` (created on first use)."""
        store = self._channels.get(name)
        if store is None:
            store = self._channels[name] = Store(self.env)
        return store

    def recv(self, name: str) -> Event:
        """Event firing with the next :class:`Envelope` on channel ``name``."""
        return self.channel(name).get()

    def deliver(self, envelope: Envelope) -> None:
        """Schedule ``envelope`` into this port's environment.

        Called by the shard runtime at an epoch barrier.  The delivery is
        a plain Timeout at ``deliver_time`` whose callback appends to the
        channel store, so a waiting ``recv`` resumes at exactly the
        envelope's timestamp.
        """
        delay = envelope.deliver_time - self.env.now
        if delay < 0:
            raise ConfigurationError(
                f"envelope past due: deliver_time={envelope.deliver_time} "
                f"< now={self.env.now} (epoch barrier missed it)"
            )
        store = self.channel(envelope.channel)
        timeout = self.env.timeout(delay)

        def _arrive(_ev, store=store, envelope=envelope):
            self.received += 1
            if self.tracer is not None:
                ctx = envelope.trace_ctx
                self.tracer.instant(
                    "envelope:recv", cat="net",
                    pid=f"group{self.group_id}", tid=f"ch:{envelope.channel}",
                    trace_id=ctx[0] if ctx else None,
                    parent_id=ctx[1] if ctx else None,
                    src=envelope.src, channel=envelope.channel,
                    seq=envelope.seq,
                )
            store.put(envelope)

        timeout.callbacks.append(_arrive)
