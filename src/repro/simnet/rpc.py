"""Request/response RPC over :class:`~repro.simnet.net.Connection`.

This is the transport the guest library uses to remote CUDA API calls to
an API server.  It supports:

* synchronous calls (``yield from client.call(...)``) — one round trip,
* one-way batches (:meth:`RpcClient.send_batch`) — several enqueue-only
  calls in a single message with no reply, amortizing the per-message
  latency (the "batching" optimization of §V-C),
* pipelined calls (:meth:`RpcClient.call_async`) — multiple requests in
  flight on one connection, each returning a :class:`PendingReply` that
  is harvested later.  The connection is FIFO in both directions and the
  server dispatches sequentially, so replies arrive in request order.

Handlers on the server side are generator functions so they can consume
simulated time (e.g. launch a kernel and wait for it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.errors import ReproError
from repro.sim.core import Environment, Interrupt
from repro.simnet.net import Endpoint
from repro.simnet.serialization import payload_size

__all__ = [
    "RpcRequest",
    "RpcReply",
    "RpcClient",
    "RpcServer",
    "RpcError",
    "RpcTimeout",
    "PendingReply",
]


class RpcError(ReproError):
    """A remote handler failed; carries the remote exception message."""


class RpcTimeout(RpcError):
    """No reply arrived within the caller's deadline (lost message or dead
    server); the caller may retry idempotent calls."""


@dataclass
class RpcRequest:
    """One remoted call (or a batch of them when ``batch`` is set)."""

    msg_id: int
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: bulk payload bytes accompanying the call (e.g. memcpy H2D buffer)
    extra_bytes: int = 0
    #: if True, the client does not wait for (and the server does not send) a reply
    oneway: bool = False
    #: sub-requests when this is a batch message
    batch: Optional[list["RpcRequest"]] = None
    #: encoded size in bytes, excluding framing and ``extra_bytes``; fixed
    #: when the request is built (a batch sums its sub-requests' sizes)
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 16 + payload_size(self.method) + payload_size(self.args)
        if self.kwargs:
            size += payload_size(self.kwargs)
        if self.batch:
            size += sum(r.wire_size for r in self.batch)
        self.wire_size = size


@dataclass
class RpcReply:
    msg_id: int
    value: Any = None
    error: Optional[str] = None
    #: bulk payload bytes riding back (e.g. memcpy D2H buffer)
    extra_bytes: int = 0
    #: encoded size in bytes, excluding framing and ``extra_bytes``
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 16 + payload_size(self.value)
        if self.error:
            size += payload_size(self.error)
        self.wire_size = size


class PendingReply:
    """Handle for a pipelined request whose reply will arrive later.

    Created by :meth:`RpcClient.call_async`.  The request is already on
    the wire; the handle owns the matching receive.  Harvest it with
    :meth:`wait` (blocking, optionally bounded), or — once :attr:`arrived`
    is true — non-blocking :meth:`result`.  :meth:`abandon` withdraws the
    receive without consuming a reply (lost-reply cleanup).  Each handle
    is harvested at most once; the client's in-flight depth drops when it
    is.
    """

    __slots__ = ("client", "msg_id", "method", "_recv", "_done", "span")

    def __init__(self, client: "RpcClient", msg_id: int, method: str, recv):
        self.client = client
        self.msg_id = msg_id
        self.method = method
        self._recv = recv
        self._done = False
        #: optional open tracing span (repro.obs) closed when the reply is
        #: harvested, times out, or the handle is abandoned
        self.span = None

    @property
    def arrived(self) -> bool:
        """True once the reply has been matched out of the inbox."""
        return self._recv.triggered or self._recv.processed

    def _finish(self) -> None:
        if not self._done:
            self._done = True
            self.client._in_flight_done()

    def _unwrap(self, reply: RpcReply) -> Any:
        if reply.error is not None:
            raise RpcError(f"remote {self.method} failed: {reply.error}")
        return reply.value

    def result(self) -> Any:
        """Return the reply value (or raise :class:`RpcError`) without
        blocking; only valid once :attr:`arrived` is true."""
        if not self.arrived:
            raise RpcError(f"reply to {self.method} (msg {self.msg_id}) not arrived")
        self._finish()
        return self._unwrap(self._recv.value)

    def wait(self, timeout_s: Optional[float] = None) -> Generator:
        """Block until the reply arrives (``yield from`` this).

        With ``timeout_s`` the wait is bounded: :class:`RpcTimeout` is
        raised if no reply arrives in time (the pending receive is
        withdrawn so a late reply stays deliverable to a retry).
        """
        if timeout_s is None:
            reply = yield self._recv
        else:
            deadline = self.client.env.timeout(timeout_s)
            yield self.client.env.any_of([self._recv, deadline])
            if not self._recv.processed and not self._recv.triggered:
                self.abandon()
                raise RpcTimeout(
                    f"no reply to {self.method} (msg {self.msg_id}) within {timeout_s}s"
                )
            deadline.cancel()
            reply = self._recv.value
        self._finish()
        return self._unwrap(reply)

    def abandon(self) -> None:
        """Withdraw the pending receive without consuming a reply."""
        if not self.arrived:
            self.client.endpoint.inbox.cancel_get(self._recv)
        self._finish()


class RpcClient:
    """Client side: issues requests over an endpoint, matches replies by id."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self._ids = itertools.count(1)
        #: counters used by the evaluation to report "forwarded API" counts
        self.calls_sent = 0
        self.messages_sent = 0
        #: pipelining depth accounting (requests sent but not yet harvested)
        self.in_flight = 0
        self.max_in_flight = 0
        self.replies_harvested = 0
        #: optional (trace_id, parent_span_id) propagated on every request
        #: so the server can parent its execution spans under the caller's
        #: invocation (set by the guest when tracing is on)
        self.trace_ctx = None

    @property
    def env(self) -> Environment:
        return self.endpoint.env

    def _in_flight_done(self) -> None:
        self.in_flight -= 1
        self.replies_harvested += 1

    def call_async(
        self,
        method: str,
        *args: Any,
        extra_bytes: int = 0,
        reply_extra_bytes: int = 0,
        **kwargs: Any,
    ) -> PendingReply:
        """Send a request without waiting; returns a :class:`PendingReply`.

        Multiple requests may be in flight on the connection at once.  The
        link is FIFO per direction and the server dispatches sequentially,
        so replies complete in request order.
        """
        msg_id = next(self._ids)
        request = RpcRequest(
            msg_id=msg_id,
            method=method,
            args=args,
            kwargs=kwargs,
            extra_bytes=extra_bytes,
        )
        request._reply_extra = reply_extra_bytes  # hint carried to the server
        if self.trace_ctx is not None:
            request._trace = self.trace_ctx  # non-wire tracing context
        self.calls_sent += 1
        self.messages_sent += 1
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        self.endpoint.send(request, extra_bytes=extra_bytes, size=request.wire_size)
        match = lambda m: isinstance(m, RpcReply) and m.msg_id == msg_id
        return PendingReply(self, msg_id, method, self.endpoint.recv(match))

    def call(
        self,
        method: str,
        *args: Any,
        extra_bytes: int = 0,
        reply_extra_bytes: int = 0,
        timeout_s: Optional[float] = None,
        **kwargs: Any,
    ) -> Generator:
        """Remote a call and wait for its reply (``yield from`` this).

        ``extra_bytes``/``reply_extra_bytes`` account for bulk buffers in
        the request/response directions respectively.  With ``timeout_s``
        the wait is bounded: :class:`RpcTimeout` is raised if no reply
        arrives in time (the pending receive is withdrawn so a late reply
        stays deliverable to a retry).
        """
        pending = self.call_async(
            method,
            *args,
            extra_bytes=extra_bytes,
            reply_extra_bytes=reply_extra_bytes,
            **kwargs,
        )
        return (yield from pending.wait(timeout_s=timeout_s))

    def send_batch(self, calls: list[tuple]) -> None:
        """Send several calls in one one-way message (no reply).

        ``calls`` is a non-empty list of ``(method, args, extra_bytes)``
        tuples — the guest's enqueue-only API stream.  Ordering against
        later calls is guaranteed by the FIFO connection and the server's
        sequential dispatch.
        """
        subs = [
            RpcRequest(msg_id=0, method=m, args=tuple(a), extra_bytes=x)
            for (m, a, x) in calls
        ]
        batch = RpcRequest(
            msg_id=next(self._ids),
            method="__batch__",
            batch=subs,
            oneway=True,
            extra_bytes=sum(s.extra_bytes for s in subs),
        )
        if self.trace_ctx is not None:
            batch._trace = self.trace_ctx
        self.calls_sent += len(subs)
        self.messages_sent += 1
        self.endpoint.send(batch, extra_bytes=batch.extra_bytes, size=batch.wire_size)


class RpcServer:
    """Server side: dispatch loop invoking a generator handler per request.

    ``handler(request)`` must be a generator function returning the reply
    value; it may yield simulation events to consume time.  Exceptions it
    raises are marshalled back as :class:`RpcError` on the client.
    """

    def __init__(self, endpoint: Endpoint, handler: Callable[[RpcRequest], Generator],
                 batch_handler: Optional[Callable[[list], Generator]] = None):
        self.endpoint = endpoint
        self.handler = handler
        #: optional fast path executing a whole batch in one invocation
        self.batch_handler = batch_handler
        self.requests_handled = 0
        self._stopped = False
        self._killed = False
        self._proc = None

    @property
    def env(self) -> Environment:
        return self.endpoint.env

    def start(self):
        """Begin serving; returns the dispatch loop process."""
        self._proc = self.env.process(self._loop(), name="rpc-server")
        return self._proc

    def stop(self) -> None:
        """Stop after the in-flight request (if any) completes."""
        self._stopped = True

    def kill(self) -> None:
        """Hard-stop the server *now*, abandoning any in-flight request.

        Models a process crash: the current handler (if any) is interrupted
        mid-execution and no reply is sent for it.  Safe to call from within
        the handler itself (the crash then unwinds via the handler's own
        exception instead of an interrupt).
        """
        self._killed = True
        self._stopped = True
        proc = self._proc
        if proc is not None and proc.is_alive and self.env.active_process is not proc:
            proc.interrupt("rpc server killed")

    def _loop(self) -> Generator:
        try:
            while not self._stopped:
                request = yield self.endpoint.recv(lambda m: isinstance(m, RpcRequest))
                yield from self._dispatch(request)
        except Interrupt:
            return

    def _dispatch(self, request: RpcRequest) -> Generator:
        self.requests_handled += 1
        reply_extra = getattr(request, "_reply_extra", 0)
        try:
            if request.batch is not None:
                trace = getattr(request, "_trace", None)
                if trace is not None and request.batch:
                    # the batch handler only sees the sub-requests; carry
                    # the envelope's tracing context on the first of them
                    request.batch[0]._trace = trace
                if self.batch_handler is not None:
                    value = yield from self.batch_handler(request.batch)
                else:
                    values = []
                    for sub in request.batch:
                        values.append((yield from self.handler(sub)))
                    value = values
            else:
                value = yield from self.handler(request)
        except Interrupt:
            raise  # killed mid-handler; the loop absorbs it
        except Exception as exc:  # marshal remote failures, don't kill the loop
            if self._killed:
                return  # a crashed server sends nothing
            if not request.oneway:
                self._reply(RpcReply(request.msg_id, error=str(exc), extra_bytes=reply_extra))
            return
        if self._killed:
            return
        if not request.oneway:
            self._reply(RpcReply(request.msg_id, value=value, extra_bytes=reply_extra))

    def _reply(self, reply: RpcReply) -> None:
        self.endpoint.send(reply, extra_bytes=reply.extra_bytes, size=reply.wire_size)
