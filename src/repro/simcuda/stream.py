"""CUDA streams and events.

Operations enqueued on one stream execute in FIFO order; different streams
proceed concurrently.  Each enqueue returns immediately (async semantics);
:meth:`Stream.synchronize` waits for everything enqueued so far.

Streams and events are *context-dependent handles* — after a migration the
original handle values are invalid in the destination context, which is
why DGSF keeps per-context twin objects and a translation map (§V-D).
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, Optional

from repro.sim.core import Environment, Event
from repro.simcuda.errors import CudaError, cudaError

__all__ = ["Stream", "CudaEvent"]

_handle_counter = itertools.count(0x1000)


class Stream:
    """An in-order execution queue bound to a context."""

    def __init__(self, env: Environment, context: object, flags: int = 0):
        self.env = env
        self.context = context
        self.flags = flags
        self.handle = next(_handle_counter)
        #: completion event of the most recently enqueued operation
        self._tail: Event = _completed_event(env)
        self._pending = 0
        self.destroyed = False

    def enqueue(self, start: Callable[[], Event], name: str = "op") -> Event:
        """Enqueue an operation.

        ``start`` is called when all previously enqueued work has finished
        and must return the operation's completion event.  Returns an event
        that fires when *this* operation completes.
        """
        if self.destroyed:
            raise RuntimeError("enqueue on destroyed stream")
        prev = self._tail
        self._pending += 1

        def runner() -> Generator:
            yield prev
            if self.destroyed:
                # The context died (crash teardown) between enqueue and
                # execution; the op's memory may already be freed.  Real
                # CUDA never runs work queued on a destroyed stream either.
                self._pending -= 1
                return
            done = start()
            yield done
            self._pending -= 1

        proc = self.env.process(runner(), name=f"stream-{self.handle}-{name}")
        self._tail = proc
        return proc

    def synchronize(self) -> Event:
        """Event firing when all currently enqueued work has completed."""
        return self._tail

    @property
    def idle(self) -> bool:
        return self._pending == 0

    def destroy(self) -> None:
        self.destroyed = True

    def __repr__(self) -> str:
        return f"<Stream {self.handle:#x} pending={self._pending}>"


class CudaEvent:
    """cudaEvent_t: captures a point in a stream's execution order."""

    def __init__(self, env: Environment):
        self.env = env
        self.handle = next(_handle_counter)
        self._completion: Optional[Event] = None
        self._record_time: Optional[float] = None

    def record(self, stream: Stream) -> None:
        """Capture the stream's current tail; complete when it completes."""
        tail = stream.synchronize()
        self._completion = tail
        if tail.processed:
            self._record_time = self.env.now
        else:
            def _stamp(_ev):
                self._record_time = self.env.now
            tail.callbacks.append(_stamp)

    def synchronize(self) -> Event:
        """Event firing when the recorded point has been reached."""
        if self._completion is None:
            return _completed_event(self.env)  # never recorded: CUDA says ready
        return self._completion

    @property
    def recorded_at(self) -> Optional[float]:
        """Simulated time at which the recorded work completed (if done)."""
        return self._record_time

    def elapsed_ms(self, earlier: "CudaEvent") -> float:
        """``cudaEventElapsedTime``: milliseconds from ``earlier`` to this."""
        if self._record_time is None or earlier._record_time is None:
            raise CudaError(cudaError.cudaErrorInvalidResourceHandle,
                            "both events must have completed")
        return (self._record_time - earlier._record_time) * 1000.0


def _completed_event(env: Environment) -> Event:
    """An event that is already in the processed state."""
    ev = Event(env)
    ev._ok = True
    ev._value = None
    ev.callbacks = None  # processed
    return ev
