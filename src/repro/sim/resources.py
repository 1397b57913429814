"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — capacity-limited resource with FIFO queueing
  (e.g. an API server that handles one function at a time).
* :class:`PriorityResource` — like Resource but the wait queue is ordered
  by a caller-supplied priority.
* :class:`Container` — a continuous quantity (e.g. bytes of GPU memory).
* :class:`Store` — a FIFO of Python objects (e.g. a message queue).

All acquire/release operations are events, so processes compose them with
timeouts and conditions.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, Event

__all__ = ["Resource", "PriorityResource", "Container", "Store"]


class Request(Event):
    """Event representing a pending acquire on a :class:`Resource`.

    Usable as a context manager so the common pattern reads::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource", "priority", "_seq", "_withdrawn")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._withdrawn = False
        resource._seq += 1
        self._seq = resource._seq
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        if not self.triggered and not self._withdrawn:
            self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.triggered and self._ok:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """A resource with integer capacity and a FIFO wait queue.

    Cancellation uses the same tombstone scheme as the event wheel: a
    withdrawn request stays in the wait-queue heap (marked
    ``_withdrawn``) and is skipped when it surfaces, instead of being
    removed eagerly — the old rebuild-and-heapify was O(n) per cancel and
    quadratic under timeout-heavy load.  Grant order is unaffected:
    tombstones are invisible to admission, and live entries keep their
    ``(priority, seq)`` heap order.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list = []  # heap of (priority, seq, request)
        self._seq = 0
        self._withdrawn_count = 0  # tombstones currently in self.queue

    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of *live* (not withdrawn) waiters."""
        return len(self.queue) - self._withdrawn_count

    def request(self) -> Request:
        return Request(self)

    def _do_request(self, req: Request) -> None:
        if len(self.users) < self.capacity and len(self.queue) == self._withdrawn_count:
            self.users.append(req)
            req.succeed()
        else:
            heapq.heappush(self.queue, (req.priority, req._seq, req))

    def _cancel(self, req: Request) -> None:
        # Lazy deletion: mark and count; the entry is dropped when it
        # reaches the top of the heap in release(), or by the sweep below.
        req._withdrawn = True
        self._withdrawn_count += 1
        # Bound memory when cancellations dominate: if the queue is mostly
        # tombstones (and big enough to matter), compact it in one pass —
        # amortized O(1) per cancel instead of O(n) every time.
        if self._withdrawn_count > 64 and self._withdrawn_count * 2 > len(self.queue):
            self.queue = [e for e in self.queue if not e[2]._withdrawn]
            heapq.heapify(self.queue)
            self._withdrawn_count = 0

    def release(self, req: Request) -> None:
        """Release a previously granted request and admit the next waiter."""
        try:
            self.users.remove(req)
        except ValueError:
            raise SimulationError("releasing a request that does not hold the resource")
        while self.queue and len(self.users) < self.capacity:
            _, _, nxt = heapq.heappop(self.queue)
            if nxt._withdrawn:
                self._withdrawn_count -= 1
                continue
            self.users.append(nxt)
            nxt.succeed()


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-priority-value-first."""

    def request(self, priority: int = 0) -> Request:  # type: ignore[override]
        return Request(self, priority=priority)


class Container:
    """A continuous quantity with blocking get/put.

    Used for byte-granularity accounting (GPU memory pools, link credits).
    ``get`` blocks until the requested amount is available; ``put`` blocks
    only if a ``capacity`` would be exceeded.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: list[tuple[float, Event]] = []
        self._putters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        return self._level

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.env)
        self._getters.append((amount, event))
        self._trigger()
        return event

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.env)
        self._putters.append((amount, event))
        self._trigger()
        return event

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                amount, event = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    self._putters.pop(0)
                    event.succeed()
                    progress = True
            if self._getters:
                amount, event = self._getters[0]
                if amount <= self._level:
                    self._level -= amount
                    self._getters.pop(0)
                    event.succeed(amount)
                    progress = True


class Store:
    """FIFO store of arbitrary items with blocking get.

    ``put`` never blocks (unbounded unless ``capacity`` given); ``get``
    blocks until an item is available.  An optional ``filter`` on get
    supports selective receive (used by RPC reply matching).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: list[tuple[Optional[Callable[[Any], bool]], Event]] = []
        self._putters: list[tuple[Any, Event]] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        self._putters.append((item, event))
        self._trigger()
        return event

    def put_nowait(self, item: Any) -> None:
        """Add ``item`` with no put event, for a caller that never waits on
        the put (a message delivery): the first waiting getter it matches
        is woken exactly as :meth:`put` would wake it.  Raises
        :class:`SimulationError` if the store is full."""
        if len(self.items) >= self.capacity:
            raise SimulationError("put_nowait on a full store")
        self.items.append(item)
        self._trigger()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        event = Event(self.env)
        self._getters.append((filter, event))
        self._trigger()
        return event

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending :meth:`get` (e.g. the caller timed out).

        Without this, an abandoned filtered getter would still consume the
        next matching item — an RPC reply arriving after the client gave up
        would vanish into a dead event instead of staying deliverable.
        """
        self._getters = [(f, e) for (f, e) in self._getters if e is not event]

    def _trigger(self) -> None:
        items = self.items
        putters = self._putters
        # Admit pending puts while there is capacity.
        while putters and len(items) < self.capacity:
            item, event = putters.pop(0)
            items.append(item)
            event.succeed()
        # Fast path: nothing to match.  put() with no waiting getter and
        # get() on an empty store both land here — the two most common
        # cases on the RPC message path.
        if not self._getters or not items:
            return
        # Satisfy getters (each scans for its first matching item).
        made_progress = True
        while made_progress:
            made_progress = False
            for gi, (flt, event) in enumerate(self._getters):
                for ii, item in enumerate(items):
                    if flt is None or flt(item):
                        items.pop(ii)
                        self._getters.pop(gi)
                        event.succeed(item)
                        made_progress = True
                        break
                if made_progress:
                    break
            # New space may admit queued putters.
            while putters and len(items) < self.capacity:
                item, event = putters.pop(0)
                items.append(item)
                event.succeed()
                made_progress = True
