"""Shared simulation resources: queues, bandwidth pipes, credits, arbiters.

These model the hardware structures the paper leans on:

* :class:`Store` — a bounded FIFO with blocking put/get, the AXI-stream
  queue used between stacks (§4.1 "data is buffered in queues as it
  traverses from one stack to the other").
* :class:`BandwidthPipe` — a serializing, rate-limited channel (a DRAM
  channel or a network link): transfers queue behind one another and each
  occupies the pipe for ``size / rate``.
* :class:`CreditPool` — credit-based flow control (§4.3).
* :class:`RoundRobinArbiter` — fair-share packet arbitration between
  concurrent flows (§4.3, Figure 2 "Packet Based Arbitration").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .engine import Event, SimulationError, Simulator


class Store:
    """A FIFO queue with optional capacity and blocking put/get events."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"store capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` is accepted (backpressure-aware)."""
        ev = self.sim.event()
        if self._getters:
            # Hand the item straight to a waiting consumer.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif not self.is_full:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Event that fires with the next item (FIFO order)."""
        ev = self.sim.event()
        if self._items:
            item = self._items.popleft()
            ev.succeed(item)
            self._admit_waiting_putter()
        else:
            self._getters.append(ev)
        return ev

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed()


class BandwidthPipe:
    """A serializing channel with fixed rate and optional per-use latency.

    ``occupy(nbytes)`` prices a transfer — it queues behind everything
    priced before it, holds the pipe for ``nbytes / rate`` and completes
    ``latency`` later (which overlaps with other transfers' service — it
    models pipelined access latency, not occupancy) — and returns how long
    from now that is, for the caller to schedule whatever happens then.
    ``transfer(nbytes)`` is the same as an event to ``yield``.
    """

    def __init__(self, sim: Simulator, rate: float, latency_ns: float = 0.0,
                 name: str = ""):
        if rate <= 0:
            raise SimulationError(f"pipe rate must be positive: {rate}")
        if latency_ns < 0:
            raise SimulationError(f"negative latency: {latency_ns}")
        self.sim = sim
        self.rate = rate
        self.latency_ns = latency_ns
        self.name = name
        self._busy_until = 0.0
        self.bytes_transferred = 0
        self.transfers = 0
        #: Total occupancy (service time incl. per-transfer overhead), ns.
        self.occupied_ns = 0.0

    def occupy(self, nbytes: int, extra_ns: float = 0.0) -> float:
        """Queue ``nbytes`` through the pipe; returns the delay from now
        until the transfer completes.

        ``extra_ns`` adds fixed occupancy to this transfer (e.g. per-packet
        header processing) — it delays everything queued behind it, unlike
        ``latency_ns`` which only delays this transfer's completion.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        if extra_ns < 0:
            raise SimulationError(f"negative extra occupancy: {extra_ns}")
        now = self.sim.now
        start = max(now, self._busy_until)
        service = nbytes / self.rate + extra_ns
        done = start + service
        self._busy_until = done
        self.bytes_transferred += nbytes
        self.transfers += 1
        self.occupied_ns += service
        return done + self.latency_ns - now

    def transfer(self, nbytes: int, extra_ns: float = 0.0) -> Event:
        """:meth:`occupy` as an event that fires at completion."""
        ev = self.sim.event()
        self.sim.schedule(self.occupy(nbytes, extra_ns), ev.succeed, nbytes)
        return ev

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` the pipe was occupied.

        Counts true occupancy — wire time plus per-transfer ``extra_ns``
        overhead — so per-packet header processing no longer under-reports
        link utilization.
        """
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.occupied_ns / elapsed_ns)


class CreditPool:
    """Credit-based flow control: acquire blocks until a credit is free.

    Models the network stack's per-flow credits (§4.3): a sender may have at
    most ``credits`` packets in flight; receiving a response returns one.
    """

    def __init__(self, sim: Simulator, credits: int, name: str = ""):
        if credits <= 0:
            raise SimulationError(f"credit pool needs >= 1 credit: {credits}")
        self.sim = sim
        self.name = name
        self._capacity = credits
        self._available = credits
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        ev = self.sim.event()
        if self._available > 0:
            self._available -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a credit if one is free (then nobody is waiting for it)."""
        if self._available > 0:
            self._available -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._available += 1
            if self._available > self._capacity:
                from ..common.errors import FlowControlError

                raise FlowControlError(
                    f"credit pool {self.name!r} over-released "
                    f"({self._available} > {self._capacity})")


class RoundRobinArbiter:
    """Fair-share arbitration: interleaves work items from competing flows.

    Each flow registers a FIFO of pending grants; ``_pump`` services one
    item per grant cycle in round-robin order, guaranteeing that no client
    can starve another (§4.3 "prevents any malevolent behaviour by any of
    the users that could lead to a complete system stall").

    A granted item costs two loop callbacks, the two timed hops it has on
    a downstream :class:`BandwidthPipe`: its completion callback, scheduled
    when the pipe will have delivered it, and the next grant, scheduled
    when the pipe is free again.
    """

    def __init__(self, sim: Simulator, pipe: BandwidthPipe, name: str = ""):
        self.sim = sim
        self.pipe = pipe
        self.name = name
        self._flows: dict[int, Deque[tuple[int, float, Callable, tuple]]] = {}
        self._order: list[int] = []
        self._next = 0
        self._pumping = False
        #: Unregistered flows whose last queued items are still to grant.
        self._draining: set[int] = set()

    def register_flow(self, flow_id: int) -> None:
        if flow_id in self._flows:
            raise SimulationError(f"flow {flow_id} already registered")
        self._flows[flow_id] = deque()
        self._order.append(flow_id)

    def unregister_flow(self, flow_id: int) -> None:
        """Forget a closed flow so ``_grant_next`` stops scanning it.

        ``_next`` keeps pointing at the same live flow, so the grant
        order among the remaining flows is unchanged.  A flow that still
        has queued items (its connection was abandoned mid-stream) is
        dropped once they have been granted.
        """
        if flow_id not in self._flows:
            raise SimulationError(f"unknown flow {flow_id}")
        if self._flows[flow_id]:
            self._draining.add(flow_id)
            return
        index = self._order.index(flow_id)
        del self._order[index], self._flows[flow_id]
        if index < self._next:
            self._next -= 1
        self._next %= max(len(self._order), 1)

    def submit(self, flow_id: int, nbytes: int, extra_ns: float,
               fn: Callable, *args: Any) -> None:
        """Queue ``nbytes`` for ``flow_id``; ``fn(*args)`` runs when they
        have been transferred.

        ``extra_ns`` is forwarded to the pipe as fixed per-item occupancy.
        """
        if flow_id not in self._flows:
            raise SimulationError(f"unknown flow {flow_id}")
        self._flows[flow_id].append((nbytes, extra_ns, fn, args))
        if not self._pumping:
            self._pumping = True
            self.sim.schedule(0.0, self._pump)

    def _pump(self) -> None:
        while True:
            granted = self._grant_next()
            if granted is None:
                self._pumping = False
                return
            nbytes, extra_ns, fn, args = granted
            self.sim.schedule(self.pipe.occupy(nbytes, extra_ns), fn, *args)
            # Grant again once the pipe is free (occupancy); delivery
            # latency (propagation) overlaps with the next grant.
            wait = self.pipe.busy_until - self.sim.now
            if wait > 0:
                self.sim.schedule(wait, self._pump)
                return

    def _grant_next(self) -> Optional[tuple[int, float, Callable, tuple]]:
        """Pick the next pending item in round-robin flow order."""
        n = len(self._order)
        for i in range(n):
            flow_id = self._order[(self._next + i) % n]
            queue = self._flows[flow_id]
            if queue:
                self._next = (self._next + i + 1) % n
                item = queue.popleft()
                if not queue and flow_id in self._draining:
                    self._draining.discard(flow_id)
                    self.unregister_flow(flow_id)
                return item
        return None
