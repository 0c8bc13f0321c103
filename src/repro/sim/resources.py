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
from heapq import heappush
from typing import Any, Callable, Deque, Optional, Sequence

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
        ev = Event(self.sim)
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
        ev = Event(self.sim)
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
    ``occupy_each(sizes)`` prices a train of transfers back to back in
    one call, and ``transfer(nbytes)`` is ``occupy`` as an event to
    ``yield``.
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
        return self.occupy_each((nbytes,), extra_ns)

    def occupy_each(self, sizes: Sequence[int], extra_ns: float = 0.0) -> float:
        """Queue one transfer per entry of ``sizes``, in order, each
        charged ``extra_ns``; returns the delay from now until the last
        completes.  The float additions are those of one :meth:`occupy`
        per transfer, in the same order, so the result is bit-identical.
        """
        if extra_ns < 0:
            raise SimulationError(f"negative extra occupancy: {extra_ns}")
        now = self.sim._now
        done = self._busy_until
        if done < now:
            done = now
        rate = self.rate
        occupied = self.occupied_ns
        total = 0
        for nbytes in sizes:
            if nbytes < 0:
                raise SimulationError(f"negative transfer size: {nbytes}")
            service = nbytes / rate + extra_ns
            # A transfer starts where the one before it finished, which
            # is never before now.
            done += service
            occupied += service
            total += nbytes
        self._busy_until = done
        self.occupied_ns = occupied
        self.bytes_transferred += total
        self.transfers += len(sizes)
        return done + self.latency_ns - now

    def transfer(self, nbytes: int, extra_ns: float = 0.0) -> Event:
        """:meth:`occupy` as an event that fires at completion."""
        ev = self.sim.event()
        self.sim.schedule(self.occupy(nbytes, extra_ns), ev.succeed, nbytes)
        return ev


class CreditPool:
    """Credit-based flow control: a waiter runs once a credit is free.

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
        self._waiters: Deque[Callable[[], None]] = deque()

    def acquire_then(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` holding a credit: at the next loop slot if one is
        free, else at the slot of the :meth:`release` that hands it over."""
        if self._available > 0:
            self._available -= 1
            self.sim._immediate(fn)
        else:
            self._waiters.append(fn)

    def acquire(self) -> Event:
        """:meth:`acquire_then` as an event for a process to yield."""
        ev = self.sim.event()
        self.acquire_then(ev._fire)
        return ev

    def take(self, n: int) -> int:
        """Take up to ``n`` free credits at once and return how many:
        what ``n`` :meth:`acquire_then` calls would take while credits are
        free (then nobody waits for one), without a loop slot each."""
        took = min(n, self._available)
        self._available -= took
        return took

    def release(self) -> None:
        """Return a credit: hand it to the oldest waiter, which runs at
        the next loop slot, or put it back in the pool."""
        if self._waiters:
            # ``Simulator._immediate`` inline: this runs once per packet.
            sim = self.sim
            sim._imm.append((next(sim._counter), self._waiters.popleft(), ()))
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
        """Forget a closed flow so ``_pump`` stops scanning it.

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
        """Grant pending items in round-robin flow order until the pipe
        is busy: price each, then push its completion (when the pipe will
        have delivered it) and the next grant (when the pipe is free) onto
        the heap as ``Simulator.schedule`` would, at ``now + delay`` with
        the next ticket.  A completion due now sits on the heap, not the
        deque; the loop runs both in ticket order.
        """
        sim = self.sim
        pipe = self.pipe
        order = self._order
        flows = self._flows
        heap = sim._heap
        counter = sim._counter
        while True:
            n = len(order)
            start = self._next
            for i in range(start, start + n):
                flow_id = order[i % n]
                queue = flows[flow_id]
                if queue:
                    break
            else:
                self._pumping = False
                return
            self._next = (i + 1) % n
            nbytes, extra_ns, fn, args = queue.popleft()
            if not queue and flow_id in self._draining:
                self._draining.discard(flow_id)
                self.unregister_flow(flow_id)
            now = sim._now
            heappush(heap, (now + pipe.occupy_each((nbytes,), extra_ns),
                            next(counter), fn, args))
            wait = pipe._busy_until - now
            if wait > 0:
                heappush(heap, (now + wait, next(counter), self._pump, ()))
                return
