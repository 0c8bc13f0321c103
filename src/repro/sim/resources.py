"""Shared simulation resources: queues, bandwidth pipes, credits, arbiters.

These model the hardware structures the paper leans on:

* :class:`BandwidthPipe` — a serializing, rate-limited channel (a DRAM
  channel or a network link): transfers queue behind one another and each
  occupies the pipe for ``size / rate``.
* :class:`CreditPool` — credit-based flow control (§4.3).
* :class:`RoundRobinArbiter` — fair-share packet arbitration between
  concurrent flows (§4.3, Figure 2 "Packet Based Arbitration"), and the
  credit loop of the response streams on them: a stream alone on the
  pipe is timed as one train.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from functools import partial
from heapq import heapify, heappush
from typing import Any, Callable, Deque, Optional, Sequence

from .engine import Event, SimulationError, Simulator


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
        #: Credits returned so far: a response packet that lands returns one.
        self.returned = 0

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
        self.returned += 1
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


class _Stream:
    """One response on a flow (see :meth:`RoundRobinArbiter.open_stream`).

    ``backlog`` holds the payload lengths of the packets cut and waiting
    for a credit, oldest first; ``outstanding`` counts the packets cut and
    not yet landed, the backlog included.  ``credited`` / ``drained`` is
    the event the producer is parked on, if it is; ``wake`` is the ticket
    of the train callback that ends that wait, and ``wake_from`` when the
    hop it stands for was scheduled.  ``on_credit`` is the pool waiter
    that hands the stream a credit.
    """

    __slots__ = ("flow_id", "credits", "size_of", "extra_ns", "backlog",
                 "outstanding", "credited", "drained", "wake", "wake_from",
                 "on_credit")

    def __init__(self, flow_id: int, credits: CreditPool,
                 size_of: Callable[[int], int], extra_ns: float):
        self.flow_id = flow_id
        self.credits = credits
        self.size_of = size_of
        self.extra_ns = extra_ns
        self.backlog: Deque[int] = deque()
        self.outstanding = 0
        self.credited: Optional[Event] = None
        self.drained: Optional[Event] = None
        self.wake: Optional[float] = None
        self.wake_from = 0.0


class RoundRobinArbiter:
    """Fair-share arbitration: interleaves work items from competing flows,
    and runs the credit loop of the response streams on them.

    Each flow registers a FIFO of pending grants; ``_pump`` services one
    item per grant cycle in round-robin order, guaranteeing that no client
    can starve another (§4.3 "prevents any malevolent behaviour by any of
    the users that could lead to a complete system stall").

    A granted item costs two loop callbacks, the two timed hops it has on
    a downstream :class:`BandwidthPipe`: its completion callback, scheduled
    when the pipe will have delivered it, and the next grant, scheduled
    when the pipe is free again.

    A response stream (:meth:`open_stream`) sends packets under its flow's
    credit window (§4.3): :meth:`send` submits a packet per free credit
    and keeps the rest in the stream's backlog.  A packet that lands
    (:meth:`_land`) returns its credit; the pool hands it, one immediate
    hop later, to the oldest stream waiting on it, whose next packet is
    then submitted (:meth:`_credit`).

    **Trains.**  A stream that starts with its pool full and the pump
    idle runs as a train while nothing else is submitted: its grants,
    landings and credit hand-offs take no loop callbacks.
    :meth:`_advance` replays them in one loop, with the per-packet hops'
    float operations in the same order, and the loop runs a callback
    (:meth:`_wake`) only for what the producer waits on: its credit wait
    ending, the stream draining.  Its state is settled to the instant
    anything else looks: the producer's next chunk, a run that stops, or
    a cut — another submit, a flow registered or dropped, or :meth:`cut`
    (the pipe's rate or latency is about to change).  A cut settles the
    train and hands its packets to the per-packet loop: the landings
    still due and the pending grant go on the heap, and the queued
    packets into the flow's FIFO.  Hops due at the cut's instant, and
    every hop the cut hands over, keep the place among the loop's tickets
    that the per-packet loop gives them (:meth:`_ticket`), so every
    callback outside the flow runs in the same order.
    """

    def __init__(self, sim: Simulator, pipe: BandwidthPipe, name: str = ""):
        self.sim = sim
        self.pipe = pipe
        self.name = name
        self._flows: dict[int, Deque[tuple[int, float, Callable, tuple]]] = {}
        self._order: list[int] = []
        self._next = 0
        self._pumping = False
        #: Unregistered flows whose last queued items are still to grant,
        #: or with a stream still open; per flow, its streams not drained.
        self._draining: set[int] = set()
        self._open: dict[int, int] = {}
        #: The stream running as a train, and its state: the wire sizes
        #: submitted and not granted; the landing times of those granted
        #: and not landed, and when each was granted; the pump's next
        #: grant and when it was scheduled (infinite for a hand-off's
        #: restart, which waits behind the immediate deque); the instant
        #: its hops have run to; whether it granted any; and the state its
        #: wait was planned from, to go back to while it is ahead of the
        #: loop (planned past now and not yet caught up by its callback).
        self._train: Optional[_Stream] = None
        self._queue: Deque[int] = deque()
        self._landings: Deque[float] = deque()
        self._granted_at: Deque[float] = deque()
        self._grant_at = -math.inf
        self._grant_from = -math.inf
        self._settled = -math.inf
        self._granted = False
        self._saved: tuple = ()
        self._ahead = False
        #: Sets this arbiter's hop tickets apart from another's drawn at
        #: the same instants (two links can run in lockstep).
        self._tie = (next(sim._counter) % 4096) * 2.0 ** -14

    def register_flow(self, flow_id: int) -> None:
        if flow_id in self._flows:
            raise SimulationError(f"flow {flow_id} already registered")
        self.cut()
        self._flows[flow_id] = deque()
        self._order.append(flow_id)

    def unregister_flow(self, flow_id: int) -> None:
        """Forget a closed flow so ``_pump`` stops scanning it.

        ``_next`` keeps pointing at the same live flow, so the grant
        order among the remaining flows is unchanged.  A flow that still
        has queued items or an open stream (its connection was abandoned
        mid-stream) drains: it is dropped once they have been granted and
        the stream has drained, whatever its credit window left in the
        stream's backlog or its producer still cuts.
        """
        if flow_id not in self._flows:
            raise SimulationError(f"unknown flow {flow_id}")
        self.cut()
        if self._flows[flow_id] or self._open.get(flow_id):
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
        if self._train is not None:
            self.cut()
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
            if (not queue and flow_id in self._draining
                    and not self._open.get(flow_id)):
                self._draining.discard(flow_id)
                self.unregister_flow(flow_id)
            now = sim._now
            heappush(heap, (now + pipe.occupy_each((nbytes,), extra_ns),
                            next(counter), fn, args))
            wait = pipe._busy_until - now
            if wait > 0:
                heappush(heap, (now + wait, next(counter), self._pump, ()))
                return

    # -- response streams -----------------------------------------------------
    def open_stream(self, flow_id: int, credits: CreditPool,
                    size_of: Callable[[int], int],
                    extra_ns: float) -> _Stream:
        """A response stream on ``flow_id`` under the credit window
        ``credits``: a packet of ``payload`` bytes occupies the pipe for
        ``size_of(payload)`` bytes, sized when it is submitted, plus
        ``extra_ns``."""
        if flow_id not in self._flows:
            raise SimulationError(f"unknown flow {flow_id}")
        stream = _Stream(flow_id, credits, size_of, extra_ns)
        stream.on_credit = partial(self._credit, stream)
        self._open[flow_id] = self._open.get(flow_id, 0) + 1
        return stream

    def send(self, stream: _Stream, count: int, payload: int) -> None:
        """Cut ``count`` packets of ``payload`` bytes: submit one per free
        credit and queue the rest behind those already waiting for one,
        as taking each packet's credit in turn would."""
        if not count:
            return
        now, before = self.sim._now, self.sim._seq
        if stream is self._train:
            self._settle(now, before)
        else:
            if self._train is not None:
                self.cut()
            pool = stream.credits
            if not self._pumping and pool._available == pool._capacity:
                self._start_train(stream)
        stream.outstanding += count
        backlog = stream.backlog
        free = 0 if backlog else stream.credits.take(count)
        if free:
            size = stream.size_of(payload)
            if stream is self._train:
                if not self._queue and (self._grant_at < now or (
                        self._grant_at == now
                        and self._ticket(self._grant_from, 0.5) < before)):
                    # The submit restarts a pump that found the queue
                    # empty, as a callback drawn now.
                    self._grant_at = self._grant_from = now
                    self._mark(now)
                self._queue.extend([size] * free)
            else:
                for _ in range(free):
                    self.submit(stream.flow_id, size, stream.extra_ns,
                                self._land, stream)
        if free < count:
            if not backlog and stream is not self._train:
                stream.credits.acquire_then(stream.on_credit)
            backlog.extend([payload] * (count - free))

    def credited(self, stream: _Stream) -> Optional[Event]:
        """An event that fires once the last packet cut holds a credit, or
        None if it already does."""
        if not stream.backlog:
            return None
        stream.credited = Event(self.sim)
        if stream is self._train:
            self._plan()
        return stream.credited

    def drained(self, stream: _Stream) -> Optional[Event]:
        """An event that fires once every packet cut has landed, or None
        if they all have."""
        if stream is self._train:
            self._settle(self.sim._now, self.sim._seq)
            if not stream.outstanding:
                self._end_train()
        if not stream.outstanding:
            self._close(stream)
            return None
        stream.drained = Event(self.sim)
        if stream is self._train:
            self._plan()
        return stream.drained

    def _land(self, stream: _Stream) -> None:
        """A packet landed: its credit goes back to the pool."""
        stream.credits.release()
        stream.outstanding -= 1
        if not stream.outstanding and stream.drained is not None:
            drained, stream.drained = stream.drained, None
            self._close(stream)
            drained.succeed()

    def _close(self, stream: _Stream) -> None:
        """A finished stream has drained: a draining flow with nothing
        left is dropped now."""
        flow_id = stream.flow_id
        left = self._open.pop(flow_id) - 1
        if left:
            self._open[flow_id] = left
        elif flow_id in self._draining and not self._flows[flow_id]:
            self._draining.discard(flow_id)
            self.unregister_flow(flow_id)

    def _credit(self, stream: _Stream) -> None:
        """A landed packet returned the credit the backlog's oldest packet
        waits for: submit it, then wait for the next one's the same way,
        or end the producer's wait."""
        backlog = stream.backlog
        self.submit(stream.flow_id, stream.size_of(backlog.popleft()),
                    stream.extra_ns, self._land, stream)
        if backlog:
            stream.credits.acquire_then(stream.on_credit)
        elif stream.credited is not None:
            credited, stream.credited = stream.credited, None
            credited.succeed()

    # -- trains ---------------------------------------------------------------
    def _start_train(self, stream: _Stream) -> None:
        sim = self.sim
        if not sim._settlers:
            sim._mark_times.clear()
            sim._mark_tickets.clear()
        self._train = stream
        self._grant_at = self._grant_from = self._settled = -math.inf
        self._granted = self._ahead = False
        sim._settlers.append(self._settle)

    def _end_train(self) -> None:
        """Detach the train; the round-robin pointer is where its last
        grant left it."""
        if self._granted:
            order = self._order
            self._next = (order.index(self._train.flow_id) + 1) % len(order)
        self._train = None
        self.sim._settlers.remove(self._settle)

    def _mark(self, now: float) -> None:
        """Draw a ticket at this instant, for the hops scheduled now."""
        sim = self.sim
        sim._mark_times.append(now)
        sim._mark_tickets.append(next(sim._counter))

    def _ticket(self, drawn: float, offset: float) -> float:
        """The ticket the per-packet loop gives a hop the train scheduled
        at ``drawn``: above every ticket drawn before that instant, below
        every one drawn after it (one drawn at it counts as after the
        last mark there).  ``offset`` orders hops scheduled together: a
        landing (0.25) before the grant after it (0.5)."""
        sim = self.sim
        times = sim._mark_times
        offset += self._tie
        i = bisect_right(times, drawn)
        if i and times[i - 1] == drawn:
            return sim._mark_tickets[i - 1] + offset
        if i < len(times):
            return sim._mark_tickets[i] - 1 + offset
        return next(sim._counter) - 1 + offset

    def cut(self) -> None:
        """Settle the train, if there is one, at now and hand its packets
        to the per-packet loop.

        Hops due at this instant have run if the per-packet loop runs
        them before the callback that cuts; the rest, and every landing
        still to come and the pending grant, go on the heap at the
        tickets that loop would have given them.
        """
        stream = self._train
        if stream is None:
            return
        sim = self.sim
        now, before = sim._now, sim._seq
        self._settle(now, before)
        heap = sim._heap
        if stream.wake is not None and (
                stream.backlog if stream.credited is not None
                else stream.outstanding):
            # The per-packet hops end the producer's wait now, so its
            # callback goes (a wait that ended at this instant keeps it).
            for index, entry in enumerate(heap):
                if entry[1] == stream.wake:
                    heap[index] = heap[-1]
                    heap.pop()
                    heapify(heap)
                    break
            stream.wake = None
        for landing, drawn in zip(self._landings, self._granted_at):
            heappush(heap, (landing, self._ticket(drawn, 0.25), self._land,
                            (stream,)))
        queue = self._flows[stream.flow_id]
        for nbytes in self._queue:
            queue.append((nbytes, stream.extra_ns, self._land, (stream,)))
        ticket = self._ticket(self._grant_from, 0.5)
        if self._grant_at > now or (self._grant_at == now and (
                self._queue or ticket > before)):
            self._pumping = True
            heappush(heap, (self._grant_at, ticket, self._pump, ()))
        self._landings.clear()
        self._granted_at.clear()
        self._queue.clear()
        if stream.backlog:
            stream.credits.acquire_then(stream.on_credit)
        self._end_train()

    def _plan(self) -> None:
        """Run the train to the hop its producer now waits for and
        schedule :meth:`_wake` there, keeping the state it started from."""
        stream = self._train
        pipe, pool = self.pipe, stream.credits
        self._saved = (self._settled, self._grant_at, self._grant_from,
                       self._granted, tuple(self._queue),
                       tuple(self._landings), tuple(self._granted_at),
                       tuple(stream.backlog), stream.outstanding,
                       pool._available, pool.returned, pipe._busy_until,
                       pipe.occupied_ns, pipe.bytes_transferred,
                       pipe.transfers)
        sim = self.sim
        self._ahead = True
        stream.wake_from = self._advance(math.inf, stop=True)
        if stream.drained is not None and stream.wake_from <= sim._now:
            # A drain is its last landing, granted already.
            stream.wake = self._ticket(stream.wake_from, 0.25)
        else:
            stream.wake = next(sim._counter)
        heappush(sim._heap, (self._landings[0], stream.wake, self._wake,
                             (stream, stream.wake, False)))

    def _settle(self, until: float, before: float = math.inf) -> float:
        """Bring the train to ``until``: every hop due by then has run and
        none after it (a train ahead of the loop goes back to where it was
        planned from first); of those due at ``until``, only the ones the
        per-packet loop runs before the callback holding ticket
        ``before``.  Returns how far it got: ``until``, or the train's
        last hop when ``until`` is infinite."""
        if self._ahead:
            self._ahead = False
            stream = self._train
            pipe, pool = self.pipe, stream.credits
            (self._settled, self._grant_at, self._grant_from, self._granted,
             queue, landings, granted_at, backlog, stream.outstanding,
             pool._available, pool.returned, pipe._busy_until,
             pipe.occupied_ns, pipe.bytes_transferred,
             pipe.transfers) = self._saved
            self._queue = deque(queue)
            self._landings = deque(landings)
            self._granted_at = deque(granted_at)
            stream.backlog.clear()
            stream.backlog.extend(backlog)
        self._advance(until, before)
        return until if until < math.inf else max(self._settled,
                                                  self._grant_at)

    def _wake(self, stream: _Stream, ticket: float, deferred: bool) -> None:
        """The train's one loop callback: the landing that ends the
        producer's wait is due now.  It runs where the per-packet loop
        runs that landing among the callbacks due now, and the end of a
        credit wait (the hand-off it makes) one immediate hop later when
        other callbacks are still due now."""
        if stream.wake != ticket:
            return
        sim = self.sim
        heap, now = sim._heap, sim._now
        if heap and heap[0][0] == now and not deferred:
            if stream.credited is not None:
                stream.wake = ticket = next(sim._counter)
                sim._imm.append((ticket, self._wake, (stream, ticket, True)))
                return
            ticket = self._ticket(stream.wake_from, 0.25)
            if heap[0][1] < ticket:
                stream.wake = ticket
                heappush(heap, (now, ticket, self._wake,
                                (stream, ticket, True)))
                return
        stream.wake = None
        if stream is self._train:
            # This is the hand-off's moment: a pump it restarts runs
            # after whatever is already waiting in the immediate deque.
            self._ahead = False
            self._advance(now, next(sim._counter))
        if stream.credited is not None:
            event, stream.credited = stream.credited, None
        else:
            event, stream.drained = stream.drained, None
            if stream is self._train:
                self._end_train()
            self._close(stream)
        event._hand_off()

    def _advance(self, until: float, before: float = math.inf,
                 stop: bool = False) -> float:
        """Run the train's hops due by ``until`` in the per-packet loop's
        order — at one instant a landing (and its credit hand-off) before
        a grant — or, with ``stop``, up to the landing that ends the
        producer's wait, which stays first in ``_landings``; returns when
        that landing's packet was granted.

        A grant is ``BandwidthPipe.occupy_each``'s arithmetic for one
        transfer at ``now``: it lands at ``now + (done + latency - now)``
        and the next grant is at ``now + (busy_until - now)``.  A landing
        hands its credit to the backlog's oldest packet, submitted then;
        a grant that found the queue empty restarts at that submit.
        """
        stream = self._train
        pipe, pool = self.pipe, stream.credits
        backlog, queue = stream.backlog, self._queue
        landings, granted_at = self._landings, self._granted_at
        size_of, extra = stream.size_of, stream.extra_ns
        rate, latency = pipe.rate, pipe.latency_ns
        busy, occupied = pipe._busy_until, pipe.occupied_ns
        grant, grant_from = self._grant_at, self._grant_from
        settled = self._settled
        outstanding, available = stream.outstanding, pool._available
        # With ``stop``: how many landings come before the one the
        # producer waits for (each hands a credit to the backlog until the
        # last packet holds one; or every packet lands).
        last = ((len(backlog) if stream.credited is not None
                 else outstanding) - 1) if stop else -1
        landed = granted = total = 0
        payload = wire = -1
        drawn = -math.inf
        while True:
            if landings and (not queue or landings[0] <= grant):
                now = landings[0]
                if now >= until and (now > until or (
                        before < math.inf
                        and self._ticket(granted_at[0], 0.25) > before)):
                    break
                if landed == last:
                    drawn = granted_at[0]
                    break
                landings.popleft()
                drawn = granted_at.popleft()
                settled = now
                landed += 1
                outstanding -= 1
                if backlog:
                    if backlog[0] != payload:
                        payload = backlog[0]
                        wire = size_of(payload)
                    backlog.popleft()
                    if not queue and grant <= now:
                        # The hand-off, an immediate hop, restarts a pump
                        # that found the queue empty (a grant due now
                        # ran first): after every callback due now that
                        # was scheduled before now.
                        grant, grant_from = now, math.inf
                    queue.append(wire)
                else:
                    available += 1
            elif queue:
                now = grant
                if now >= until and (now > until or (
                        before < math.inf
                        and self._ticket(grant_from, 0.5) > before)):
                    break
                settled = now
                nbytes = queue.popleft()
                done = now if busy < now else busy
                service = nbytes / rate + extra
                done += service
                occupied += service
                total += nbytes
                granted += 1
                busy = done
                landings.append(now + (done + latency - now))
                granted_at.append(now)
                wait = busy - now
                grant = now + wait if wait > 0 else now
                grant_from = now
            else:
                break
        if settled < until < math.inf:
            settled = until
        pipe._busy_until, pipe.occupied_ns = busy, occupied
        pipe.bytes_transferred += total
        pipe.transfers += granted
        stream.outstanding, pool._available = outstanding, available
        pool.returned += landed
        self._grant_at, self._grant_from = grant, grant_from
        self._settled = settled
        if granted:
            self._granted = True
        return drawn
