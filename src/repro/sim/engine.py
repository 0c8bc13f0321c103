"""Discrete-event simulation kernel.

A compact, dependency-free engine in the style of SimPy: *processes* are
Python generators that ``yield`` events (timeouts, credits, other
processes) and are resumed by the event loop when those events fire.  Time is
a float in **nanoseconds** (see :mod:`repro.common.units`).

The kernel is deliberately small — just enough to model pipelined hardware:
packet streams, bandwidth-limited channels, credit-based backpressure — while
staying fast enough to push megabytes of simulated traffic per experiment.

Example::

    sim = Simulator()

    def ticker(sim, pipe):
        for i in range(3):
            yield sim.timeout(pipe.occupy(64))  # a priced transfer, waited out

    # (see repro.sim.resources for BandwidthPipe)
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..common.errors import FarviewError


class SimulationError(FarviewError):
    """The event loop detected an inconsistency (e.g. deadlock)."""


class Event:
    """A one-shot occurrence with an optional value.

    Callbacks registered via :meth:`add_callback` run when the event is
    triggered.  Events may be triggered immediately (:meth:`succeed`) or
    scheduled through :meth:`Simulator.schedule_event`.
    """

    __slots__ = ("sim", "_value", "_ok", "triggered", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._ok = True
        self.triggered = False
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Late subscribers run at the current time, preserving ordering.
            self.sim._immediate(fn, self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self.triggered = True
        if self._callbacks:
            self.sim._immediate_all(self._callbacks, self)
            self._callbacks.clear()
        return self

    def _fire(self, value: Any = None) -> None:
        """Trigger the event as a loop callback of its own: its waiters
        run now, in this slot, rather than each in a slot after it."""
        self._value = value
        self.triggered = True
        for fn in self._callbacks:
            fn(self)
        self._callbacks.clear()

    def _hand_off(self, value: Any = None) -> None:
        """:meth:`succeed`, its waiters run as hand-off hops
        (:meth:`Simulator._hand_off`): the caller triggers it last."""
        self._value = value
        self.triggered = True
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            if len(callbacks) == 1:
                self.sim._hand_off(callbacks[0], (self,))
            else:
                self.sim._hand_off(callbacks[0], (self,),
                                   *[(fn, (self,)) for fn in callbacks[1:]])

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event now with an exception to raise in the waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = exc
        self._ok = False
        self.triggered = True
        if self._callbacks:
            self.sim._immediate_all(self._callbacks, self)
            self._callbacks.clear()
        return self


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self._fire, value)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; also an event that fires when the process returns.

    The process generator yields :class:`Event` instances; the returned value
    of the generator becomes the value of this event.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        sim.schedule(0.0, self._resume, None, True)

    def _resume(self, event_value: Any = None, ok: bool = True) -> None:
        try:
            if ok:
                target = self._gen.send(event_value)
            else:
                target = self._gen.throw(event_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Exception as exc:
            # The process died: fail its completion event so waiters
            # (AllOf compositions, processes yielding on it) receive the
            # exception at their resume point instead of it escaping the
            # event loop and tearing down unrelated processes.
            # run_process re-raises it for top-level callers.
            self._value = exc
            self._ok = False
            self.triggered = True
            if self._callbacks:
                self.sim._immediate_all(self._callbacks, self)
                self._callbacks.clear()
            return
        if type(target) is not Event and not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances")
        if target.triggered:
            self.sim._immediate(self._on_event, target)
        else:
            target._callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        self._resume(event._value, event._ok)

    def _finish(self, value: Any) -> None:
        self._value = value
        self.triggered = True
        if self._callbacks:
            self.sim._immediate_all(self._callbacks, self)
            self._callbacks.clear()


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    A failed child fails the whole composition: the first child exception
    propagates to the waiter as soon as it fires (remaining children still
    run, but their completions are ignored).
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            sim._immediate(self.succeed, [])
        else:
            for ev in self._events:
                ev.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev.value for ev in self._events])


class Simulator:
    """The event loop: a time-ordered heap plus an immediate-callback deque.

    Zero-delay work (event callbacks, process hand-offs) dominates the
    schedule in pipelined models, so it bypasses the heap entirely: it is
    appended to a FIFO deque and drained at the current timestamp.  Every
    callback — heap or deque — carries a ticket from one shared counter and
    the loop always executes the lowest ticket among entries due *now*, so
    the execution order is identical to a pure-heap engine.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._imm: deque[tuple[int, Callable, tuple]] = deque()
        self._counter = itertools.count()
        self._running = False
        #: Total callbacks executed across all runs (perf harness metric).
        self.events_processed = 0
        #: ``settle(until) -> time reached`` of each resource whose state
        #: advances between loop callbacks (a downlink train): a run that
        #: stops settles it, so what it reads is what the clock says.
        self._settlers: list[Callable[[float], float]] = []
        #: The ticket of the callback running now (infinite outside one).
        self._seq: float = math.inf
        #: While a train runs, a ticket drawn each time the clock moves
        #: on, before any callback at the new time: a train hop's place
        #: among the loop's tickets is read off these (see
        #: ``RoundRobinArbiter._ticket``).
        self._mark_times: list[float] = []
        self._mark_tickets: list[int] = []

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns."""
        if delay == 0.0:
            self._imm.append((next(self._counter), fn, args))
            return
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(self._heap, (self._now + delay, next(self._counter), fn, args))

    def _immediate(self, fn: Callable, *args: Any) -> None:
        """Queue ``fn(*args)`` at the current time (fast path, no heap)."""
        self._imm.append((next(self._counter), fn, args))

    def _immediate_all(self, fns: list[Callable], event: "Event") -> None:
        """Queue ``fn(event)`` for every callback, preserving FIFO order."""
        imm = self._imm
        counter = self._counter
        for fn in fns:
            imm.append((next(counter), fn, (event,)))

    def _hand_off(self, fn: Callable, args: tuple, *later: tuple) -> None:
        """Queue ``fn(*args)``, then each ``(fn, args)`` of ``later``, at
        the current time, in order, as :meth:`_immediate` would, their
        tickets drawn first; but run each here, with ``_seq`` set to its
        ticket, while it is what the loop would run next anyway: no deque
        entry and no heap entry due now holds a lower ticket.  So a hop
        runs where and as it would from the loop, without a loop callback
        of its own.  The caller hands off last: nothing it does may come
        after the hops.
        """
        counter, imm, heap, now = self._counter, self._imm, self._heap, self._now
        ticket = next(counter)
        if imm or (heap and heap[0][0] <= now):
            imm.append((ticket, fn, args))
            for hop in later:
                imm.append((next(counter), *hop))
            return
        # The later hops wait at the front of the deque, so a hand-off
        # made inside a hop queues behind them.
        for hop in later:
            imm.append((next(counter), *hop))
        self._seq = ticket
        fn(*args)
        for _ in later:
            ticket = imm[0][0]
            if heap and heap[0][0] <= now and heap[0][1] < ticket:
                return
            _ticket, fn, args = imm.popleft()
            self._seq = ticket
            fn(*args)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a process; returns its completion event."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- running --------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event heap (optionally stopping at time ``until``).

        Returns the simulation time when the loop stopped.  ``until``
        before the current time is refused: the clock never runs back.
        ``max_events`` guards against runaway loops in buggy models.
        A train still running when the loop stops is settled to
        ``until``; one that outlasts every callback runs to its end, as
        its packets' own callbacks would have.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is None:
            until = math.inf
        elif until < self._now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self._now}")
        self._running = True
        imm = self._imm
        heap = self._heap
        heappop = heapq.heappop
        settlers = self._settlers
        counter = self._counter
        mark_times, mark_tickets = self._mark_times, self._mark_tickets
        steps = 0
        now = self._now
        try:
            while imm or heap:
                # Deque entries are due at the current time, which never
                # passes ``until``; a heap entry due now with a lower
                # ticket was scheduled earlier and runs first.
                if imm:
                    if heap and heap[0][0] <= now and heap[0][1] < imm[0][0]:
                        _t, _seq, fn, args = heappop(heap)
                    else:
                        _seq, fn, args = imm.popleft()
                else:
                    time, _seq, fn, args = heap[0]
                    if time > until:
                        self._now = until
                        break
                    heappop(heap)
                    if settlers and time > now:
                        mark_times.append(time)
                        mark_tickets.append(next(counter))
                    self._now = now = time
                self._seq = _seq
                fn(*args)
                steps += 1
                if steps > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a runaway model")
        finally:
            self.events_processed += steps
            self._running = False
            self._seq = math.inf
        for settle in tuple(settlers):
            reached = settle(until)
            if reached > self._now:
                self._now = reached
        if self._now < until < math.inf:
            self._now = until
        if settlers and (not mark_times or mark_times[-1] < self._now):
            mark_times.append(self._now)
            mark_tickets.append(next(counter))
        return self._now

    def run_process(self, gen: ProcessGenerator, name: str = "") -> Any:
        """Convenience: register ``gen``, drain the loop, return its value.

        Raises if the process did not complete (deadlock in the model).
        """
        proc = self.process(gen, name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} never completed (deadlock?)")
        if not proc.ok:
            raise proc.value
        return proc.value
