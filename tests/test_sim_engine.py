"""Event loop, processes, timeouts, event composition."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(42.0)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(42.0)


def test_timeouts_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(30.0, log.append, "c")
    sim.schedule(10.0, log.append, "a")
    sim.schedule(20.0, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    sim = Simulator()
    log = []
    for tag in ("first", "second", "third"):
        sim.schedule(5.0, log.append, tag)
    sim.run()
    assert log == ["first", "second", "third"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    assert sim.run_process(proc()) == "done"


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run_process(proc()) == "payload"


def test_nested_processes_wait_for_child():
    sim = Simulator()

    def child():
        yield sim.timeout(10.0)
        return 7

    def parent():
        value = yield sim.process(child())
        return value, sim.now

    value, now = sim.run_process(parent())
    assert value == 7
    assert now == pytest.approx(10.0)


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def worker(delay):
        yield sim.timeout(delay)
        return delay

    def parent():
        procs = [sim.process(worker(d)) for d in (5.0, 15.0, 10.0)]
        values = yield sim.all_of(procs)
        return values, sim.now

    values, now = sim.run_process(parent())
    assert values == [5.0, 15.0, 10.0]
    assert now == pytest.approx(15.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(parent()) == []


def test_event_fail_raises_in_waiter():
    sim = Simulator()

    def parent():
        ev = sim.event()
        sim.schedule(1.0, ev.fail, RuntimeError("boom"))
        try:
            yield ev
        except RuntimeError as exc:
            return str(exc)

    assert sim.run_process(parent()) == "boom"


def test_run_until_stops_early():
    sim = Simulator()
    log = []
    sim.schedule(10.0, log.append, "early")
    sim.schedule(100.0, log.append, "late")
    sim.run(until=50.0)
    assert log == ["early"]
    assert sim.now == pytest.approx(50.0)


def test_run_until_the_past_is_refused_and_keeps_the_clock():
    """``run(until=t)`` with ``t`` before ``now`` used to set the clock
    back to ``t``, whether the next entry due was a zero-delay callback
    or a timed one.  It raises, and the clock and the pending work are
    left as they were."""
    for delay in (0.0, 5.0):
        sim = Simulator()
        log = []
        sim.schedule(10.0, log.append, "past")
        sim.run()
        sim.schedule(delay, log.append, "pending")
        with pytest.raises(SimulationError):
            sim.run(until=3.0)
        assert sim.now == 10.0 and log == ["past"]
        sim.run(until=sim.now + delay)
        assert log == ["past", "pending"] and sim.now == 10.0 + delay


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="never completed"):
        sim.run_process(stuck())


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    sim.process(bad())
    with pytest.raises(SimulationError, match="must.*yield Event"):
        sim.run()


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_late_callback_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["v"]


def test_all_of_propagates_child_failure():
    sim = Simulator()

    def parent():
        slow = sim.timeout(5.0)
        failing = sim.event()
        sim.schedule(1.0, failing.fail, RuntimeError("child exploded"))
        try:
            yield sim.all_of([slow, failing])
        except RuntimeError as exc:
            return str(exc), sim.now
        return "no error", sim.now

    msg, now = sim.run_process(parent())
    assert msg == "child exploded"
    # The failure fires as soon as the failing child does, not at the end.
    assert now == pytest.approx(1.0)


def test_all_of_failure_of_failed_event():
    sim = Simulator()

    def parent():
        ev = sim.event()
        sim.schedule(2.0, ev.fail, ValueError("nope"))
        try:
            yield sim.all_of([ev, sim.timeout(10.0)])
        except ValueError as exc:
            return str(exc)

    assert sim.run_process(parent()) == "nope"


def test_zero_delay_preserves_fifo_with_same_time_heap_entries():
    """A timeout callback scheduled earlier at time T runs before a
    zero-delay callback queued later at T (shared-ticket ordering)."""
    sim = Simulator()
    log = []
    sim.schedule(5.0, log.append, "heap-first")

    def trigger():
        yield sim.timeout(5.0)  # scheduled after heap-first, fires at T=5
        sim.schedule(0.0, log.append, "immediate")
        log.append("inline")

    sim.process(trigger())
    sim.run()
    assert log == ["heap-first", "inline", "immediate"]


def test_events_processed_counts_callbacks():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.schedule(0.0, lambda: None)
    sim.run()
    assert sim.events_processed == 4
