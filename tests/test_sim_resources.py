"""Bandwidth pipes, credit pools, and fair arbitration."""

import pytest

from repro.common.errors import FlowControlError
from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import BandwidthPipe, CreditPool, RoundRobinArbiter


# --- BandwidthPipe -----------------------------------------------------------

def test_pipe_single_transfer_completes_at_size_over_rate():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=4.0, latency_ns=10.0)

    def proc():
        yield pipe.transfer(400)
        return sim.now

    # 400 B / 4 B/ns = 100 ns occupancy + 10 ns latency
    assert sim.run_process(proc()) == pytest.approx(110.0)


def test_pipe_serializes_transfers():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=1.0)
    times = {}

    def sender(tag, nbytes):
        yield pipe.transfer(nbytes)
        times[tag] = sim.now

    def main():
        a = sim.process(sender("a", 100))
        b = sim.process(sender("b", 100))
        yield sim.all_of([a, b])

    sim.run_process(main())
    assert times["a"] == pytest.approx(100.0)
    assert times["b"] == pytest.approx(200.0)  # queued behind a


def test_pipe_idle_gap_not_charged():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=1.0)

    def proc():
        yield pipe.transfer(10)
        yield sim.timeout(100.0)
        yield pipe.transfer(10)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(120.0)


def test_pipe_counts_bytes():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=1.0)

    def proc():
        yield pipe.transfer(64)
        yield pipe.transfer(36)

    sim.run_process(proc())
    assert pipe.bytes_transferred == 100
    assert pipe.transfers == 2
    assert pipe.occupied_ns == pytest.approx(100.0)


def test_pipe_utilization_counts_extra_occupancy():
    """Per-packet overhead occupies the pipe: wire time plus header
    processing."""
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=1.0)

    def proc():
        yield pipe.transfer(50, extra_ns=25.0)

    sim.run_process(proc())
    # 50 B of wire time + 25 ns of header processing.
    assert pipe.occupied_ns == pytest.approx(75.0)


def test_pipe_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(SimulationError):
        BandwidthPipe(sim, rate=0.0)
    with pytest.raises(SimulationError):
        BandwidthPipe(sim, rate=1.0, latency_ns=-1.0)
    pipe = BandwidthPipe(sim, rate=1.0)
    with pytest.raises(SimulationError):
        pipe.transfer(-1)


def _pipe_state(pipe):
    return (pipe._busy_until.hex(), pipe.occupied_ns.hex(),
            pipe.bytes_transferred, pipe.transfers)


@pytest.mark.parametrize("busy_ns, extra_ns, sizes", [
    (0.0, 0.0, [1088] * 8),                # idle pipe
    (5_000.0, 0.0, [1088] * 8),            # queued behind earlier work
    (0.0, 13.7, [1088] * 8),               # per-packet overhead
    (0.0, 0.0, [1088] * 7 + [417]),        # short last packet
    (5_000.0, 13.7, [1088] * 7 + [417]),   # all three at once
])
def test_occupy_each_prices_like_one_occupy_per_transfer(busy_ns, extra_ns,
                                                          sizes):
    """Pricing a train of transfers in one call makes the same float
    additions in the same order as one ``occupy`` per transfer: the
    pipe's horizon, occupancy, counters and the returned delay agree
    to the last bit."""
    pipes = []
    for _ in range(2):
        sim = Simulator()
        sim.run(until=1_234.5)
        pipe = BandwidthPipe(sim, rate=12.3, latency_ns=501.0)
        if busy_ns:
            pipe.occupy(busy_ns * pipe.rate)
        pipes.append(pipe)
    each, one_by_one = pipes
    delay = each.occupy_each(sizes, extra_ns)
    for nbytes in sizes:
        last = one_by_one.occupy(nbytes, extra_ns)
    assert delay.hex() == last.hex()
    assert _pipe_state(each) == _pipe_state(one_by_one)


# --- CreditPool ----------------------------------------------------------------

def test_credits_block_when_exhausted():
    sim = Simulator()
    pool = CreditPool(sim, credits=1)
    log = []

    def worker(tag):
        yield pool.acquire()
        log.append((tag, sim.now))
        yield sim.timeout(10.0)
        pool.release()

    def main():
        a = sim.process(worker("a"))
        b = sim.process(worker("b"))
        yield sim.all_of([a, b])

    sim.run_process(main())
    assert log[0] == ("a", 0.0)
    assert log[1][0] == "b"
    assert log[1][1] == pytest.approx(10.0)


def test_over_release_raises():
    sim = Simulator()
    pool = CreditPool(sim, credits=2)
    with pytest.raises(FlowControlError):
        pool.release()


def test_credit_pool_requires_positive_credits():
    with pytest.raises(SimulationError):
        CreditPool(Simulator(), credits=0)


# --- RoundRobinArbiter ---------------------------------------------------------

def _submitted(arb, flow_id, nbytes):
    """``arb.submit`` as an event a test process can yield on."""
    done = arb.sim.event()
    arb.submit(flow_id, nbytes, 0.0, done.succeed)
    return done


def test_arbiter_round_robins_between_flows():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=1.0)
    arb = RoundRobinArbiter(sim, pipe)
    arb.register_flow(1)
    arb.register_flow(2)
    completions = []

    def client(flow_id, count):
        for i in range(count):
            yield _submitted(arb, flow_id, 10)
            completions.append((flow_id, sim.now))

    def main():
        a = sim.process(client(1, 3))
        b = sim.process(client(2, 3))
        yield sim.all_of([a, b])

    sim.run_process(main())
    order = [flow for flow, _ in sorted(completions, key=lambda c: c[1])]
    # Strict alternation: no flow gets two grants in a row while the other waits.
    assert order == [1, 2, 1, 2, 1, 2]


def test_arbiter_single_flow_uses_full_pipe():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=2.0)
    arb = RoundRobinArbiter(sim, pipe)
    arb.register_flow(7)

    def client():
        for _ in range(4):
            yield _submitted(arb, 7, 20)
        return sim.now

    assert sim.run_process(client()) == pytest.approx(40.0)


@pytest.mark.parametrize("closed", [1, 2, 3, 4])
def test_arbiter_unregister_keeps_grant_order_of_live_flows(closed):
    """Dropping an idle flow must not change who is granted next: the
    completion order of the live flows equals the order with the dead
    flow still registered (it never had anything queued)."""

    def completion_order(unregister):
        sim = Simulator()
        arb = RoundRobinArbiter(sim, BandwidthPipe(sim, rate=1.0))
        for flow in (1, 2, 3, 4):
            arb.register_flow(flow)
        live = [f for f in (1, 2, 3, 4) if f != closed]
        done = []

        def client(flow_id, count):
            for _ in range(count):
                yield _submitted(arb, flow_id, 10)
                done.append(flow_id)

        # Advance the round-robin pointer part-way round the ring first.
        sim.run_process(client(live[0], 1))
        if unregister:
            arb.unregister_flow(closed)
            assert closed not in arb._flows and closed not in arb._order
        procs = [sim.process(client(f, 2)) for f in reversed(live)]
        sim.run_process((lambda: (yield sim.all_of(procs)))())
        return done

    assert completion_order(True) == completion_order(False)


def test_arbiter_unregister_drains_queued_items_first():
    sim = Simulator()
    arb = RoundRobinArbiter(sim, BandwidthPipe(sim, rate=1.0))
    arb.register_flow(1)
    arb.register_flow(2)
    pending = [_submitted(arb, 1, 10), _submitted(arb, 1, 10)]
    arb.unregister_flow(1)          # abandoned mid-stream
    sim.run()
    assert all(ev.triggered for ev in pending)
    assert list(arb._flows) == [2] and arb._order == [2]
    with pytest.raises(SimulationError):
        arb.unregister_flow(1)


def test_arbiter_rejects_unknown_flow():
    sim = Simulator()
    arb = RoundRobinArbiter(sim, BandwidthPipe(sim, rate=1.0))
    with pytest.raises(SimulationError):
        arb.submit(99, 10, 0.0, print)


def test_arbiter_rejects_duplicate_flow():
    sim = Simulator()
    arb = RoundRobinArbiter(sim, BandwidthPipe(sim, rate=1.0))
    arb.register_flow(1)
    with pytest.raises(SimulationError):
        arb.register_flow(1)
