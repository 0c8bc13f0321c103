"""Network stack: packetization, link timing, response streaming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.network.link import Link
from repro.network.packet import CONTROL_PACKET_BYTES, split_lengths
from repro.network.qp import ClientBuffer, QueuePair
from repro.network.rdma import ResponseStreamer, deliver_request, deliver_write
from repro.sim.engine import Simulator

KB = 1024


# --- packetization ---------------------------------------------------------------

def test_split_lengths_exact():
    assert split_lengths(4096, 1024) == [1024] * 4


def test_split_lengths_remainder():
    assert split_lengths(2500, 1024) == [1024, 1024, 452]


def test_split_lengths_small():
    assert split_lengths(10, 1024) == [10]
    assert split_lengths(0, 1024) == []


def test_split_lengths_validation():
    with pytest.raises(NetworkError):
        split_lengths(-1, 1024)
    with pytest.raises(NetworkError):
        split_lengths(100, 0)


@settings(max_examples=30, deadline=None)
@given(total=st.integers(min_value=0, max_value=100_000),
       psize=st.integers(min_value=1, max_value=9000))
def test_split_lengths_property(total, psize):
    lengths = split_lengths(total, psize)
    assert sum(lengths) == total
    assert all(0 < n <= psize for n in lengths)


# --- link timing --------------------------------------------------------------------

def test_uplink_send_includes_latency_and_wire_time():
    sim = Simulator()
    config = NetworkConfig()
    link = Link(sim, config)

    def proc():
        yield link.send_up(1024)
        return sim.now

    elapsed = sim.run_process(proc())
    wire = (1024 + config.header_overhead) / config.line_rate
    assert elapsed == pytest.approx(wire + config.one_way_latency_ns)


def test_downlink_arbiter_interleaves_two_qps():
    sim = Simulator()
    config = NetworkConfig()
    link = Link(sim, config)
    link.register_flow(1)
    link.register_flow(2)
    done_times = {}

    def sender(flow, n):
        for i in range(n):
            landed = sim.event()
            link.down_arbiter.submit(flow, link.wire_size(1024), 0.0,
                                     landed.succeed)
            yield landed
        done_times[flow] = sim.now

    def main():
        a = sim.process(sender(1, 4))
        b = sim.process(sender(2, 4))
        yield sim.all_of([a, b])

    sim.run_process(main())
    # Fair sharing: both finish within ~1 packet time of each other.
    packet_time = (1024 + config.header_overhead) / config.line_rate
    assert abs(done_times[1] - done_times[2]) <= 2 * packet_time + 1e-6


def test_goodput_below_line_rate():
    config = NetworkConfig()
    assert config.goodput < config.line_rate
    # 1 kB payload with 80 B header: ~92.6% efficiency of 12.5 B/ns
    assert config.goodput == pytest.approx(12.5 * 1024 / 1104)


# --- client buffer -------------------------------------------------------------------

def test_client_buffer_deposit_and_read():
    """A response lands whole and reads back by range; the whole landed
    image is the very object landed (no second copy)."""
    buf = ClientBuffer(1024)
    image = bytes(100) + b"abc"
    buf.land(image)
    assert buf.read(100, 3) == b"abc"
    assert buf.read(0, len(image)) is image
    assert buf.read(101, 4) == b"bc\x00\x00"   # nothing landed there
    assert buf.bytes_received == len(image)


def test_client_buffer_overflow_rejected():
    buf = ClientBuffer(16)
    with pytest.raises(NetworkError, match="overflows client buffer"):
        buf.land(b"0123456789" * 2)
    with pytest.raises(NetworkError, match="overflows client buffer"):
        buf.require_room(17)
    with pytest.raises(NetworkError):
        buf.read(10, 10)
    assert buf.bytes_received == 0


def test_client_buffer_reset():
    buf = ClientBuffer(8)
    buf.land(b"dead")
    buf.reset()
    assert buf.read(0, 4) == b"\x00" * 4
    assert buf.bytes_received == 0


# --- request/write delivery ------------------------------------------------------------

def test_deliver_request_counts_and_takes_time():
    sim = Simulator()
    config = NetworkConfig()
    link = Link(sim, config)
    qp = QueuePair(sim, buffer_capacity=1024, credits=4)

    def proc():
        yield from deliver_request(sim, link, qp)
        return sim.now

    elapsed = sim.run_process(proc())
    wire = (CONTROL_PACKET_BYTES + config.header_overhead) / config.line_rate
    assert elapsed == pytest.approx(wire + config.one_way_latency_ns)
    assert qp.requests_sent == 1


def test_deliver_write_returns_payload():
    sim = Simulator()
    link = Link(sim, NetworkConfig())
    qp = QueuePair(sim, buffer_capacity=1024, credits=4)

    def proc():
        data = yield from deliver_write(sim, link, qp, b"w" * 3000)
        return data

    assert sim.run_process(proc()) == b"w" * 3000


@pytest.mark.parametrize("loss", (0.0, 0.1))
def test_deliver_write_prices_like_one_packet_at_a_time(loss):
    """An upload priced in one call lands where pricing its packets onto
    the uplink one by one would put it — on a busy, degraded, lossy link
    with a per-packet overhead and a short last packet too — and leaves
    the uplink in the same state, to the last bit."""
    config = NetworkConfig(per_packet_overhead_ns=13.7)
    payload = b"w" * (5 * config.packet_size + 333)
    links = []
    for _ in range(2):
        sim = Simulator()
        sim.run(until=1_234.5)
        link = Link(sim, config)
        if loss:
            link.degrade(latency_add_ns=77.0, rate_factor=0.7, loss=loss)
        link.uplink.occupy(40_000)
        links.append(link)
    batched, one_by_one = links
    qp = QueuePair(batched.sim, buffer_capacity=1024, credits=4)
    start = batched.sim.now
    assert batched.sim.run_process(
        deliver_write(batched.sim, batched, qp, payload)) == payload
    for n in split_lengths(len(payload), config.packet_size):
        delay = one_by_one.uplink.occupy(one_by_one.wire_size(n),
                                         config.per_packet_overhead_ns)
    assert batched.sim.now.hex() == (start + delay).hex()
    for pipe in (batched.uplink, one_by_one.uplink):
        assert pipe.transfers == 7
    assert ((batched.uplink._busy_until.hex(),
             batched.uplink.occupied_ns.hex(),
             batched.uplink.bytes_transferred)
            == (one_by_one.uplink._busy_until.hex(),
                one_by_one.uplink.occupied_ns.hex(),
                one_by_one.uplink.bytes_transferred))


# --- response streaming ------------------------------------------------------------------

def _make_stream(credits=8):
    sim = Simulator()
    config = NetworkConfig(initial_credits=credits)
    link = Link(sim, config)
    qp = QueuePair(sim, buffer_capacity=64 * KB, credits=credits)
    link.register_flow(qp.qp_id)
    return sim, config, link, qp


def test_stream_delivers_exact_bytes():
    """The stream carries lengths; the response image lands once the
    last packet has."""
    sim, config, link, qp = _make_stream()
    payload = bytes(range(256)) * 20  # 5120 B

    def server():
        streamer = ResponseStreamer(sim, link, qp)
        yield from streamer.send(3000)
        yield from streamer.send(len(payload) - 3000)
        assert qp.buffer.read(0, len(payload)) == bytes(len(payload))
        total = yield from streamer.finish(payload)
        assert qp.responses_received == streamer.packets_sent == 5
        return total

    total = sim.run_process(server())
    assert total == len(payload)
    assert qp.buffer.read(0, len(payload)) == payload


def test_stream_packet_count():
    sim, config, link, qp = _make_stream()

    def server():
        streamer = ResponseStreamer(sim, link, qp)
        yield from streamer.send(2500)
        yield from streamer.finish(b"z" * 2500)
        return streamer.packets_sent

    assert sim.run_process(server()) == 3  # 1024 + 1024 + 452


def test_stream_respects_credits():
    """With 1 credit, packets serialize on delivery acknowledgement."""
    sim1, config1, link1, qp1 = _make_stream(credits=1)
    sim8, config8, link8, qp8 = _make_stream(credits=8)

    def run(sim, config, link, qp):
        def server():
            streamer = ResponseStreamer(sim, link, qp)
            yield from streamer.send(16 * KB)
            yield from streamer.finish(b"z" * (16 * KB))
            return sim.now
        return sim.run_process(server())

    t1 = run(sim1, config1, link1, qp1)
    t8 = run(sim8, config8, link8, qp8)
    assert t1 > t8  # credit starvation slows the stream


def test_stream_empty_finish():
    sim, config, link, qp = _make_stream()

    def server():
        streamer = ResponseStreamer(sim, link, qp)
        total = yield from streamer.finish(b"")
        return total

    assert sim.run_process(server()) == 0


def test_stream_send_after_finish_rejected():
    sim, config, link, qp = _make_stream()

    def server():
        streamer = ResponseStreamer(sim, link, qp)
        yield from streamer.finish(b"")
        try:
            yield from streamer.send(4)
        except NetworkError:
            return "rejected"

    assert sim.run_process(server()) == "rejected"


def test_two_streams_share_downlink_fairly():
    sim = Simulator()
    config = NetworkConfig()
    link = Link(sim, config)
    qps = [QueuePair(sim, buffer_capacity=256 * KB, credits=8) for _ in range(2)]
    for qp in qps:
        link.register_flow(qp.qp_id)
    finish = {}

    def server(qp, tag):
        streamer = ResponseStreamer(sim, link, qp)
        yield from streamer.send(128 * KB)
        yield from streamer.finish(b"x" * (128 * KB))
        finish[tag] = sim.now

    def main():
        a = sim.process(server(qps[0], "a"))
        b = sim.process(server(qps[1], "b"))
        yield sim.all_of([a, b])

    sim.run_process(main())
    assert abs(finish["a"] - finish["b"]) < 0.1 * max(finish.values())
