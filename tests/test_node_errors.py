"""Node failure paths and out-of-order delivery robustness."""

import pytest

from repro.common.config import FarviewConfig, MemoryConfig, NetworkConfig
from repro.common.errors import (CatalogError, ConnectionError_, NetworkError,
                                 OperatorError, ProtectionFault,
                                 TranslationFault)
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import select_star
from repro.core.table import FTable
from repro.network.link import Link
from repro.network.qp import QueuePair
from repro.network.rdma import ResponseStreamer
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import selection_workload

KB = 1024
MB = 1024 * KB

CONFIG = FarviewConfig(
    memory=MemoryConfig(channels=2, channel_capacity=4 * MB,
                        page_size=64 * KB))


@pytest.fixture
def client():
    sim = Simulator()
    node = FarviewNode(sim, CONFIG)
    c = FarviewClient(node)
    c.open_connection()
    return c


def test_write_beyond_table_size_rejected(client):
    wl = selection_workload(16, 1.0)
    table = FTable("S", wl.schema, 16)
    client.alloc_table_mem(table)
    with pytest.raises(OperatorError, match="exceeds"):
        client.table_write(table, b"x" * (table.size_bytes + 1))


def test_read_outside_table_rejected(client):
    wl = selection_workload(16, 1.0)
    table = FTable("S", wl.schema, 16)
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    with pytest.raises(OperatorError, match="outside"):
        client.table_read(table, offset=table.size_bytes - 8, length=64)


def test_read_with_negative_length_rejected(client):
    """A raw READ of a negative length is refused, not answered with an
    empty image."""
    wl = selection_workload(16, 1.0)
    table = FTable("S", wl.schema, 16)
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    with pytest.raises(OperatorError, match="outside"):
        client.table_read(table, 10, -5)
    assert client.connection.qp.requests_sent == 0  # refused before it


def _tenants(*buffers):
    """One node, one client per receive-buffer capacity, each holding
    its own 64 KB selection table."""
    node = FarviewNode(Simulator(), CONFIG)
    tenants = []
    for i, capacity in enumerate(buffers):
        client = FarviewClient(node, buffer_capacity=capacity)
        client.open_connection()
        wl = selection_workload(KB, 1.0, seed=i)
        table = FTable(f"S{i}", wl.schema, len(wl.rows))
        client.alloc_table_mem(table)
        client.table_write(table, wl.rows)
        tenants.append((client, table, wl))
    return node.sim, tenants


def test_overflowing_read_fails_in_its_own_process():
    """A raw READ longer than its client's buffer is refused at the
    request, inside its own process: a concurrent healthy READ on the
    same node still returns its bytes (the overflow used to raise out
    of a delivery callback and stop the event loop)."""
    sim, [(big, big_table, big_wl), (small, small_table, _)] = _tenants(
        MB, KB)
    ok = sim.process(big.table_read_proc(big_table))
    refused = sim.process(small.table_read_proc(small_table))
    sim.run()
    assert ok.ok and ok.value == big_wl.schema.to_bytes(big_wl.rows)
    assert not refused.ok and isinstance(refused.value, NetworkError)
    assert "overflows client buffer" in str(refused.value)
    qp = small.connection.qp
    assert qp.requests_sent == qp.responses_received == 0


def test_overflowing_scan_fails_at_landing_in_its_own_process():
    """An offloaded scan's result size is known only once it has
    streamed: a result larger than the client's buffer fails that scan
    with a typed error when it lands, and a concurrent scan completes."""
    sim, [(big, big_table, big_wl), (small, small_table, small_wl)] = (
        _tenants(MB, KB))
    ok = sim.process(big.far_view_proc(big_table,
                                       select_star(big_wl.predicate)))
    refused = sim.process(small.far_view_proc(
        small_table, select_star(small_wl.predicate)))
    sim.run()
    assert ok.ok and ok.value.data == big_wl.schema.to_bytes(big_wl.rows)
    assert not refused.ok and isinstance(refused.value, NetworkError)
    assert "overflows client buffer" in str(refused.value)


def test_query_on_unallocated_table_rejected(client):
    wl = selection_workload(16, 1.0)
    table = FTable("S", wl.schema, 16)  # never allocated
    with pytest.raises(CatalogError, match="no disaggregated memory"):
        client.far_view(table, select_star(Compare("a", "<", 1)))


def test_closed_connection_rejects_verbs():
    sim = Simulator()
    node = FarviewNode(sim, CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    client.close_connection()
    wl = selection_workload(4, 1.0)
    with pytest.raises(ConnectionError_):
        client.alloc_table_mem(FTable("S", wl.schema, 4))
    with pytest.raises(ConnectionError_):
        client.close_connection()


def test_double_close_of_node_connection_rejected():
    sim = Simulator()
    node = FarviewNode(sim, CONFIG)
    conn = node.open_connection()
    node.close_connection(conn)
    with pytest.raises(ConnectionError_):
        node.close_connection(conn)


def test_client_buffer_overflow_detected():
    """A result larger than the posted client buffer must fail loudly."""
    sim = Simulator()
    node = FarviewNode(sim, CONFIG)
    client = FarviewClient(node, buffer_capacity=1 * KB)
    client.open_connection()
    wl = selection_workload(256, 1.0)  # 16 kB result into a 1 kB buffer
    table = FTable("S", wl.schema, len(wl.rows))
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    with pytest.raises(NetworkError, match="overflows"):
        client.table_read(table)


def test_resources_undeployed_on_close():
    sim = Simulator()
    node = FarviewNode(sim, CONFIG)
    client = FarviewClient(node)
    client.open_connection()
    wl = selection_workload(64, 1.0)
    table = FTable("S", wl.schema, len(wl.rows))
    client.alloc_table_mem(table)
    client.table_write(table, wl.rows)
    client.far_view(table, select_star(wl.predicate))
    region = client.connection.region.index
    busy = node.utilization()
    client.close_connection()
    freed = node.utilization()
    assert freed.luts < busy.luts  # operator share released
    assert region not in node.resources._deployed


def test_free_table_memory_is_reusable(client):
    wl = selection_workload(64, 1.0)
    for i in range(10):  # would exhaust a leaky allocator
        table = FTable(f"S{i}", wl.schema, len(wl.rows))
        client.alloc_table_mem(table)
        client.table_write(table, wl.rows)
        client.free_table_mem(table)
    assert client.node.mmu.allocator.pages_allocated == 0


# --- out-of-order delivery ---------------------------------------------------------

def test_streamer_deposits_are_position_based_not_order_based():
    """Packets may land in any order (§4.3 out-of-order execution at
    packet granularity): the response image lands whole once the last
    packet has, so the client image cannot depend on landing order."""
    sim = Simulator()
    config = NetworkConfig()
    link = Link(sim, config)
    qp = QueuePair(sim, buffer_capacity=8 * KB, credits=8)
    link.register_flow(qp.qp_id)
    streamer = ResponseStreamer(sim, link, qp)
    payload = bytes(range(256)) * 12  # 3 packets
    landings = []
    # Bypass the wire: send packet by packet (no train) and hold each
    # packet's landing callback.
    arbiter = link.down_arbiter
    arbiter._start_train = lambda _stream: None
    arbiter.submit = (lambda _flow, _nbytes, _extra, fn, *args:
                      landings.append((fn, args)))

    def server():
        yield from streamer.send(len(payload))
        return (yield from streamer.finish(payload))

    proc = sim.process(server())
    sim.run()
    assert len(landings) == 3 and not proc.triggered
    assert qp.buffer.read(0, len(payload)) == bytes(len(payload))
    for fn, args in reversed(landings):
        fn(*args)
    sim.run()
    assert proc.value == len(payload)
    assert qp.buffer.read(0, len(payload)) == payload


def test_versioned_table_is_isolated_between_connections():
    """§4.4 isolation holds for version chains as for plain tables: a
    second connection's scans and write verbs on another connection's
    ``VersionedTable`` are refused (``ProtectionFault``) with nothing
    allocated, committed or pinned — never served from the caller's own
    memory at the same virtual address."""
    sim = Simulator()
    node = FarviewNode(sim, CONFIG)
    owner, other = FarviewClient(node), FarviewClient(node)
    owner.open_connection()
    other.open_connection()
    wl = selection_workload(64, 1.0, seed=1)
    vt = owner.create_versioned_table("T", wl.schema, wl.rows)
    owner.update_where(vt, Compare("a", ">=", 0), {"c": 1})
    # Each domain has its own address space: the intruder's first table
    # lands on the very vaddr the chain's base segment has.
    mine = FTable("T", wl.schema, 64)
    other.alloc_table_mem(mine)
    other.table_write(mine, selection_workload(64, 1.0, seed=2).rows)
    assert mine.vaddr == vt.shards[0].chain.base.vaddr
    query = select_star(wl.predicate)
    verbs = [
        lambda: other.scan_versioned(vt, query, as_of=0),
        lambda: other.far_view(vt, query),
        lambda: other.update_where(vt, wl.predicate, {"c": 7}),
        lambda: other.delete_where(vt, wl.predicate),
        lambda: other.compact(vt),
        lambda: other.insert(vt, wl.rows[:4]),
        lambda: other.insert(vt, wl.rows[:0]),
    ]

    def state():
        return (vt.epoch, vt.num_deltas, vt.shards[0].chain.active_pins,
                node.mmu.allocator.free_pages,
                node.mmu.domain_pages(other.connection.domain))

    before = state()
    owner_pages = node.mmu.domain_pages(owner.connection.domain)
    for verb in verbs:
        with pytest.raises(ProtectionFault):
            verb()
        assert state() == before
        assert node.mmu.domain_pages(owner.connection.domain) == owner_pages
    # The owner is unaffected, and reads exactly what it wrote.
    result, _ = owner.far_view(vt, select_star(Compare("c", "==", 1)))
    assert result.num_rows == 64
    # Once the owning connection is gone its handle no longer translates.
    owner.close_connection()
    for verb in verbs:
        with pytest.raises(TranslationFault):
            verb()
        assert state()[:3] == before[:3]
