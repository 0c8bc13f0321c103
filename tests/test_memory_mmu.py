"""MMU: translation, isolation, the frame store, timed accesses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.errors import (
    MemoryError_,
    OutOfMemoryError,
    ProtectionFault,
    TranslationFault,
)
from repro.common.records import default_schema
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import Query, select_star
from repro.core.table import FTable
from repro.memory.mmu import Mmu, Tlb
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import make_rows, projection_workload

KB = 1024
MB = 1024 * 1024


# --- TLB ----------------------------------------------------------------------

def test_tlb_hit_miss_accounting():
    tlb = Tlb(entries=2)
    assert tlb.lookup(1, 0) is None
    tlb.fill(1, 0, "frames0")
    assert tlb.lookup(1, 0) == "frames0"
    assert tlb.hits == 1
    assert tlb.misses == 1


def test_tlb_lru_eviction():
    tlb = Tlb(entries=2)
    tlb.fill(1, 0, "f0")
    tlb.fill(1, 1, "f1")
    tlb.lookup(1, 0)        # make page 0 most recent
    tlb.fill(1, 2, "f2")    # evicts page 1
    assert tlb.lookup(1, 1) is None
    assert tlb.lookup(1, 0) == "f0"


def test_tlb_invalidate_domain():
    tlb = Tlb(entries=8)
    tlb.fill(1, 0, "a")
    tlb.fill(2, 0, "b")
    tlb.invalidate_domain(1)
    assert tlb.lookup(1, 0) is None
    assert tlb.lookup(2, 0) == "b"


def test_tlb_rejects_zero_entries():
    with pytest.raises(MemoryError_):
        Tlb(entries=0)


# --- domains & allocation -------------------------------------------------------

def test_alloc_returns_page_aligned_vaddr(mmu):
    vaddr = mmu.alloc(1, 1000)
    assert vaddr % mmu.config.page_size == 0


def test_alloc_spans_multiple_pages(mmu):
    page = mmu.config.page_size
    vaddr = mmu.alloc(1, page * 2 + 1)
    assert mmu.domain_pages(1) == 3
    mmu.free(1, vaddr)
    assert mmu.domain_pages(1) == 0


def test_unknown_domain_raises(mmu):
    with pytest.raises(ProtectionFault):
        mmu.alloc(99, 64)


def test_duplicate_domain_rejected(mmu):
    with pytest.raises(MemoryError_):
        mmu.create_domain(1)


def test_domain_isolation(mmu):
    mmu.create_domain(2)
    vaddr = mmu.alloc(1, 128)
    mmu.poke(1, vaddr, b"secret!!")
    # Domain 2 has no mapping at this address.
    with pytest.raises(TranslationFault):
        mmu.image(2, vaddr, 8)


def test_free_unknown_vaddr_raises(mmu):
    with pytest.raises(MemoryError_):
        mmu.free(1, 0x5000)


def test_oom_when_pool_exhausted(sim):
    config = MemoryConfig(channels=2, channel_capacity=128 * KB, page_size=64 * KB)
    mmu = Mmu(sim, config)
    mmu.create_domain(1)
    # 128 KB/channel with 32 KB slices -> 4 pages total
    mmu.alloc(1, 4 * 64 * KB)
    with pytest.raises(OutOfMemoryError):
        mmu.alloc(1, 64 * KB)


def test_destroy_domain_releases_pages(sim, small_memconfig):
    mmu = Mmu(sim, small_memconfig)
    mmu.create_domain(1)
    before = mmu.allocator.free_pages
    mmu.alloc(1, 3 * small_memconfig.page_size)
    mmu.destroy_domain(1)
    assert mmu.allocator.free_pages == before
    with pytest.raises(ProtectionFault):
        mmu.alloc(1, 64)


# --- functional data path --------------------------------------------------------

def test_poke_peek_round_trip_small(mmu):
    vaddr = mmu.alloc(1, 256)
    mmu.poke(1, vaddr, b"0123456789abcdef" * 4)
    assert mmu.image(1, vaddr, 64) == b"0123456789abcdef" * 4


def test_round_trip_crosses_stripe_units(mmu):
    vaddr = mmu.alloc(1, 4 * KB)
    payload = bytes(range(256)) * 16  # 4 KB distinctive pattern
    mmu.poke(1, vaddr, payload)
    assert mmu.image(1, vaddr, len(payload)) == payload


def test_round_trip_unaligned_window(mmu):
    vaddr = mmu.alloc(1, 1 * KB)
    mmu.poke(1, vaddr, bytes(range(256)) * 4)
    # Window straddles stripe-unit boundaries at both ends.
    assert mmu.image(1, vaddr + 50, 100) == (bytes(range(256)) * 4)[50:150]


def test_round_trip_crosses_pages(mmu):
    page = mmu.config.page_size
    vaddr = mmu.alloc(1, 2 * page)
    payload = b"PQRS" * 64
    mmu.poke(1, vaddr + page - 128, payload)
    assert mmu.image(1, vaddr + page - 128, len(payload)) == payload


def test_partial_overwrite_preserves_neighbours(mmu):
    vaddr = mmu.alloc(1, 256)
    mmu.poke(1, vaddr, b"A" * 256)
    mmu.poke(1, vaddr + 70, b"B" * 10)
    got = mmu.image(1, vaddr, 256)
    assert got == b"A" * 70 + b"B" * 10 + b"A" * 176


def test_recycled_pages_are_scrubbed(mmu):
    """Freed physical pages must not leak stale data into the next
    allocation (found by the stateful model check): fresh allocations read
    as zero even when they reuse frames."""
    vaddr = mmu.alloc(1, 128)
    mmu.poke(1, vaddr, b"\xde\xad\xbe\xef" * 32)
    mmu.free(1, vaddr)
    mmu.create_domain(2)
    fresh = mmu.alloc(2, 128)  # recycles the freed frames
    assert mmu.image(2, fresh, 128) == bytes(128)


def test_partially_recycled_multi_page_allocation_reads_zero(mmu):
    """Free two of three multi-page allocations, then allocate more than
    they held from another domain: the new range mixes recycled frames
    (scrubbed) with frames never handed out (zero as they are), and the
    allocation that stayed keeps its bytes."""
    page = mmu.config.page_size
    sizes = (2 * page, 3 * page - 100, page + 1)
    vaddrs = [mmu.alloc(1, n) for n in sizes]
    for vaddr, n in zip(vaddrs, sizes):
        mmu.poke(1, vaddr, b"\xa5" * n)
    handed_out = mmu.allocator.high_water
    assert handed_out == 2 + 3 + 2
    mmu.free(1, vaddrs[0])
    mmu.free(1, vaddrs[2])
    mmu.create_domain(2)
    fresh = mmu.alloc(2, 6 * page)     # 4 recycled frames + 2 new ones
    assert mmu.allocator.high_water == handed_out + 2
    assert mmu.image(2, fresh, 6 * page) == bytes(6 * page)
    assert mmu.image(1, vaddrs[1], sizes[1]) == b"\xa5" * sizes[1]


def _count_stores(store) -> list[int]:
    """Make ``store`` count what is stored into its pool: one entry per
    store, its size in bytes (a slice of the pool keeps the counting
    class, so a store through any view of it counts too)."""
    sizes = []

    class Counting(np.ndarray):
        def __setitem__(self, key, value):
            sizes.append(np.ndarray.__getitem__(self, key).size)
            super().__setitem__(key, value)

    store._data = store._data.view(Counting)
    return sizes


def test_fresh_pool_allocation_stores_nothing(mmu):
    """The frame store is lazily zero, and an allocation stores into it
    only what a recycled frame's last owner wrote: nothing for frames
    never handed out (a store per frame made the host back every page
    of a pool nobody had written to), nothing for recycled frames nobody
    wrote, and ``offset + k`` bytes, once, for a frame whose owner poked
    ``k`` bytes at ``offset`` (scrubbing the whole page stored 64 KiB)."""
    stored = _count_stores(mmu.store)
    page = mmu.config.page_size
    first = mmu.alloc(1, 3 * page)
    mmu.alloc(1, 100)
    assert stored == []
    assert mmu.image(1, first, 3 * page) == bytes(3 * page)
    mmu.free(1, first)
    mmu.create_domain(2)
    unwritten = mmu.alloc(2, 3 * page)      # the same three frames
    assert stored == []
    offset, k = 1000, 37
    mmu.poke(2, unwritten + page + offset, b"\x5a" * k)
    assert stored == [k]
    stored.clear()
    mmu.free(2, unwritten)
    again = mmu.alloc(1, 3 * page)
    assert stored == [offset + k]
    assert mmu.image(1, again, 3 * page) == bytes(3 * page)
    mmu.free(1, again)
    mmu.alloc(2, 3 * page)                  # zeroed once, then forgotten
    assert stored == [offset + k]


def test_image_over_consecutive_frames_is_a_read_only_view(mmu):
    """A range on consecutive page frames — inside one page, or across
    the fresh frames of one allocation — is the frame store's own bytes,
    not a copy: it shares the store's memory, refuses writes, and shows
    a later write (so a caller that keeps it past its callback copies)."""
    page = mmu.config.page_size
    vaddr = mmu.alloc(1, 3 * page)
    payload = bytes(range(256)) * (3 * page // 256)
    mmu.poke(1, vaddr, payload)
    for start, length in ((100, 200), (page - 50, 2 * page)):
        view = mmu.image(1, vaddr + start, length)
        assert isinstance(view, memoryview) and view.readonly
        assert view == payload[start:start + length]
        assert np.shares_memory(np.asarray(view),
                                np.asarray(mmu.store.view(0, 3 * page)))
        with pytest.raises(TypeError):
            view[0] = 0
        mmu.poke(1, vaddr + start, b"\xff")
        assert view[0] == 0xFF


def test_image_over_recycled_frames_is_joined_bytes(mmu):
    """Frames are reused last-freed-first, so an allocation over recycled
    frames maps its pages to descending frames: a multi-page image is
    then one join of its pages' slices, equal byte for byte and its own."""
    page = mmu.config.page_size
    mmu.free(1, mmu.alloc(1, 3 * page))
    vaddr = mmu.alloc(1, 3 * page)
    table = mmu._page_tables[1]
    assert [table[vaddr // page + i] for i in range(3)] == [2, 1, 0]
    payload = bytes(range(251)) * (3 * page // 251 + 1)
    mmu.poke(1, vaddr, payload[:3 * page])
    for start, length in ((0, 3 * page), (page - 70, page + 140),
                          (10, 2 * page + 5), (page + 3, 100)):
        got = mmu.image(1, vaddr + start, length)
        assert got == payload[start:start + length]
        assert type(got) is (memoryview if length == 100 else bytes)


def test_read_beyond_mapping_faults(mmu):
    mmu.alloc(1, 64)
    page = mmu.config.page_size
    with pytest.raises(TranslationFault):
        mmu.image(1, page * 100, 8)


def test_single_channel_path(sim):
    config = MemoryConfig(channels=1, channel_capacity=1 * MB, page_size=64 * KB)
    mmu = Mmu(sim, config)
    mmu.create_domain(1)
    vaddr = mmu.alloc(1, 1 * KB)
    mmu.poke(1, vaddr, b"single-channel" * 10)
    assert mmu.image(1, vaddr, 140) == b"single-channel" * 10


@settings(max_examples=20, deadline=None)
@given(offset=st.integers(min_value=0, max_value=8 * KB - 1),
       data=st.binary(min_size=1, max_size=512))
def test_round_trip_property(offset, data):
    sim = Simulator()
    config = MemoryConfig(channels=2, channel_capacity=1 * MB, page_size=64 * KB)
    mmu = Mmu(sim, config)
    mmu.create_domain(1)
    vaddr = mmu.alloc(1, 16 * KB)
    mmu.poke(1, vaddr + offset, data)
    assert mmu.image(1, vaddr + offset, len(data)) == data


# --- timed data path ---------------------------------------------------------------

def test_timed_read_returns_data(sim, mmu):
    """A timed read only charges: it fires with its length, and the
    bytes it times are the range's image."""
    vaddr = mmu.alloc(1, 1 * KB)
    mmu.poke(1, vaddr, b"Z" * 1024)

    def proc():
        length = yield mmu.read(1, vaddr, 1024)
        return length, mmu.image(1, vaddr, 1024)

    assert sim.run_process(proc()) == (1024, b"Z" * 1024)


def test_timed_read_uses_aggregate_bandwidth(sim, mmu):
    """With 2 striped channels, each channel moves ~half the bytes."""
    vaddr = mmu.alloc(1, 64 * KB)

    def proc():
        start = sim.now
        yield mmu.read(1, vaddr, 64 * KB)
        return sim.now - start

    elapsed = sim.run_process(proc())
    per_channel_rate = mmu.config.effective_channel_bandwidth
    # Lower bound: half the bytes at one channel's rate; upper: generous 3x.
    lower = (32 * KB) / per_channel_rate
    assert lower <= elapsed <= 3 * lower
    assert mmu.bytes_read == 64 * KB


def test_timed_write_returns_length(sim, mmu):
    vaddr = mmu.alloc(1, 1 * KB)

    def proc():
        n = yield mmu.write(1, vaddr, b"w" * 512)
        return n

    assert sim.run_process(proc()) == 512
    assert mmu.image(1, vaddr, 4) == b"wwww"


def test_concurrent_reads_share_channels_fairly(sim, mmu):
    """Two domains streaming together finish within ~2x of one alone."""
    mmu.create_domain(2)
    v1 = mmu.alloc(1, 64 * KB)
    v2 = mmu.alloc(2, 64 * KB)
    finish = {}

    def reader(domain, vaddr, tag):
        yield mmu.read(domain, vaddr, 64 * KB)
        finish[tag] = sim.now

    def main():
        a = sim.process(reader(1, v1, "a"))
        b = sim.process(reader(2, v2, "b"))
        yield sim.all_of([a, b])

    sim.run_process(main())
    # Both make progress concurrently: finish times within one burst of
    # each other rather than fully serialized.
    assert abs(finish["a"] - finish["b"]) < 0.9 * max(finish.values())


def test_mmu_rejects_bad_burst():
    sim = Simulator()
    config = MemoryConfig(channels=2, channel_capacity=1 * MB, page_size=64 * KB)
    with pytest.raises(MemoryError_):
        Mmu(sim, config, burst_bytes=100)  # not a stripe multiple


# --- the TLB effect of each verb ------------------------------------------------------

def _tlb_verbs():
    """One client holding a 4-page table, a 2-page wide table, a
    4-page table whose only write matched no row (no delta) and one with
    a one-page insert delta (64 KiB pages); returns the node's TLB, the
    client's domain and one call per verb."""
    config = FarviewConfig(memory=MemoryConfig(
        channels=2, channel_capacity=8 * MB, page_size=64 * KB))
    client = FarviewClient(FarviewNode(Simulator(), config),
                           buffer_capacity=2 * MB)
    client.open_connection()
    schema = default_schema()
    rows = make_rows(schema, 4096, seed=1)              # 256 KiB: 4 pages
    table = FTable("t", schema, len(rows))
    client.alloc_table_mem(table)
    client.table_write(table, rows)
    wide_schema, wide_rows = projection_workload(256, 512, seed=2)
    wide = FTable("w", wide_schema, len(wide_rows))     # 128 KiB: 2 pages
    client.alloc_table_mem(wide)
    client.table_write(wide, wide_rows)
    chain = client.create_table("v", schema, rows)
    client.update_where(chain, Compare("a", "<", -1), {"c": 7})
    deltas = client.create_table("d", schema, rows)
    client.insert(deltas, rows[:100])
    everything = select_star(Compare("a", ">=", 0))
    return client.node.mmu.tlb, client.connection.domain, {
        "raw": lambda: client.table_read(table),
        "pipeline": lambda: client.far_view(table, everything),
        "smart": lambda: client.far_view(wide, Query(
            projection=tuple(wide_schema.names[:2]), smart_addressing=True)),
        "chain": lambda: client.far_view(chain, everything),
        "deltas": lambda: client.far_view(deltas, everything),
    }


def test_each_verb_translates_through_the_tlb_as_pinned():
    """Hits and misses per verb, cold (the domain's TLB entries dropped)
    then warm.  A raw READ and a pipeline scan translate once per 16 KiB
    burst (16 bursts over 4 pages: a miss per page when cold); smart
    addressing translates the table's 2 pages once; a chain with no
    delta at its epoch scans as a plain table, and one with a delta adds
    the delta's timed read (one page) to the base bursts.  However the
    MMU splits functional and timed access, these counts stay put."""
    tlb, domain, verbs = _tlb_verbs()
    pinned = {"raw": ((12, 4), (16, 0)), "pipeline": ((12, 4), (16, 0)),
              "smart": ((0, 2), (2, 0)), "chain": ((12, 4), (16, 0)),
              "deltas": ((12, 5), (17, 0))}
    for name, verb in verbs.items():
        seen = []
        for cold in (True, False):
            if cold:
                tlb.invalidate_domain(domain)
            hits, misses = tlb.hits, tlb.misses
            verb()
            seen.append((tlb.hits - hits, tlb.misses - misses))
        assert tuple(seen) == pinned[name], name
