"""MMU: translation, isolation, striped data path, timed accesses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import MemoryConfig
from repro.common.errors import (
    MemoryError_,
    OutOfMemoryError,
    ProtectionFault,
    TranslationFault,
)
from repro.memory.mmu import Mmu, Tlb
from repro.sim.engine import Simulator

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
        mmu.peek(2, vaddr, 8)


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
    assert mmu.peek(1, vaddr, 64) == b"0123456789abcdef" * 4


def test_round_trip_crosses_stripe_units(mmu):
    vaddr = mmu.alloc(1, 4 * KB)
    payload = bytes(range(256)) * 16  # 4 KB distinctive pattern
    mmu.poke(1, vaddr, payload)
    assert mmu.peek(1, vaddr, len(payload)) == payload


def test_round_trip_unaligned_window(mmu):
    vaddr = mmu.alloc(1, 1 * KB)
    mmu.poke(1, vaddr, bytes(range(256)) * 4)
    # Window straddles stripe-unit boundaries at both ends.
    assert mmu.peek(1, vaddr + 50, 100) == (bytes(range(256)) * 4)[50:150]


def test_round_trip_crosses_pages(mmu):
    page = mmu.config.page_size
    vaddr = mmu.alloc(1, 2 * page)
    payload = b"PQRS" * 64
    mmu.poke(1, vaddr + page - 128, payload)
    assert mmu.peek(1, vaddr + page - 128, len(payload)) == payload


def test_partial_overwrite_preserves_neighbours(mmu):
    vaddr = mmu.alloc(1, 256)
    mmu.poke(1, vaddr, b"A" * 256)
    mmu.poke(1, vaddr + 70, b"B" * 10)
    got = mmu.peek(1, vaddr, 256)
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
    assert mmu.peek(2, fresh, 128) == bytes(128)


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
    assert mmu.peek(2, fresh, 6 * page) == bytes(6 * page)
    assert mmu.peek(1, vaddrs[1], sizes[1]) == b"\xa5" * sizes[1]


def test_fresh_pool_allocation_stores_nothing(mmu, monkeypatch):
    """The backing store is lazily zero: allocating frames that were
    never handed out must not touch it (a store per slice made the host
    back every page of a pool nobody had written to); a recycled frame
    is scrubbed, one store per channel."""
    touched = []
    for channel in mmu.channels:
        inner = channel.store_slice
        monkeypatch.setattr(
            channel, "store_slice",
            lambda offset, length, c=channel.index, inner=inner:
            touched.append(c) or inner(offset, length))
    page = mmu.config.page_size
    first = mmu.alloc(1, 3 * page)
    mmu.alloc(1, 100)
    assert touched == []
    assert mmu.peek(1, first, 3 * page) == bytes(3 * page)
    touched.clear()
    mmu.free(1, first)
    mmu.alloc(1, page)                  # one recycled frame
    assert sorted(touched) == [c.index for c in mmu.channels]


def test_read_beyond_mapping_faults(mmu):
    mmu.alloc(1, 64)
    page = mmu.config.page_size
    with pytest.raises(TranslationFault):
        mmu.peek(1, page * 100, 8)


def test_single_channel_path(sim):
    config = MemoryConfig(channels=1, channel_capacity=1 * MB, page_size=64 * KB)
    mmu = Mmu(sim, config)
    mmu.create_domain(1)
    vaddr = mmu.alloc(1, 1 * KB)
    mmu.poke(1, vaddr, b"single-channel" * 10)
    assert mmu.peek(1, vaddr, 140) == b"single-channel" * 10


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
    assert mmu.peek(1, vaddr + offset, len(data)) == data


# --- timed data path ---------------------------------------------------------------

def test_timed_read_returns_data(sim, mmu):
    vaddr = mmu.alloc(1, 1 * KB)
    mmu.poke(1, vaddr, b"Z" * 1024)

    def proc():
        data = yield mmu.read(1, vaddr, 1024)
        return data

    assert sim.run_process(proc()) == b"Z" * 1024


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
    assert mmu.peek(1, vaddr, 4) == b"wwww"


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
