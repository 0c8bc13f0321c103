"""TLB-miss timing in the MMU timed path."""

import pytest

from repro.common.config import MemoryConfig
from repro.memory.mmu import Mmu

KB = 1024
MB = 1024 * KB


# --- TLB timing ------------------------------------------------------------------------

@pytest.fixture
def mmu_small(sim):
    config = MemoryConfig(channels=2, channel_capacity=2 * MB,
                          page_size=64 * KB)
    m = Mmu(sim, config)
    m.create_domain(1)
    return m


def test_cold_read_charges_miss_penalty(sim, mmu_small):
    """The first timed read of a page pays the TLB miss; repeats hit."""
    vaddr = mmu_small.alloc(1, 64)

    def cold():
        t0 = sim.now
        yield mmu_small.read(1, vaddr, 64)
        return sim.now - t0

    def warm():
        t0 = sim.now
        yield mmu_small.read(1, vaddr, 64)
        return sim.now - t0

    t_cold = sim.run_process(cold())
    t_warm = sim.run_process(warm())
    config = mmu_small.config
    assert t_cold - t_warm == pytest.approx(
        config.tlb_miss_ns - config.tlb_hit_ns)


def test_translation_charge_counts_pages(mmu_small):
    """The charge is each page's hit or miss as the TLB stood before the
    range was translated."""
    page = mmu_small.config.page_size
    vaddr = mmu_small.alloc(1, 3 * page)
    charge = mmu_small.translate_range(1, vaddr, 3 * page)
    assert charge == pytest.approx(3 * mmu_small.config.tlb_miss_ns)
    # The first translation warmed the TLB.
    warm_charge = mmu_small.translate_range(1, vaddr, 3 * page)
    assert warm_charge == pytest.approx(3 * mmu_small.config.tlb_hit_ns)


def test_zero_length_access_charges_nothing(mmu_small):
    vaddr = mmu_small.alloc(1, 64)
    tlb = mmu_small.tlb
    assert mmu_small.translate_range(1, vaddr, 0) == 0.0
    assert (tlb.hits, tlb.misses) == (0, 0)
