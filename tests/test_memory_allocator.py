"""Striped allocator: page accounting and stripe arithmetic."""

import pytest

from repro.common.config import MemoryConfig
from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.memory.allocator import StripedAllocator

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def alloc():
    config = MemoryConfig(channels=2, channel_capacity=1 * MB, page_size=64 * KB)
    return StripedAllocator(config)


def test_total_pages(alloc):
    # 1 MB capacity / (64 KB / 2 channels) slice = 32 pages
    assert alloc.free_pages == 32


def test_allocate_and_free_round_trip(alloc):
    page = alloc.allocate_page()
    assert alloc.free_pages == 31
    assert alloc.pages_allocated == 1
    alloc.free_page(page)
    assert alloc.free_pages == 32
    assert alloc.pages_allocated == 0


def test_exhaustion_raises(alloc):
    for _ in range(32):
        alloc.allocate_page()
    with pytest.raises(OutOfMemoryError):
        alloc.allocate_page()


def test_double_free_raises(alloc):
    page = alloc.allocate_page()
    alloc.free_page(page)
    with pytest.raises(OutOfMemoryError):
        alloc.free_page(page)


def test_free_of_a_frame_never_handed_out_raises(alloc):
    first = alloc.allocate_page()
    with pytest.raises(OutOfMemoryError):
        alloc.free_page(first + 1)
    assert alloc.free_pages == 31


def test_recycled_frames_go_first_then_ascending_fresh_ones(alloc):
    """Last freed, first reused; past the recycled frames the slices come
    in ascending order, and ``high_water`` counts those ever handed out."""
    pages = [alloc.allocate_page() for _ in range(4)]
    assert pages == [0, 1, 2, 3]
    assert alloc.high_water == 4
    alloc.free_page(pages[1])
    alloc.free_page(pages[3])
    again = [alloc.allocate_page() for _ in range(3)]
    assert again == [3, 1, 4]
    assert alloc.high_water == 5
    assert alloc.free_pages == 32 - 5 and alloc.pages_allocated == 5


def test_distinct_pages_have_distinct_slices(alloc):
    a = alloc.allocate_page()
    b = alloc.allocate_page()
    assert a != b


def test_channel_extent(alloc):
    # 256 bytes = 4 units over 2 channels -> 2 units = 128 B per channel
    assert alloc.channel_extent(256) == 128
    # 65 bytes = 2 units over 2 channels -> 1 unit each
    assert alloc.channel_extent(65) == 64
    # 64 bytes = 1 unit -> one channel moves 64, modelled as max extent 64
    assert alloc.channel_extent(64) == 64


def test_rejects_indivisible_page_size():
    config = MemoryConfig(channels=3, channel_capacity=1 * MB, page_size=64 * KB)
    with pytest.raises(ConfigurationError):
        StripedAllocator(config)


def test_rejects_capacity_below_one_page():
    config = MemoryConfig(channels=2, channel_capacity=16 * KB, page_size=64 * KB)
    with pytest.raises(ConfigurationError):
        StripedAllocator(config)
