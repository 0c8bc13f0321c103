"""Striped physical memory allocation (paper §4.4).

The MMU "allocat[es] memory in a striping pattern across all available
memory channels, thus maximizing the available bandwidth to each dynamic
region".  We model this as:

* virtual memory is allocated in naturally aligned 2 MB pages;
* each page is backed by one page *frame*: frame ``i`` is the ``i``-th
  *slice* of ``page_size / channels`` bytes on **every** channel;
* consecutive 64-byte stripe units of the page rotate across channels:
  unit ``i`` lives on channel ``i % C`` at slice offset ``(i // C) * 64``.

Striping is what a timed access pays (:meth:`channel_extent`); the bytes
themselves are kept unstriped, frame by frame (``dram.FrameStore``).

Frames are handed out recycled-first (last freed, first reused), then
in ascending order from a high-water mark: constant-time allocate/free,
no fragmentation because all frames are equal-sized.
"""

from __future__ import annotations

from ..common.config import MemoryConfig
from ..common.errors import ConfigurationError, OutOfMemoryError


class StripedAllocator:
    """Allocates page frames, each striped across every channel."""

    def __init__(self, config: MemoryConfig):
        if config.page_size % config.channels:
            raise ConfigurationError(
                f"page size {config.page_size} not divisible by "
                f"{config.channels} channels")
        self.config = config
        self.slice_size = config.page_size // config.channels
        if self.slice_size % config.stripe_unit:
            raise ConfigurationError(
                "page slice is not a whole number of stripe units")
        #: Every channel holds this many slices, so the pool this many
        #: page frames.
        self.total_pages = config.channel_capacity // self.slice_size
        if self.total_pages == 0:
            raise ConfigurationError(
                f"channel capacity {config.channel_capacity} smaller than a "
                f"page slice {self.slice_size}")
        # Freed frames, in the order they were freed (a dict: O(1)
        # membership for the double-free check, ``popitem`` for
        # last-in-first-out).
        self._recycled: dict[int, None] = {}
        #: Frames ``[0, high_water)`` have been handed out at some time.
        self.high_water = 0
        self.pages_allocated = 0

    @property
    def free_pages(self) -> int:
        return len(self._recycled) + self.total_pages - self.high_water

    def allocate_page(self) -> int:
        """Reserve one page frame; returns its index."""
        if self._recycled:
            index, _ = self._recycled.popitem()
        elif self.high_water < self.total_pages:
            index = self.high_water
            self.high_water += 1
        else:
            raise OutOfMemoryError(
                f"no free pages ({self.total_pages} total, all in use)")
        self.pages_allocated += 1
        return index

    def free_page(self, index: int) -> None:
        """Return page frame ``index`` to the free list."""
        if index >= self.high_water or index in self._recycled:
            raise OutOfMemoryError(f"double free of page frame {index}")
        self._recycled[index] = None
        self.pages_allocated -= 1

    # -- stripe arithmetic -----------------------------------------------------
    def channel_extent(self, length: int) -> int:
        """Bytes a ``length``-byte striped access moves per channel (max)."""
        unit = self.config.stripe_unit
        channels = self.config.channels
        units = (length + unit - 1) // unit
        return ((units + channels - 1) // channels) * unit
