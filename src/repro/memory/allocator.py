"""Striped physical memory allocation (paper §4.4).

The MMU "allocat[es] memory in a striping pattern across all available
memory channels, thus maximizing the available bandwidth to each dynamic
region".  We model this as:

* virtual memory is allocated in naturally aligned 2 MB pages;
* each page is backed by one *slice* of ``page_size / channels`` bytes on
  **every** channel;
* consecutive 64-byte stripe units of the page rotate across channels:
  unit ``i`` lives on channel ``i % C`` at slice offset ``(i // C) * 64``.

Slices are handed out recycled-first (last freed, first reused), then
in ascending order from a high-water mark: constant-time allocate/free,
no fragmentation because all slices are equal-sized, and a slice at or
above the mark has never held data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.config import MemoryConfig
from ..common.errors import ConfigurationError, OutOfMemoryError


@dataclass(frozen=True)
class PageFrames:
    """Physical backing of one virtual page: one slice offset per channel."""

    slice_offsets: tuple[int, ...]  # byte offset of the slice in each channel


class StripedAllocator:
    """Allocates page-sized, channel-striped physical frames."""

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
        slices_per_channel = config.channel_capacity // self.slice_size
        if slices_per_channel == 0:
            raise ConfigurationError(
                f"channel capacity {config.channel_capacity} smaller than a "
                f"page slice {self.slice_size}")
        # All channels allocate the same slice index for a page, keeping the
        # stripe arithmetic uniform; one shared free list suffices.  Freed
        # slices, in the order they were freed (a dict: O(1) membership
        # for the double-free check, ``popitem`` for last-in-first-out).
        self._recycled: dict[int, None] = {}
        #: Slices ``[0, high_water)`` have been handed out at some time;
        #: the backing store of the rest is untouched, hence zero.
        self.high_water = 0
        self._total_slices = slices_per_channel
        self.pages_allocated = 0

    @property
    def free_pages(self) -> int:
        return len(self._recycled) + self._total_slices - self.high_water

    def allocate_page(self) -> PageFrames:
        """Reserve one page worth of physical memory across all channels."""
        if self._recycled:
            index, _ = self._recycled.popitem()
        elif self.high_water < self._total_slices:
            index = self.high_water
            self.high_water += 1
        else:
            raise OutOfMemoryError(
                f"no free pages ({self._total_slices} total, all in use)")
        offset = index * self.slice_size
        self.pages_allocated += 1
        return PageFrames(tuple(offset for _ in range(self.config.channels)))

    def free_page(self, frames: PageFrames) -> None:
        """Return a page's frames to the free list."""
        offsets = set(frames.slice_offsets)
        if len(offsets) != 1:
            raise ConfigurationError(
                "uniform slice allocation invariant violated")
        index = frames.slice_offsets[0] // self.slice_size
        if index >= self.high_water or index in self._recycled:
            raise OutOfMemoryError(f"double free of page slice {index}")
        self._recycled[index] = None
        self.pages_allocated -= 1

    # -- stripe arithmetic -----------------------------------------------------
    def locate(self, frames: PageFrames, page_offset: int) -> tuple[int, int]:
        """Map a byte offset within a page to (channel, channel_offset)."""
        unit = self.config.stripe_unit
        channels = self.config.channels
        unit_index = page_offset // unit
        within = page_offset % unit
        channel = unit_index % channels
        channel_offset = (frames.slice_offsets[channel]
                          + (unit_index // channels) * unit + within)
        return channel, channel_offset

    def channel_extent(self, length: int) -> int:
        """Bytes a ``length``-byte striped access moves per channel (max)."""
        unit = self.config.stripe_unit
        channels = self.config.channels
        units = (length + unit - 1) // unit
        return ((units + channels - 1) // channels) * unit
