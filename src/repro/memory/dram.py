"""On-board DRAM model (paper §4.4, §6.1): the pool's bytes and its channels.

The bytes live in one :class:`FrameStore`, a page frame after another,
unstriped: striping is a bandwidth property, so only the timing needs
it.  Each :class:`DramChannel` is a :class:`BandwidthPipe` per direction
modelling the softcore controller: 64-byte interface at 300 MHz, ~18
GBps theoretical, with a fixed access latency for the first beat of a
burst.  The MMU moves the bytes and charges the pipes its stripe share.

Reads and writes use **decoupled pipes** ("fully decoupled read and write
channels", §4.4): a stream of reads does not queue behind writes.
"""

from __future__ import annotations

import numpy as np

from ..common.config import MemoryConfig
from ..common.errors import MemoryError_
from ..sim.engine import Simulator
from ..sim.resources import BandwidthPipe


class FrameStore:
    """``frames`` page frames of ``page_size`` bytes, lazily zero: the
    host backs a frame with memory only once something is stored in
    it (multi-GB pools cost nothing until touched)."""

    def __init__(self, page_size: int, frames: int):
        self.page_size = page_size
        self.frames = frames
        self._data = np.zeros(frames * page_size, dtype=np.uint8)

    def frame(self, index: int) -> np.ndarray:
        """Writable view of frame ``index``; it aliases the store."""
        if not 0 <= index < self.frames:
            raise MemoryError_(
                f"frame {index} outside the store's {self.frames} frames")
        base = index * self.page_size
        return self._data[base:base + self.page_size]

    def view(self, start: int, length: int) -> memoryview:
        """Read-only, uncopied view of bytes ``[start, +length)``."""
        return memoryview(self._data[start:start + length]).toreadonly()


class DramChannel:
    """One memory channel: read and write bandwidth pipes."""

    def __init__(self, sim: Simulator, config: MemoryConfig, index: int):
        self.index = index
        rate = config.effective_channel_bandwidth
        self.read_pipe = BandwidthPipe(
            sim, rate, latency_ns=config.access_latency_ns,
            name=f"dram{index}.rd")
        self.write_pipe = BandwidthPipe(
            sim, rate, latency_ns=config.access_latency_ns,
            name=f"dram{index}.wr")

    @property
    def bytes_read(self) -> int:
        return self.read_pipe.bytes_transferred

    @property
    def bytes_written(self) -> int:
        return self.write_pipe.bytes_transferred


def build_channels(sim: Simulator, config: MemoryConfig) -> list[DramChannel]:
    """Instantiate the configured number of channels."""
    return [DramChannel(sim, config, i) for i in range(config.channels)]
