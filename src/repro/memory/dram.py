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
    host backs a frame with memory only once something is stored in it
    (multi-GB pools cost nothing until touched).  Every store goes
    through :meth:`write`, which keeps each frame's written extent, so
    :meth:`zero` clears only the bytes a frame's last owner wrote."""

    def __init__(self, page_size: int, frames: int):
        self.page_size = page_size
        self.frames = frames
        self._data = np.zeros(frames * page_size, dtype=np.uint8)
        #: Per frame: bytes past this offset are zero.
        self._written = [0] * frames

    def write(self, index: int, offset: int, data: np.ndarray) -> None:
        """Store ``data`` at ``offset`` into frame ``index``."""
        end = offset + len(data)
        if not (0 <= index < self.frames
                and 0 <= offset <= end <= self.page_size):
            raise MemoryError_(f"write [{offset}, {end}) outside frame {index}")
        base = index * self.page_size
        self._data[base + offset:base + end] = data
        self._written[index] = max(self._written[index], end)

    def zero(self, index: int) -> None:
        """Make frame ``index`` read zero: store zeros over its written
        extent only, then forget it (a frame nobody wrote costs nothing)."""
        base, end = index * self.page_size, self._written[index]
        if end:
            self._data[base:base + end] = 0
            self._written[index] = 0

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
