"""On-board DRAM channel model (paper §4.4, §6.1).

Each channel is a byte-addressable backing store (real memory, so reads
return the bytes that were written), reached through :meth:`store_slice`,
plus a :class:`BandwidthPipe` per direction modelling the softcore
controller: 64-byte interface at 300 MHz, ~18 GBps theoretical, with a
fixed access latency for the first beat of a burst.  The MMU moves the
bytes and charges the pipes; the channel itself runs nothing.

Reads and writes use **decoupled pipes** ("fully decoupled read and write
channels", §4.4): a stream of reads does not queue behind writes.
"""

from __future__ import annotations

import numpy as np

from ..common.config import MemoryConfig
from ..common.errors import MemoryError_
from ..sim.engine import Simulator
from ..sim.resources import BandwidthPipe


class DramChannel:
    """One memory channel: backing store + read/write bandwidth pipes."""

    def __init__(self, sim: Simulator, config: MemoryConfig, index: int):
        self.sim = sim
        self.config = config
        self.index = index
        self.capacity = config.channel_capacity
        # numpy backing store: zero pages are materialized lazily by the OS
        # (multi-GB channels cost nothing until touched) and the MMU's
        # de-striping path can gather/scatter through views without copies.
        self._data = np.zeros(self.capacity, dtype=np.uint8)
        rate = config.effective_channel_bandwidth
        self.read_pipe = BandwidthPipe(
            sim, rate, latency_ns=config.access_latency_ns,
            name=f"dram{index}.rd")
        self.write_pipe = BandwidthPipe(
            sim, rate, latency_ns=config.access_latency_ns,
            name=f"dram{index}.wr")

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise MemoryError_(
                f"channel {self.index}: access [{offset}, {offset + length}) "
                f"outside capacity {self.capacity}")

    def store_slice(self, offset: int, length: int) -> np.ndarray:
        """Raw view into the backing store (MMU de-striping internals).

        The view aliases live channel memory: the MMU copies out of it (or
        scatters into it) immediately and never hands it to callers.
        """
        self._check_range(offset, length)
        return self._data[offset:offset + length]

    @property
    def bytes_read(self) -> int:
        return self.read_pipe.bytes_transferred

    @property
    def bytes_written(self) -> int:
        return self.write_pipe.bytes_transferred


def build_channels(sim: Simulator, config: MemoryConfig) -> list[DramChannel]:
    """Instantiate the configured number of channels."""
    return [DramChannel(sim, config, i) for i in range(config.channels)]
