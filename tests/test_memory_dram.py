"""DRAM model: the frame store and each channel's two bandwidth pipes."""

import numpy as np
import pytest

from repro.common.config import MemoryConfig
from repro.common.errors import MemoryError_
from repro.memory.dram import DramChannel, FrameStore, build_channels
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def channel(sim):
    config = MemoryConfig(channels=1, channel_capacity=1 * MB, page_size=64 * KB)
    return DramChannel(sim, config, index=0)


@pytest.fixture
def store():
    return FrameStore(page_size=64 * KB, frames=16)


def test_store_slice_round_trip(store):
    """A frame view aliases live store memory: what is stored through one
    view reads back through another, and frames do not overlap."""
    store.frame(3)[100:111] = np.frombuffer(b"hello world", np.uint8)
    assert store.frame(3)[100:111].tobytes() == b"hello world"
    assert store.frame(3)[96:104].tobytes() == b"\x00" * 4 + b"hell"
    assert not store.frame(2).any() and not store.frame(4).any()


def test_store_reads_zero_until_written(store):
    assert store.frame(0)[:4].tobytes() == b"\x00\x00\x00\x00"
    assert not any(store.frame(i).any() for i in range(store.frames))


def test_out_of_range_access_raises(store):
    with pytest.raises(MemoryError_):
        store.frame(16)
    with pytest.raises(MemoryError_):
        store.frame(-1)
    assert len(store.frame(15)) == 64 * KB


def test_read_write_pipes_are_decoupled(sim, channel):
    """A large write must not delay a concurrent read (decoupled channels)."""

    def proc():
        channel.write_pipe.occupy(512 * KB)
        start = sim.now
        yield channel.read_pipe.transfer(64)
        return sim.now - start

    elapsed = sim.run_process(proc())
    # 64 B / (18 * 0.9) B/ns + 90 ns access latency
    expected = 64 / (18.0 * 0.9) + 90.0
    assert elapsed == pytest.approx(expected)


def test_bytes_counters(sim, channel):
    def proc():
        yield channel.write_pipe.transfer(128)
        yield channel.read_pipe.transfer(64)

    sim.run_process(proc())
    assert channel.bytes_written == 128
    assert channel.bytes_read == 64


def test_build_channels_count(sim):
    config = MemoryConfig(channels=4, channel_capacity=1 * MB, page_size=64 * KB)
    channels = build_channels(sim, config)
    assert len(channels) == 4
    assert [c.index for c in channels] == [0, 1, 2, 3]
