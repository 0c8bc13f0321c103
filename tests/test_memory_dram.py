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


def _frame(store, index):
    """The bytes of frame ``index``, read through the store's view."""
    return store.view(index * store.page_size, store.page_size)


def test_store_write_round_trip(store):
    """What is stored into a frame reads back through a view of the
    store, at the frame's offset, and frames do not overlap."""
    store.write(3, 100, np.frombuffer(b"hello world", np.uint8))
    assert _frame(store, 3)[100:111] == b"hello world"
    assert _frame(store, 3)[96:104] == b"\x00" * 4 + b"hell"
    assert store.view(3 * 64 * KB + 100, 5) == b"hello"
    assert _frame(store, 2) == bytes(64 * KB) == _frame(store, 4)


def test_store_reads_zero_until_written(store):
    assert store.view(0, store.frames * 64 * KB) == bytes(16 * 64 * KB)


def test_zero_clears_the_furthest_write_and_forgets_it(store):
    """``zero`` makes a frame read zero again over everything written
    into it since it was last zero, the furthest write included, and
    leaves the other frames alone."""
    store.write(5, 64 * KB - 3, np.frombuffer(b"end", np.uint8))
    store.write(5, 10, np.frombuffer(b"start", np.uint8))
    store.write(6, 0, np.frombuffer(b"kept", np.uint8))
    store.zero(5)
    assert _frame(store, 5) == bytes(64 * KB)
    assert _frame(store, 6)[:4] == b"kept"
    store.write(5, 7, np.frombuffer(b"again", np.uint8))
    store.zero(5)
    assert _frame(store, 5) == bytes(64 * KB)


def test_out_of_range_write_raises(store):
    """A write names one frame and must fit inside it."""
    one = np.frombuffer(b"x", np.uint8)
    with pytest.raises(MemoryError_):
        store.write(16, 0, one)
    with pytest.raises(MemoryError_):
        store.write(-1, 0, one)
    with pytest.raises(MemoryError_):
        store.write(15, 64 * KB - 1, np.frombuffer(b"xy", np.uint8))
    with pytest.raises(MemoryError_):
        store.write(15, -1, one)
    store.write(15, 64 * KB - 1, one)
    assert store.view(16 * 64 * KB - 1, 1) == b"x"


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
