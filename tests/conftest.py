"""Shared fixtures: a fresh simulator and small memory configs for tests."""

import pytest

from repro.common.config import MemoryConfig
from repro.core.api import QueryResult
from repro.memory.mmu import Mmu
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * 1024


def _assert_uniform_result(result, elapsed_ns: float) -> None:
    """One more assertion for every cell of the conformance matrices:
    whatever ran — direct, scatter-gather, ship, hybrid, compiled — the
    verb returned the one :class:`QueryResult` shape."""
    assert type(result) is QueryResult
    assert all(type(part) is QueryResult for part in result.parts)
    rows = result.rows()
    assert result.num_rows == len(rows)
    assert isinstance(result.data, bytes)
    assert result.bytes_scanned >= 0
    assert result.bytes_shipped >= (1 if len(rows) else 0)
    assert 0 < result.response_time_ns <= elapsed_ns
    if result.explain is not None:
        assert result.explain.actual_ns == elapsed_ns
        assert result.explain.render()


@pytest.fixture(scope="session")
def assert_uniform_result():
    return _assert_uniform_result


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def small_memconfig():
    """Two channels, 64 KB pages, 2 MB per channel — fast to construct."""
    return MemoryConfig(channels=2, channel_capacity=2 * MB, page_size=64 * KB)


@pytest.fixture
def mmu(sim, small_memconfig):
    m = Mmu(sim, small_memconfig)
    m.create_domain(1)
    return m
