"""Configuration dataclasses and calibration anchors."""

import pytest

from repro.common import calibration as cal
from repro.common.config import (
    DEFAULT_CONFIG,
    FarviewConfig,
    MemoryConfig,
    NetworkConfig,
    OperatorStackConfig,
    RnicConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.records import default_schema
from repro.core.pipeline_compiler import compile_query
from repro.core.query import Query
from repro.core.table import FTable
from repro.operators.aggregate import AggregateSpec
from repro.operators.selection import Compare


# --- NetworkConfig -------------------------------------------------------------

def test_network_defaults_match_paper():
    config = NetworkConfig()
    assert config.line_rate == pytest.approx(12.5)   # 100 Gbps
    assert config.packet_size == 1024                # §6.2: 1 kB packets


def test_goodput_accounts_for_headers():
    config = NetworkConfig()
    assert config.goodput < config.line_rate
    assert config.goodput == pytest.approx(
        12.5 * 1024 / (1024 + config.header_overhead))


def test_network_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(line_rate=0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(packet_size=0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(header_overhead=-1)
    with pytest.raises(ConfigurationError):
        NetworkConfig(initial_credits=0)


# --- MemoryConfig -----------------------------------------------------------------

def test_memory_defaults_match_paper():
    config = MemoryConfig()
    assert config.channels == 2                       # §6.1: two channels
    assert config.channel_bandwidth == pytest.approx(18.0)
    assert config.page_size == 2 * 1024 * 1024        # §4.4: 2 MB pages


def test_memory_derived_bandwidths():
    config = MemoryConfig()
    assert config.effective_channel_bandwidth == pytest.approx(18.0 * 0.9)
    assert config.aggregate_bandwidth == pytest.approx(2 * 18.0 * 0.9)


def test_memory_validation():
    with pytest.raises(ConfigurationError):
        MemoryConfig(channels=0)
    with pytest.raises(ConfigurationError):
        MemoryConfig(efficiency=0.0)
    with pytest.raises(ConfigurationError):
        MemoryConfig(efficiency=1.5)
    with pytest.raises(ConfigurationError):
        MemoryConfig(page_size=100, stripe_unit=64)  # not a multiple


# --- OperatorStackConfig --------------------------------------------------------------

def test_operator_stack_defaults_match_paper():
    config = OperatorStackConfig()
    assert config.regions == 6                        # §6.1
    assert config.clock_mhz == 250.0                  # §4.1
    assert config.datapath_bytes == 64                # §4.5
    # 64 B x 250 MHz = 16 GB/s per-region streaming throughput.
    assert config.region_throughput == pytest.approx(16.0)
    assert config.cycle_ns == pytest.approx(4.0)


def test_operator_stack_validation():
    with pytest.raises(ConfigurationError):
        OperatorStackConfig(regions=0)
    with pytest.raises(ConfigurationError):
        OperatorStackConfig(clock_mhz=0)
    with pytest.raises(ConfigurationError):
        OperatorStackConfig(cuckoo_tables=0)


# --- RnicConfig ---------------------------------------------------------------------------

def test_rnic_validation():
    with pytest.raises(ConfigurationError):
        RnicConfig(pcie_bandwidth=0)


# --- FarviewConfig ----------------------------------------------------------------------------

def test_farview_config_replace():
    replaced = DEFAULT_CONFIG.replace(
        memory=MemoryConfig(channels=4))
    assert replaced.memory.channels == 4
    assert DEFAULT_CONFIG.memory.channels == 2  # original untouched
    assert replaced.network == DEFAULT_CONFIG.network


# --- calibration anchors ------------------------------------------------------------------------

def test_reconfiguration_is_millisecond_scale():
    # §3.2: "on the order of milliseconds".
    assert 1e6 <= cal.RECONFIGURATION_TIME_NS <= 50e6
    assert cal.reconfiguration_latency_ns(0.5) == pytest.approx(
        cal.RECONFIGURATION_TIME_NS / 2)
    with pytest.raises(ValueError):
        cal.reconfiguration_latency_ns(0.0)


def test_pipeline_fill_is_sub_microsecond():
    # What the node charges: a compiled pipeline's fill is the sum of its
    # blocks' fill latencies, paid at the operator clock.
    stack = OperatorStackConfig()
    schema = default_schema()
    query = Query(predicate=Compare("a", "<", 5), projection=("a", "b"),
                  group_by=("a",), aggregates=(AggregateSpec("sum", "b"),))
    compiled = compile_query(query, FTable("t", schema, 1024),
                             FarviewConfig())
    fill_ns = compiled.pipeline.fill_latency_cycles * stack.cycle_ns
    assert 0.0 < fill_ns < 1_000.0


def test_rnic_latency_path_slower_than_pipelined():
    assert cal.RNIC_PER_PACKET_OVERHEAD_NS > cal.RNIC_PIPELINED_PER_PACKET_NS
