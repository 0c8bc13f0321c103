"""Configuration dataclasses and calibration anchors."""

import pytest

from repro.common import calibration as cal
from repro.common.config import (
    DEFAULT_CONFIG,
    CpuConfig,
    FarviewConfig,
    MemoryConfig,
    NetworkConfig,
    OperatorStackConfig,
    RnicConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.units import mhz_cycle_ns


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


# --- CpuConfig / RnicConfig --------------------------------------------------------------

def test_cpu_validation():
    with pytest.raises(ConfigurationError):
        CpuConfig(dram_read_bandwidth=0)
    with pytest.raises(ConfigurationError):
        CpuConfig(interference_factor=-0.1)


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
    fill_ns = cal.PIPELINE_FILL_CYCLES * mhz_cycle_ns(cal.OPERATOR_CLOCK_MHZ)
    assert fill_ns < 1_000.0


def test_rnic_latency_path_slower_than_pipelined():
    assert cal.RNIC_PER_PACKET_OVERHEAD_NS > cal.RNIC_PIPELINED_PER_PACKET_NS
