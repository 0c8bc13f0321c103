"""Configuration dataclasses for all simulated subsystems.

Defaults come from :mod:`repro.common.calibration`; experiments override
individual fields (e.g. channel count, packet size) without touching the
calibration module.  All configs validate on construction so a bad sweep
parameter fails loudly at setup rather than corrupting a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import calibration as cal
from .errors import ConfigurationError


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the RDMA network path (paper §4.3)."""

    line_rate: float = cal.NETWORK_LINE_RATE  # bytes/ns
    packet_size: int = cal.PACKET_SIZE
    header_overhead: int = cal.PACKET_HEADER_OVERHEAD
    one_way_latency_ns: float = cal.LINK_ONE_WAY_LATENCY_NS
    request_overhead_ns: float = cal.FV_NIC_REQUEST_OVERHEAD_NS
    per_packet_overhead_ns: float = cal.FV_PER_PACKET_OVERHEAD_NS
    initial_credits: int = 32

    def __post_init__(self) -> None:
        _require_positive("line_rate", self.line_rate)
        _require_positive("packet_size", self.packet_size)
        if self.header_overhead < 0:
            raise ConfigurationError("header_overhead must be >= 0")
        _require_positive("initial_credits", self.initial_credits)

    @property
    def goodput(self) -> float:
        """Payload bandwidth after per-packet header overhead, bytes/ns."""
        frame = self.packet_size + self.header_overhead
        return self.line_rate * (self.packet_size / frame)


@dataclass(frozen=True)
class MemoryConfig:
    """Parameters of the on-board memory stack (paper §4.4)."""

    channels: int = cal.DRAM_CHANNELS
    channel_bandwidth: float = cal.DRAM_CHANNEL_BANDWIDTH  # bytes/ns
    channel_capacity: int = cal.DRAM_CHANNEL_CAPACITY
    efficiency: float = cal.DRAM_EFFICIENCY
    access_latency_ns: float = cal.DRAM_ACCESS_LATENCY_NS
    page_size: int = cal.PAGE_SIZE
    tlb_hit_ns: float = cal.TLB_HIT_LATENCY_NS
    tlb_miss_ns: float = cal.TLB_MISS_PENALTY_NS
    stripe_unit: int = cal.DATAPATH_BYTES

    def __post_init__(self) -> None:
        _require_positive("channels", self.channels)
        _require_positive("channel_bandwidth", self.channel_bandwidth)
        _require_positive("channel_capacity", self.channel_capacity)
        _require_positive("page_size", self.page_size)
        _require_positive("stripe_unit", self.stripe_unit)
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"efficiency must be in (0, 1], got {self.efficiency!r}")
        if self.page_size % self.stripe_unit:
            raise ConfigurationError("page_size must be a multiple of stripe_unit")

    @property
    def effective_channel_bandwidth(self) -> float:
        """Sustainable bandwidth of one channel, bytes/ns."""
        return self.channel_bandwidth * self.efficiency

    @property
    def aggregate_bandwidth(self) -> float:
        """Sustainable bandwidth across all striped channels, bytes/ns."""
        return self.effective_channel_bandwidth * self.channels


@dataclass(frozen=True)
class OperatorStackConfig:
    """Parameters of the operator stack / dynamic regions (paper §4.5)."""

    regions: int = cal.DYNAMIC_REGIONS
    clock_mhz: float = cal.OPERATOR_CLOCK_MHZ
    datapath_bytes: int = cal.DATAPATH_BYTES
    pipeline_fill_cycles: int = cal.PIPELINE_FILL_CYCLES
    reconfiguration_ns: float = cal.RECONFIGURATION_TIME_NS
    cuckoo_tables: int = cal.CUCKOO_TABLES
    cuckoo_slots: int = cal.CUCKOO_TABLE_SLOTS
    cuckoo_max_kicks: int = cal.CUCKOO_MAX_KICKS
    lru_depth_per_table: int = cal.LRU_CACHE_DEPTH_PER_TABLE

    def __post_init__(self) -> None:
        _require_positive("regions", self.regions)
        _require_positive("clock_mhz", self.clock_mhz)
        _require_positive("datapath_bytes", self.datapath_bytes)
        _require_positive("cuckoo_tables", self.cuckoo_tables)
        _require_positive("cuckoo_slots", self.cuckoo_slots)

    @property
    def cycle_ns(self) -> float:
        return 1_000.0 / self.clock_mhz

    @property
    def region_throughput(self) -> float:
        """Per-region streaming throughput, bytes/ns (width x clock)."""
        return self.datapath_bytes / self.cycle_ns


@dataclass(frozen=True)
class CpuConfig:
    """Cost model of the CPU baselines (paper §6.1)."""

    dram_read_bandwidth: float = cal.CPU_DRAM_READ_BANDWIDTH
    dram_write_bandwidth: float = cal.CPU_DRAM_WRITE_BANDWIDTH
    socket_dram_bandwidth: float = cal.CPU_SOCKET_DRAM_BANDWIDTH
    query_setup_ns: float = cal.CPU_QUERY_SETUP_NS
    select_cost_per_tuple_ns: float = cal.CPU_SELECT_COST_PER_TUPLE_NS
    hash_cost_per_tuple_ns: float = cal.CPU_HASH_COST_PER_TUPLE_NS
    hash_resize_cost_per_tuple_ns: float = cal.CPU_HASH_RESIZE_COST_PER_TUPLE_NS
    re2_cost_per_byte_ns: float = cal.CPU_RE2_COST_PER_BYTE_NS
    aes_cost_per_byte_ns: float = cal.CPU_AES_COST_PER_BYTE_NS
    two_sided_overhead_ns: float = cal.RCPU_TWO_SIDED_OVERHEAD_NS
    interference_factor: float = cal.CPU_INTERFERENCE_FACTOR

    def __post_init__(self) -> None:
        _require_positive("dram_read_bandwidth", self.dram_read_bandwidth)
        _require_positive("dram_write_bandwidth", self.dram_write_bandwidth)
        if self.interference_factor < 0:
            raise ConfigurationError("interference_factor must be >= 0")


@dataclass(frozen=True)
class RnicConfig:
    """Commercial RDMA NIC model (ConnectX-5; paper §6.1-6.2)."""

    line_rate: float = cal.NETWORK_LINE_RATE
    pcie_bandwidth: float = cal.RNIC_PCIE_BANDWIDTH
    pcie_latency_ns: float = cal.RNIC_PCIE_LATENCY_NS
    packet_size: int = cal.PACKET_SIZE
    header_overhead: int = cal.PACKET_HEADER_OVERHEAD
    one_way_latency_ns: float = cal.LINK_ONE_WAY_LATENCY_NS
    request_overhead_ns: float = cal.RNIC_REQUEST_OVERHEAD_NS
    per_packet_overhead_ns: float = cal.RNIC_PER_PACKET_OVERHEAD_NS

    def __post_init__(self) -> None:
        _require_positive("line_rate", self.line_rate)
        _require_positive("pcie_bandwidth", self.pcie_bandwidth)
        _require_positive("packet_size", self.packet_size)


@dataclass(frozen=True)
class FarviewConfig:
    """Top-level configuration for a Farview node plus its clients."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    operator_stack: OperatorStackConfig = field(default_factory=OperatorStackConfig)

    def replace(self, **kwargs: object) -> "FarviewConfig":
        """Return a copy with the given sub-configs replaced."""
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)  # type: ignore[arg-type]


DEFAULT_CONFIG = FarviewConfig()
