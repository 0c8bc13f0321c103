"""Analytic CPU cost model for the LCPU / RCPU baselines (§6.1).

The baselines *really compute* their results (numpy scans, dict-backed
grouping through :func:`~repro.common.records.first_occurrence`, our regex
engine and AES); this model supplies the simulated wall-clock those
computations would take on the paper's Xeon Gold testbed.  How the host
computes a result never feeds a charge: the hash map this model prices is
the paper's, of which :func:`~repro.baselines.sw_ops.map_resizes` keeps
the growth rule.  Constants live in
:mod:`repro.common.calibration` with provenance notes.

Multi-process interference (Figure 12): when ``active_clients`` processes
run on one socket, each process's effective memory bandwidth shrinks both
by LLC/DRAM contention (the interference factor) and by the hard socket
bandwidth ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..common import calibration as cal
from ..common.config import CpuConfig
from ..common.errors import ConfigurationError


@dataclass
class CostBreakdown:
    """Named time components of one baseline execution (ns)."""

    parts: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value_ns: float) -> None:
        if value_ns < 0:
            raise ConfigurationError(f"negative cost {name}: {value_ns}")
        self.parts[name] = self.parts.get(name, 0.0) + value_ns

    @property
    def total_ns(self) -> float:
        return sum(self.parts.values())

class CpuCostModel:
    """Time formulas for the software baselines."""

    def __init__(self, config: CpuConfig | None = None,
                 active_clients: int = 1):
        if active_clients <= 0:
            raise ConfigurationError(
                f"active_clients must be positive: {active_clients}")
        self.config = config if config is not None else CpuConfig()
        self.active_clients = active_clients

    # -- bandwidth under contention ------------------------------------------------
    def _contended(self, solo_bandwidth: float) -> float:
        n = self.active_clients
        cfg = self.config
        interfered = solo_bandwidth / (1 + cfg.interference_factor * (n - 1))
        fair_share = cfg.socket_dram_bandwidth / n
        return min(interfered, fair_share) if n > 1 else interfered

    @property
    def read_bandwidth(self) -> float:
        return self._contended(self.config.dram_read_bandwidth)

    @property
    def write_bandwidth(self) -> float:
        return self._contended(self.config.dram_write_bandwidth)

    # -- component times ---------------------------------------------------------------
    def setup_ns(self) -> float:
        return self.config.query_setup_ns

    def read_ns(self, nbytes: int) -> float:
        """Streaming read of cold data from DRAM (the paper stresses the
        baselines 'read the data from DRAM and not from cache', §6.4)."""
        return nbytes / self.read_bandwidth

    def write_ns(self, nbytes: int) -> float:
        return nbytes / self.write_bandwidth

    def select_ns(self, num_tuples: int) -> float:
        return num_tuples * self.config.select_cost_per_tuple_ns

    def hash_ns(self, num_tuples: int, growing: bool) -> float:
        """Hash-probe cost; ``growing`` adds the resize amortization the
        paper blames for the baselines' slowdown on DISTINCT (§6.5)."""
        per_tuple = self.config.hash_cost_per_tuple_ns
        if growing:
            per_tuple += self.config.hash_resize_cost_per_tuple_ns
        return num_tuples * per_tuple

    def aggregate_update_ns(self, num_tuples: int) -> float:
        return num_tuples * cal.CPU_AGG_UPDATE_COST_PER_TUPLE_NS

    def sort_ns(self, num_tuples: int) -> float:
        """Comparison sort at n·log2(n) key comparisons (ORDER BY)."""
        if num_tuples <= 1:
            return 0.0
        return (num_tuples * math.log2(num_tuples)
                * self.config.select_cost_per_tuple_ns)

    def regex_ns(self, nbytes: int) -> float:
        """RE2 scan cost over the string payload (§6.6)."""
        return nbytes * self.config.re2_cost_per_byte_ns

    def aes_ns(self, nbytes: int) -> float:
        """Cryptopp AES-CTR cost (§6.7)."""
        return nbytes * self.config.aes_cost_per_byte_ns

    def two_sided_ns(self) -> float:
        """Software RPC round-trip overhead for the RCPU baseline."""
        return self.config.two_sided_overhead_ns
