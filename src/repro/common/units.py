"""Unit constants and conversion helpers.

All simulated time is kept in **nanoseconds** (float) and all data sizes in
**bytes** (int).  Bandwidths are expressed in bytes per nanosecond, which is
numerically identical to gigabytes per second (1 GB/ns-scale convenience):

    1 GB/s = 1e9 B / 1e9 ns = 1.0 B/ns

Keeping one canonical unit per dimension avoids the classic simulation bug of
mixing microseconds and nanoseconds halfway through a pipeline.
"""

from __future__ import annotations

# --- time (canonical unit: nanosecond) -------------------------------------
NS = 1.0
US = 1_000.0
MS = 1_000_000.0
S = 1_000_000_000.0

# --- size (canonical unit: byte) --------------------------------------------
B = 1
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

# --- bandwidth (canonical unit: bytes per nanosecond == GB/s) ---------------
GBPS = 1.0  # 1 GB/s == 1 byte/ns
MBPS = 1.0 / 1024.0

# 100 Gbit/s expressed in bytes per nanosecond (decimal gigabits, as used for
# network line rates): 100e9 bit/s = 12.5e9 B/s = 12.5 B/ns.
GBIT_PER_S = 1e9 / 8 / 1e9  # bytes/ns per Gbit/s


def gbit(rate_gbit_per_s: float) -> float:
    """Convert a network line rate in Gbit/s to bytes/ns."""
    return rate_gbit_per_s * GBIT_PER_S


def to_us(time_ns: float) -> float:
    """Convert nanoseconds to microseconds (for reporting)."""
    return time_ns / US


def mhz_cycle_ns(freq_mhz: float) -> float:
    """Clock period in nanoseconds for a frequency in MHz."""
    if freq_mhz <= 0:
        raise ValueError(f"non-positive frequency: {freq_mhz}")
    return 1_000.0 / freq_mhz
