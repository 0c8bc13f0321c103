"""Ablations: each flips one architectural knob the paper motivates and
checks the direction of its effect on a warm offloaded query.

* memory **channel count** / striping (§4.4: striping "maximizes the
  available bandwidth to each dynamic region"),
* **credit window** of the flow control (§4.3),
* network **packet size** (header amortization),
* MMU **burst size** (overlap granularity between memory and network),
* **vectorization lanes** vs selectivity (§5.3),
* the §7 **small-table join** offload vs shipping both tables.
"""

import numpy as np
import pytest

from repro.common.config import FarviewConfig, MemoryConfig, NetworkConfig
from repro.common.records import Column, Schema, default_schema
from repro.common.units import KB, MB
from repro.core.query import JoinSpec, Query, select_star
from repro.core.table import FTable
from repro.experiments.common import make_bench, run_query_warm, upload_table
from repro.workloads.generator import make_rows, selection_workload


def _fv_select_time(config: FarviewConfig, selectivity: float = 1.0,
                    vectorized: bool = False, burst: int | None = None) -> float:
    bench = make_bench(config)
    if burst is not None:
        bench.node.mmu.burst_bytes = burst
    wl = selection_workload(8192, selectivity)
    table = upload_table(bench, "S", wl.schema, wl.rows)
    _, elapsed = run_query_warm(
        bench, table, select_star(wl.predicate, vectorized=vectorized))
    return elapsed


def _config(channels=2, packet=1 * KB, credits=32) -> FarviewConfig:
    return FarviewConfig(
        memory=MemoryConfig(channels=channels, channel_capacity=32 * MB),
        network=NetworkConfig(packet_size=packet, initial_credits=credits))


def test_more_memory_channels_speed_up_vectorized_scans():
    """More striped channels -> faster vectorized scans (§4.4)."""
    times = {channels: _fv_select_time(_config(channels=channels),
                                       selectivity=0.25, vectorized=True)
             for channels in (1, 2, 4)}
    assert times[2] < times[1]
    assert times[4] <= times[2] * 1.05  # saturates once network-bound


def test_a_starved_credit_window_serializes_packets():
    """Starved flow control serializes packet delivery (§4.3)."""
    times = {credits: _fv_select_time(_config(credits=credits))
             for credits in (1, 4, 32)}
    assert times[1] > times[4] >= times[32]


def test_small_packets_waste_goodput_on_headers():
    """Small packets waste goodput on headers; 1 kB+ amortizes them."""
    times = {packet: _fv_select_time(_config(packet=packet))
             for packet in (256, 1 * KB, 4 * KB)}
    assert times[256] > times[1 * KB] >= times[4 * KB] * 0.9


def test_tiny_mmu_bursts_pay_per_burst_latency():
    """Tiny MMU bursts pay per-burst latency next to the default 16 kB."""
    config = FarviewConfig(
        memory=MemoryConfig(channels=2, channel_capacity=32 * MB))
    times = {burst: _fv_select_time(config, burst=burst)
             for burst in (1 * KB, 16 * KB)}
    assert times[1 * KB] > times[16 * KB]


def test_vectorization_pays_only_below_the_network_bound():
    """Vectorization pays off only below the network-bound regime (§5.3)."""
    ratios = {selectivity: (_fv_select_time(_config(), selectivity)
                            / _fv_select_time(_config(), selectivity,
                                              vectorized=True))
              for selectivity in (1.0, 0.25)}
    assert ratios[1.0] == pytest.approx(1.0, abs=0.15)
    assert ratios[0.25] >= 1.4


def test_join_offload_beats_shipping_both_tables():
    """§7 join: offloading avoids shipping the fact table to the client."""
    bench = make_bench()
    dim_schema = Schema([Column("id", "int64"), Column("rate", "float64")])
    dim = dim_schema.empty(64)
    dim["id"] = np.arange(64)
    dim["rate"] = np.arange(64) * 0.5
    dim_table = FTable("dim", dim_schema, len(dim))
    bench.client.alloc_table_mem(dim_table)
    bench.client.table_write(dim_table, dim)

    fact = make_rows(default_schema(), 8192)
    fact["a"] = np.arange(8192) % 256  # 25% of keys match the dim
    fact_table = FTable("fact", default_schema(), len(fact))
    bench.client.alloc_table_mem(fact_table)
    bench.client.table_write(fact_table, fact)

    join = Query(join=JoinSpec(dim_table, "id", "a", ("rate",)))
    result, t_offload = run_query_warm(bench, fact_table, join)
    # The alternative: ship both tables raw and join on the client.
    _, t_fact = bench.client.table_read(fact_table)
    _, t_dim = bench.client.table_read(dim_table)
    assert result.report.bytes_shipped < fact_table.size_bytes
    assert t_offload < t_fact + t_dim
