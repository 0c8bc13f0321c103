"""Calibration constants for the timing models.

Every constant is annotated with its provenance: either a number stated in
the Farview paper (cited by section/figure) or a value chosen so the
simulated curves reproduce the *shape* of the paper's measured curves
(orderings, ratios, crossovers).  Absolute microseconds are not the target —
the authors ran on an Alveo u250 + ConnectX-5 testbed, we run a simulator.

Constants are grouped by subsystem.  :mod:`repro.common.config` exposes them
as dataclass defaults so experiments can override any of them.
"""

from __future__ import annotations

from .units import GBPS, KB, MB, US, gbit, mhz_cycle_ns

# ---------------------------------------------------------------------------
# Network (paper §4.3, §6.2, Figure 6)
# ---------------------------------------------------------------------------

#: Line rate of the 100 Gbps RoCE v2 link (paper §1, §6.1). 12.5 B/ns raw.
NETWORK_LINE_RATE = gbit(100.0)

#: Packet payload size used throughout the evaluation (paper §6.2: "We set
#: the packet size to 1 kB").
PACKET_SIZE = 1 * KB

#: RoCE v2 per-packet header overhead: Eth(14+4) + IP(20) + UDP(8) + BTH(12)
#: + RETH(16) + ICRC(4) ≈ 78 bytes; rounded to 80 for inter-frame gap share.
PACKET_HEADER_OVERHEAD = 80

#: One-way propagation + switch latency inside the XACC cluster (single
#: switch hop).  Chosen so small-transfer RTTs land in the 2-3 us band of
#: Figure 6(b).
LINK_ONE_WAY_LATENCY_NS = 750.0

#: Fixed processing *latency* of the FPGA network stack per request
#: (request parsing, QP lookup, response generation) — the pipeline depth a
#: request traverses on the 250 MHz softcore stack.  Higher than the
#: commercial NIC's, which is why RNIC wins response time at small
#: transfers (Fig 6(b) discussion).
FV_NIC_REQUEST_OVERHEAD_NS = 1_200.0

#: Per-request *occupancy* of the request engine (issue rate limit).  The
#: stack is deeply pipelined, so requests can be accepted far faster than
#: any single one completes.
FV_REQUEST_ISSUE_NS = 100.0

#: Per-packet processing *occupancy* in the FPGA network stack's send path.
#: Zero: the 64 B x 250 MHz datapath (16 GBps) outruns the 100 Gbps line
#: rate, so per-packet work pipelines entirely behind wire serialization
#: ("operator processing overhead can be efficiently hidden", §5.1) and FV
#: reads peak at wire goodput (~12 GBps, Fig 6(a)).
FV_PER_PACKET_OVERHEAD_NS = 0.0

#: Per-packet overhead of the commercial NIC's *latency* path, including
#: per-packet PCIe fetch handling ("the multi-packet processing and page
#: handling in the FPGA network stack performs better", Fig 6(b)).
#: Calibrated so FV's response-time advantage at 32 kB reaches the
#: paper's ">= 20%" while RNIC stays ahead below ~4 kB.
RNIC_PER_PACKET_OVERHEAD_NS = 160.0

#: Per-packet cost on the RNIC's *pipelined* (throughput) path — DMA
#: engines overlap fetches, so the sustained cost is lower.
RNIC_PIPELINED_PER_PACKET_NS = 90.0

#: Fixed request latency of the commercial NIC path (doorbell, WQE fetch).
RNIC_REQUEST_OVERHEAD_NS = 400.0

#: Per-request issue occupancy of the commercial NIC.
RNIC_REQUEST_ISSUE_NS = 50.0

#: PCIe Gen3 x16 effective bandwidth cap for the RNIC path (Fig 6(a):
#: "throughput peaks at ~11 GBps because it is bound by the PCIe bus").
RNIC_PCIE_BANDWIDTH = 11.0 * GBPS

#: Extra first-access latency for crossing PCIe to host DRAM on the RNIC
#: path (Fig 6(b): "The difference during reads is ~1 us, consistent with
#: PCIe latencies"; DMA pipelining hides part of it).
RNIC_PCIE_LATENCY_NS = 700.0

#: Outstanding-request window used by the throughput microbenchmarks
#: (standard RDMA read benchmarking practice; paper §6.2 saturates the
#: network by varying transfer size under a fixed in-flight window).
THROUGHPUT_WINDOW = 16

#: Per-request overhead of a scattered (non-sequential) DRAM access, used
#: by the smart-addressing timing model: bank activate/precharge for each
#: discrete column request (§5.2).  Calibrated so the Figure 7 crossover
#: between standard projection and smart addressing falls between 256 B
#: and 512 B tuples, as the paper reports.
SA_REQUEST_OVERHEAD_NS = 30.0

#: Peak effective throughput of FV reads ("Reading from local on-board FPGA
#: memory peaks at 12 GBps", Fig 6(a)).  Emerges from line rate minus header
#: overhead; kept as an assertion anchor for tests.
FV_PEAK_READ_GBPS = 12.0

# ---------------------------------------------------------------------------
# Memory stack (paper §4.4, §6.1)
# ---------------------------------------------------------------------------

#: Theoretical bandwidth of one on-board DRAM channel (paper §4.4: 64 B wide
#: controller at 300 MHz -> ~18 GBps; §6.1 repeats "maximum theoretical
#: bandwidth of 18GB/s").
DRAM_CHANNEL_BANDWIDTH = 18.0 * GBPS

#: Sustained fraction of theoretical DRAM bandwidth (row misses, refresh).
DRAM_EFFICIENCY = 0.90

#: DRAM access latency for the first beat of a burst (CAS + controller).
DRAM_ACCESS_LATENCY_NS = 90.0

#: Number of channels used in the paper's experiments (§6.1: "we used two of
#: the four available channels").
DRAM_CHANNELS = 2

#: Capacity per channel (§6.1 hardware: 16 GB per channel).  The simulator
#: backs channels with real bytearrays, so the default is sized for the
#: paper's working sets (tables up to a few MB, six concurrent clients);
#: experiments that need more override it.
DRAM_CHANNEL_CAPACITY = 64 * MB

#: MMU page size (§4.4: "naturally aligned 2 MB pages").
PAGE_SIZE = 2 * MB

#: Memory-stack clock (§4.1: 300 MHz).
MEMORY_CLOCK_MHZ = 300.0

#: TLB hit latency (BRAM lookup, one memory-clock cycle) and miss penalty.
TLB_HIT_LATENCY_NS = mhz_cycle_ns(MEMORY_CLOCK_MHZ)
TLB_MISS_PENALTY_NS = 12 * mhz_cycle_ns(MEMORY_CLOCK_MHZ)

# ---------------------------------------------------------------------------
# Operator stack / FPGA fabric (paper §4.1, §4.5, §5)
# ---------------------------------------------------------------------------

#: Operator and network stack clock (§4.1: 250 MHz).
OPERATOR_CLOCK_MHZ = 250.0

#: Datapath width into/out of a dynamic region (§4.5: 64-byte datapath,
#: 512 bit * N_DDR_CHAN into the region).
DATAPATH_BYTES = 64

#: Number of dynamic regions deployed in the evaluation (§6.1).
DYNAMIC_REGIONS = 6

#: Pipeline fill latency of a typical operator pipeline, in operator-clock
#: cycles (deep pipelining, §4.1).
PIPELINE_FILL_CYCLES = 48

#: Partial reconfiguration time for a dynamic region (§3.2: "on the order of
#: milliseconds").
RECONFIGURATION_TIME_NS = 4.0 * 1e6  # 4 ms

#: Latency added by the group-by flush phase per group entry (hash-table
#: lookup + queue pop + send preparation), in operator cycles.
GROUPBY_FLUSH_CYCLES_PER_GROUP = 4

#: LRU shift-register depth (one slot per cuckoo table; §5.4: latency
#: "depends on the number of cuckoo hash tables").
LRU_CACHE_DEPTH_PER_TABLE = 4

#: Number of cuckoo hash tables looked up in parallel (§5.4).
CUCKOO_TABLES = 4

#: Capacity of each on-chip cuckoo hash table in entries.  BRAM-bounded; the
#: paper's multi-client experiment keeps distinct counts small.
CUCKOO_TABLE_SLOTS = 16_384

#: Maximum evictions followed before an insert overflows to the client.
CUCKOO_MAX_KICKS = 32

# ---------------------------------------------------------------------------
# CPU baselines (paper §6.1: Xeon 6248 @3.0-3.7 GHz local, Xeon 6154 remote)
# ---------------------------------------------------------------------------

#: Single-thread streaming read bandwidth from DRAM (cold cache).  A Xeon
#: Gold sustains ~12-15 GBps per core on streaming loads.
CPU_DRAM_READ_BANDWIDTH = 12.0 * GBPS

#: Single-thread streaming write bandwidth to DRAM (write allocate makes
#: writes cost roughly 2x reads per byte moved).
CPU_DRAM_WRITE_BANDWIDTH = 8.0 * GBPS

#: Fixed software overhead per query invocation (syscall-free hot loop, but
#: timer reads, setup of output buffers).  Keeps small-input LCPU times in
#: the tens-of-us band of Figures 8-9.
CPU_QUERY_SETUP_NS = 15_000.0

#: Per-tuple cost of the scalar selection/projection loop (predicate eval,
#: branch, copy decision) on the local CPU.
CPU_SELECT_COST_PER_TUPLE_NS = 1.6

#: Per-tuple cost of hashing + hash-map probe/insert (parallel-hashmap,
#: "very fast hash map library", §6.5) when the map fits in cache.
CPU_HASH_COST_PER_TUPLE_NS = 12.0

#: Amortized extra per-tuple cost from hash-map growth/rehashing when the
#: number of resident entries keeps growing (Fig 9(a): "memory resizing of
#: the hash table as more elements are added").  Charged when the paper's
#: map would have grown at all (``sw_ops.map_resizes`` of the distinct-key
#: count); the host's own grouping kernel keeps no map to instrument.
CPU_HASH_RESIZE_COST_PER_TUPLE_NS = 16.0

#: Per-tuple cost of updating aggregate state in a group-by (on top of the
#: hash probe): read-modify-write of the accumulator fields.
CPU_AGG_UPDATE_COST_PER_TUPLE_NS = 10.0

#: RE2 matching cost per input byte (LCPU baseline, §6.6).  RE2 streams at
#: roughly 0.7-1.4 GB/s for simple patterns on one core.
CPU_RE2_COST_PER_BYTE_NS = 1.0

#: Cryptopp AES-128-CTR cost per byte on one core without AES-NI pipelining
#: losses (~1.3 GB/s effective with cold data, §6.7).
CPU_AES_COST_PER_BYTE_NS = 0.75

#: Two-sided RDMA software round-trip overhead on the RCPU baseline
#: (request post, completion polling on both sides).
RCPU_TWO_SIDED_OVERHEAD_NS = 3_500.0

#: Multi-process interference factor per additional active CPU client
#: sharing DRAM + LLC (Fig 12 discussion).  Effective bandwidth of each
#: process is divided by (1 + factor * (nclients - 1)).
CPU_INTERFERENCE_FACTOR = 0.55

#: Aggregate DRAM bandwidth of the CPU socket shared by all processes.
CPU_SOCKET_DRAM_BANDWIDTH = 40.0 * GBPS

# ---------------------------------------------------------------------------
# Reporting anchors used by tests (paper-quoted values)
# ---------------------------------------------------------------------------

#: Figure 6(b) anchor: FV response-time advantage at large transfers >= 20 %.
FV_LARGE_TRANSFER_LATENCY_ADVANTAGE = 0.20

#: TPC-H Q6 selectivity quoted in §5.3 ("only 2% of the data is finally
#: selected").
TPCH_Q6_SELECTIVITY = 0.02

#: Small-transfer regime where RNIC beats FV (Fig 6: "Below 4 kB ... RNIC
#: achieves better throughput").
RNIC_ADVANTAGE_BELOW_BYTES = 4 * KB


def reconfiguration_latency_ns(region_fraction: float = 1.0) -> float:
    """Partial-reconfiguration time scaled by relative region size.

    The paper notes the swap takes milliseconds "depending on the size of
    the region" (§3.2).
    """
    if not 0.0 < region_fraction <= 1.0:
        raise ValueError(f"region_fraction out of (0, 1]: {region_fraction}")
    return RECONFIGURATION_TIME_NS * region_fraction
