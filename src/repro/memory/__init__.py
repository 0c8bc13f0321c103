"""Memory stack: DRAM channels, striped allocation, MMU with TLB (§4.4).

The node's DRAM is the disaggregated buffer pool: tables live in it, and
the operators run beside it.
"""

from .allocator import PageFrames, StripedAllocator
from .dram import DramChannel, build_channels
from .mmu import Mmu, Tlb

__all__ = [
    "PageFrames",
    "StripedAllocator",
    "DramChannel",
    "build_channels",
    "Mmu",
    "Tlb",
]
