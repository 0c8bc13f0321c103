"""Memory management unit: virtualization, translation, isolation (§4.4).

The MMU owns the page tables for every *protection domain* (one per client
connection / dynamic region), a TLB, and the striped physical allocator.
It keeps the bytes in one unstriped :class:`FrameStore` and charges the
channels' bandwidth pipes their stripe share for timed accesses.

Key properties modelled from the paper:

* naturally aligned 2 MB pages, TLB held in BRAM (§4.4);
* memory striped across channels so every region sees aggregate bandwidth;
* isolation: a domain can only translate addresses it allocated
  (:class:`~repro.common.errors.ProtectionFault` otherwise);
* multiple outstanding requests, decoupled read/write channels;
* large timed accesses are split into bursts so concurrent domains
  interleave on the channel pipes (fair sharing, exercised by Figure 12).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from ..common.config import MemoryConfig
from ..common.errors import MemoryError_, OutOfMemoryError, ProtectionFault, TranslationFault
from ..sim.engine import Event, Simulator
from ..sim.resources import BandwidthPipe
from .allocator import StripedAllocator
from .dram import DramChannel, FrameStore, build_channels

#: Timed accesses are chopped into bursts of this many bytes so that
#: concurrent domains interleave on the channel pipes.
DEFAULT_BURST_BYTES = 16 * 1024


class Tlb:
    """LRU translation lookaside buffer over (domain, virtual page) keys."""

    def __init__(self, entries: int = 512):
        if entries <= 0:
            raise MemoryError_(f"TLB needs >= 1 entry, got {entries}")
        self.entries = entries
        self._map: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, domain: int, vpage: int) -> int | None:
        key = (domain, vpage)
        frame = self._map.get(key)
        if frame is None:
            self.misses += 1
            return None
        self._map.move_to_end(key)
        self.hits += 1
        return frame

    def fill(self, domain: int, vpage: int, frame: int) -> None:
        key = (domain, vpage)
        self._map[key] = frame
        self._map.move_to_end(key)
        while len(self._map) > self.entries:
            self._map.popitem(last=False)

    def invalidate_domain(self, domain: int) -> None:
        stale = [k for k in self._map if k[0] == domain]
        for key in stale:
            del self._map[key]


class Mmu:
    """Page tables + TLB + the frame store, timed on the DRAM channels."""

    def __init__(self, sim: Simulator, config: MemoryConfig,
                 burst_bytes: int = DEFAULT_BURST_BYTES):
        if burst_bytes <= 0 or burst_bytes % config.stripe_unit:
            raise MemoryError_(
                f"burst_bytes must be a positive multiple of the stripe "
                f"unit, got {burst_bytes}")
        self.sim = sim
        self.config = config
        self.channels: list[DramChannel] = build_channels(sim, config)
        self.allocator = StripedAllocator(config)
        self.store = FrameStore(config.page_size, self.allocator.total_pages)
        self._read_pipes = [c.read_pipe for c in self.channels]
        self._write_pipes = [c.write_pipe for c in self.channels]
        self.tlb = Tlb()
        self.burst_bytes = burst_bytes
        #: Per domain: virtual page -> page frame index.
        self._page_tables: dict[int, dict[int, int]] = {}
        #: Per domain: vaddr -> the virtual pages allocated there.
        self._allocations: dict[int, dict[int, range]] = {}
        self._next_vpage: dict[int, int] = {}
        self.translation_ns_accumulated = 0.0

    # -- domains ---------------------------------------------------------------
    def create_domain(self, domain: int) -> None:
        if domain in self._page_tables:
            raise MemoryError_(f"domain {domain} already exists")
        self._page_tables[domain] = {}
        self._allocations[domain] = {}
        self._next_vpage[domain] = 0

    @property
    def domains(self):
        return self._page_tables.keys()

    def destroy_domain(self, domain: int) -> None:
        self._require_domain(domain)
        for vaddr in list(self._allocations[domain]):
            self.free(domain, vaddr)
        del self._page_tables[domain]
        del self._allocations[domain]
        del self._next_vpage[domain]
        self.tlb.invalidate_domain(domain)

    def _require_domain(self, domain: int) -> None:
        if domain not in self._page_tables:
            raise ProtectionFault(f"unknown protection domain {domain}")

    # -- allocation --------------------------------------------------------------
    def alloc(self, domain: int, nbytes: int) -> int:
        """Allocate ``nbytes`` of virtual memory; returns the vaddr."""
        self._require_domain(domain)
        if nbytes <= 0:
            raise MemoryError_(f"allocation size must be positive: {nbytes}")
        page_size = self.config.page_size
        npages = (nbytes + page_size - 1) // page_size
        if npages > self.allocator.free_pages:
            raise OutOfMemoryError(
                f"need {npages} pages, only {self.allocator.free_pages} free")
        first = self._next_vpage[domain]
        self._next_vpage[domain] = first + npages
        pages = range(first, first + npages)
        table = self._page_tables[domain]
        for vpage in pages:
            # Fresh allocations read as zero, and no data leaks across
            # protection domains when frames are reused.
            table[vpage] = frame = self.allocator.allocate_page()
            self.store.zero(frame)
        self._allocations[domain][first * page_size] = pages
        return first * page_size

    def free(self, domain: int, vaddr: int) -> None:
        self._require_domain(domain)
        pages = self._allocations[domain].pop(vaddr, None)
        if pages is None:
            raise MemoryError_(
                f"domain {domain}: no allocation at vaddr {vaddr:#x}")
        table = self._page_tables[domain]
        for vpage in pages:
            self.allocator.free_page(table.pop(vpage))
        self.tlb.invalidate_domain(domain)

    # -- translation --------------------------------------------------------------
    def translate_range(self, domain: int, vaddr: int, length: int,
                        landed: Callable[[int], None] | None = None) -> float:
        """Translate every page ``[vaddr, +length)`` touches through the
        TLB, in one frame: fault-checked, probed (the latency returned is
        each page's hit or miss as the TLB stood before), then looked up
        and filled page by page.  With ``landed`` it is one burst of a
        streamed read: after that latency every channel is charged its
        stripe share, and ``landed(length)`` runs when the slowest is
        done."""
        table = self._page_tables.get(domain)
        if table is None or vaddr < 0 or length <= 0:
            # The fault, or an empty access's check of the page at vaddr.
            table = self.check_bounds(domain, vaddr, length)
        config, tlb = self.config, self.tlb
        size = config.page_size
        pages = range(vaddr // size, (vaddr + length - 1) // size + 1) if length else ()
        hit, miss, cached = config.tlb_hit_ns, config.tlb_miss_ns, tlb._map
        translation = 0.0
        for vpage in pages:     # fault-checked, probed (no stats, no LRU)
            if vpage not in table:
                self.check_bounds(domain, vaddr, length)
            translation += hit if (domain, vpage) in cached else miss
        for vpage in pages:
            if tlb.lookup(domain, vpage) is None:
                tlb.fill(domain, vpage, table[vpage])
                self.translation_ns_accumulated += miss
            else:
                self.translation_ns_accumulated += hit
        if landed is not None:
            self._charge(translation, length, self._read_pipes, landed)
        return translation

    def check_bounds(self, domain: int, vaddr: int, length: int) -> dict:
        """Fault an access outside ``domain``'s mapped pages, off the
        page table alone (untimed, the TLB left alone); returns the
        domain's page table."""
        table = self._page_tables.get(domain)
        if table is None:
            raise ProtectionFault(f"unknown protection domain {domain}")
        if vaddr < 0 or length < 0:
            raise MemoryError_(f"bad access ({vaddr:#x}, {length})")
        page_size = self.config.page_size
        for vpage in range(vaddr // page_size, (vaddr + max(length, 1) - 1) // page_size + 1):
            if vpage not in table:
                raise TranslationFault(
                    f"domain {domain}: access [{vaddr:#x}, +{length}) touches "
                    f"unmapped page {vpage}")
        return table

    # -- functional data path ------------------------------------------------------
    def image(self, domain: int, vaddr: int,
              length: int) -> bytes | memoryview:
        """Untimed read of a virtual range, off the page table (the TLB
        is left alone: timed bursts translate their own pages).  Over
        consecutive page frames it is a read-only view of the frame store,
        which shows later writes, so a caller keeping the bytes past its
        callback takes ``bytes(...)`` of it; else a join of its pages."""
        table = self.check_bounds(domain, vaddr, length)
        size = self.config.page_size
        first, offset = divmod(vaddr, size)
        frames = [table[v] for v in range(first, (vaddr + max(length, 1) - 1) // size + 1)]
        if frames == list(range(frames[0], frames[0] + len(frames))):
            return self.store.view(frames[0] * size + offset, length)
        spans = [self.store.view(frame * size, size) for frame in frames]
        spans[-1] = spans[-1][:(offset + length - 1) % size + 1]
        spans[0] = spans[0][offset:]
        return b"".join(spans)

    def poke(self, domain: int, vaddr: int, data: bytes | memoryview) -> float:
        """Untimed write of a virtual range, translated through the TLB
        (:meth:`translate_range`); returns that translation's latency."""
        src = np.frombuffer(data, dtype=np.uint8)
        translation = self.translate_range(domain, vaddr, len(src))
        size, table = self.config.page_size, self._page_tables[domain]
        cursor = 0
        while cursor < len(src):
            vpage, offset = divmod(vaddr + cursor, size)
            span = src[cursor:cursor + size - offset]
            self.store.write(table[vpage], offset, span)
            cursor += len(span)
        return translation

    # -- timed data path -------------------------------------------------------------
    def read(self, domain: int, vaddr: int, length: int) -> Event:
        """Timed striped read; the event fires with ``length``.

        Charge only — :meth:`image` holds the bytes.  The request is
        translated (TLB hit or miss per page touched) and fault-checked
        now; from the next loop slot it waits out the translation, then
        its bursts go one after the other, each charging every channel
        its stripe share and done when the slowest channel is.
        """
        translation = self.translate_range(domain, vaddr, length)
        done = self.sim.event()
        self.sim._immediate(self._charge, translation, length,
                            self._read_pipes, done.succeed)
        return done

    def write(self, domain: int, vaddr: int, data: bytes) -> Event:
        """Timed striped write; event fires when the last burst lands."""
        translation = self.poke(domain, vaddr, data)
        done = self.sim.event()
        self.sim._immediate(self._charge, translation, len(data),
                            self._write_pipes, done.succeed)
        return done

    def _charge(self, translation: float, length: int,
                pipes: list[BandwidthPipe],
                landed: Callable[[int], None]) -> None:
        if translation:
            self.sim.schedule(translation, self._burst, 0, length, pipes,
                              landed)
        else:
            self._burst(0, length, pipes, landed)

    def _burst(self, cursor: int, length: int, pipes: list[BandwidthPipe],
               landed: Callable[[int], None]) -> None:
        if cursor >= length:
            landed(length)
            return
        burst = min(self.burst_bytes, length - cursor)
        per_channel = self.allocator.channel_extent(burst)
        sizes, done = (per_channel,), 0.0
        for pipe in pipes:
            delay = pipe.occupy_each(sizes)
            if delay > done:
                done = delay
        if cursor + burst < length:
            self.sim.schedule(done, self._burst, cursor + burst, length,
                              pipes, landed)
        else:
            self.sim.schedule(done, landed, length)

    # -- introspection ------------------------------------------------------------
    @property
    def bytes_read(self) -> int:
        return sum(c.bytes_read for c in self.channels)

    @property
    def bytes_written(self) -> int:
        return sum(c.bytes_written for c in self.channels)

    def domain_pages(self, domain: int) -> int:
        self._require_domain(domain)
        return len(self._page_tables[domain])
