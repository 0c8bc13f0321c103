"""Memory management unit: virtualization, translation, isolation (§4.4).

The MMU owns the page tables for every *protection domain* (one per client
connection / dynamic region), a TLB, and the striped physical allocator.
It routes functional data through the :class:`DramChannel` backing stores
and charges the channels' bandwidth pipes for timed accesses.

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
from dataclasses import dataclass, field

import numpy as np

from ..common.config import MemoryConfig
from ..common.errors import MemoryError_, OutOfMemoryError, ProtectionFault, TranslationFault
from ..sim.engine import Event, Simulator
from .allocator import PageFrames, StripedAllocator
from .dram import DramChannel, build_channels

#: Timed accesses are chopped into bursts of this many bytes so that
#: concurrent domains interleave on the channel pipes.
DEFAULT_BURST_BYTES = 16 * 1024


class Tlb:
    """LRU translation lookaside buffer over (domain, virtual page) keys."""

    def __init__(self, entries: int = 512):
        if entries <= 0:
            raise MemoryError_(f"TLB needs >= 1 entry, got {entries}")
        self.entries = entries
        self._map: OrderedDict[tuple[int, int], PageFrames] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, domain: int, vpage: int) -> PageFrames | None:
        key = (domain, vpage)
        frames = self._map.get(key)
        if frames is None:
            self.misses += 1
            return None
        self._map.move_to_end(key)
        self.hits += 1
        return frames

    def fill(self, domain: int, vpage: int, frames: PageFrames) -> None:
        key = (domain, vpage)
        self._map[key] = frames
        self._map.move_to_end(key)
        while len(self._map) > self.entries:
            self._map.popitem(last=False)

    def contains(self, domain: int, vpage: int) -> bool:
        """Non-mutating residency probe (no stats, no LRU promotion)."""
        return (domain, vpage) in self._map

    def invalidate_domain(self, domain: int) -> None:
        stale = [k for k in self._map if k[0] == domain]
        for key in stale:
            del self._map[key]


@dataclass
class _Allocation:
    """One virtual allocation: contiguous vaddr range over whole pages."""

    vaddr: int
    nbytes: int
    pages: list[int] = field(default_factory=list)  # virtual page numbers


class Mmu:
    """Page tables + TLB + striped data path over the DRAM channels."""

    def __init__(self, sim: Simulator, config: MemoryConfig,
                 tlb_entries: int = 512,
                 burst_bytes: int = DEFAULT_BURST_BYTES):
        if burst_bytes <= 0 or burst_bytes % config.stripe_unit:
            raise MemoryError_(
                f"burst_bytes must be a positive multiple of the stripe "
                f"unit, got {burst_bytes}")
        self.sim = sim
        self.config = config
        self.channels: list[DramChannel] = build_channels(sim, config)
        self.allocator = StripedAllocator(config)
        self.tlb = Tlb(tlb_entries)
        self.burst_bytes = burst_bytes
        self._page_tables: dict[int, dict[int, PageFrames]] = {}
        self._allocations: dict[int, dict[int, _Allocation]] = {}
        self._next_vpage: dict[int, int] = {}
        self.translation_ns_accumulated = 0.0

    # -- domains ---------------------------------------------------------------
    def create_domain(self, domain: int) -> None:
        if domain in self._page_tables:
            raise MemoryError_(f"domain {domain} already exists")
        self._page_tables[domain] = {}
        self._allocations[domain] = {}
        self._next_vpage[domain] = 0

    def has_domain(self, domain: int) -> bool:
        return domain in self._page_tables

    def destroy_domain(self, domain: int) -> None:
        self._require_domain(domain)
        for alloc in list(self._allocations[domain].values()):
            self.free(domain, alloc.vaddr)
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
        first_vpage = self._next_vpage[domain]
        alloc = _Allocation(vaddr=first_vpage * page_size, nbytes=nbytes)
        table = self._page_tables[domain]
        slice_size = self.allocator.slice_size
        # Scrub recycled frames: fresh allocations read as zero, and no
        # data leaks across protection domains when pages are reused.  A
        # frame never handed out before reads zero as it is, and storing
        # into it would only make the host back it with real memory.
        recycled_below = self.allocator.high_water * slice_size
        for i in range(npages):
            vpage = first_vpage + i
            frames = self.allocator.allocate_page()
            if frames.slice_offsets[0] < recycled_below:
                for channel, offset in zip(self.channels,
                                           frames.slice_offsets):
                    channel.store_slice(offset, slice_size)[:] = 0
            table[vpage] = frames
            alloc.pages.append(vpage)
        self._next_vpage[domain] = first_vpage + npages
        self._allocations[domain][alloc.vaddr] = alloc
        return alloc.vaddr

    def free(self, domain: int, vaddr: int) -> None:
        self._require_domain(domain)
        alloc = self._allocations[domain].pop(vaddr, None)
        if alloc is None:
            raise MemoryError_(
                f"domain {domain}: no allocation at vaddr {vaddr:#x}")
        table = self._page_tables[domain]
        for vpage in alloc.pages:
            self.allocator.free_page(table.pop(vpage))
        self.tlb.invalidate_domain(domain)

    # -- translation --------------------------------------------------------------
    def translate(self, domain: int, vaddr: int) -> tuple[PageFrames, int, float]:
        """Translate one address; returns (frames, page_offset, latency_ns)."""
        self._require_domain(domain)
        page_size = self.config.page_size
        vpage, page_offset = divmod(vaddr, page_size)
        frames = self.tlb.lookup(domain, vpage)
        latency = self.config.tlb_hit_ns
        if frames is None:
            table = self._page_tables[domain]
            if vpage not in table:
                raise TranslationFault(
                    f"domain {domain}: no mapping for vaddr {vaddr:#x}")
            frames = table[vpage]
            self.tlb.fill(domain, vpage, frames)
            latency = self.config.tlb_miss_ns
        self.translation_ns_accumulated += latency
        return frames, page_offset, latency

    def _check_bounds(self, domain: int, vaddr: int, length: int) -> None:
        if vaddr < 0 or length < 0:
            raise MemoryError_(f"bad access ({vaddr:#x}, {length})")
        page_size = self.config.page_size
        table = self._page_tables[domain]
        for vpage in range(vaddr // page_size, (vaddr + max(length, 1) - 1) // page_size + 1):
            if vpage not in table:
                raise TranslationFault(
                    f"domain {domain}: access [{vaddr:#x}, +{length}) touches "
                    f"unmapped page {vpage}")

    # -- functional data path ------------------------------------------------------
    def peek(self, domain: int, vaddr: int, length: int) -> memoryview:
        """Untimed read of a virtual range (crosses pages and stripes).

        Returns a **read-only memoryview** over a freshly assembled buffer:
        exactly one gather out of the channel stores, then zero further
        copies as the bytes flow through operators and network.
        Each page is translated through the TLB, as a timed read does.
        """
        return self._gather(domain, vaddr, length, self._translated)

    def image(self, domain: int, vaddr: int, length: int) -> memoryview:
        """:meth:`peek` that walks the page table and leaves the TLB
        alone (no fill, no hit or miss counted): the node reads a scanned
        table once with it, while each timed burst of the scan still
        translates its own pages (:meth:`read` with ``copy=False``)."""
        return self._gather(domain, vaddr, length, self._mapped)

    def _gather(self, domain: int, vaddr: int, length: int,
                frames_at) -> memoryview:
        self._require_domain(domain)
        self._check_bounds(domain, vaddr, length)
        out = np.empty(length, dtype=np.uint8)
        cursor = 0
        page_size = self.config.page_size
        while cursor < length:
            frames, page_offset = frames_at(domain, vaddr + cursor)
            chunk = min(length - cursor, page_size - page_offset)
            self._page_read_into(frames, page_offset,
                                 out[cursor:cursor + chunk])
            cursor += chunk
        return memoryview(out.data).toreadonly()

    def _translated(self, domain: int, vaddr: int) -> tuple[PageFrames, int]:
        frames, page_offset, _lat = self.translate(domain, vaddr)
        return frames, page_offset

    def _mapped(self, domain: int, vaddr: int) -> tuple[PageFrames, int]:
        vpage, page_offset = divmod(vaddr, self.config.page_size)
        return self._page_tables[domain][vpage], page_offset

    def poke(self, domain: int, vaddr: int, data: bytes | memoryview) -> None:
        """Untimed write of a virtual range."""
        self._require_domain(domain)
        self._check_bounds(domain, vaddr, len(data))
        src = np.frombuffer(data, dtype=np.uint8)
        cursor = 0
        page_size = self.config.page_size
        while cursor < len(src):
            addr = vaddr + cursor
            frames, page_offset, _lat = self.translate(domain, addr)
            chunk = min(len(src) - cursor, page_size - page_offset)
            self._page_write(frames, page_offset, src[cursor:cursor + chunk])
            cursor += chunk

    def _page_read_into(self, frames: PageFrames, start: int,
                        dest: np.ndarray) -> None:
        """De-stripe ``len(dest)`` bytes at ``start`` directly into ``dest``."""
        length = len(dest)
        if length == 0:
            return
        unit = self.config.stripe_unit
        nchan = self.config.channels
        if nchan == 1:
            dest[:] = self.channels[0].store_slice(
                frames.slice_offsets[0] + start, length)
            return
        row0 = (start // unit) // nchan
        row1 = ((start + length - 1) // unit) // nchan
        nrows = row1 - row0 + 1
        window_start = start - row0 * nchan * unit
        if window_start == 0 and length == nrows * nchan * unit:
            # Stripe-aligned burst (the hot path): one strided gather per
            # channel straight into the destination.
            dest3 = dest.reshape(nrows, nchan, unit)
            for c, channel in enumerate(self.channels):
                base = frames.slice_offsets[c] + row0 * unit
                dest3[:, c, :] = channel.store_slice(
                    base, nrows * unit).reshape(nrows, unit)
            return
        span = np.empty((nrows, nchan, unit), dtype=np.uint8)
        for c, channel in enumerate(self.channels):
            base = frames.slice_offsets[c] + row0 * unit
            span[:, c, :] = channel.store_slice(
                base, nrows * unit).reshape(nrows, unit)
        dest[:] = span.reshape(-1)[window_start:window_start + length]

    def _page_write(self, frames: PageFrames, start: int,
                    data: np.ndarray) -> None:
        """Stripe ``data`` into the channels (read-modify-write at edges)."""
        length = len(data)
        if length == 0:
            return
        unit = self.config.stripe_unit
        nchan = self.config.channels
        if nchan == 1:
            self.channels[0].store_slice(
                frames.slice_offsets[0] + start, length)[:] = data
            return
        row0 = (start // unit) // nchan
        row1 = ((start + length - 1) // unit) // nchan
        nrows = row1 - row0 + 1
        window_start = start - row0 * nchan * unit
        span = np.empty((nrows, nchan, unit), dtype=np.uint8)
        aligned = window_start == 0 and length == nrows * nchan * unit
        if not aligned:
            # Read-modify-write: gather the aligned span around the edges.
            for c, channel in enumerate(self.channels):
                base = frames.slice_offsets[c] + row0 * unit
                span[:, c, :] = channel.store_slice(
                    base, nrows * unit).reshape(nrows, unit)
        span.reshape(-1)[window_start:window_start + length] = data
        for c, channel in enumerate(self.channels):
            base = frames.slice_offsets[c] + row0 * unit
            channel.store_slice(base, nrows * unit).reshape(
                nrows, unit)[:, :] = span[:, c, :]

    # -- timed data path -------------------------------------------------------------
    def _translation_charge(self, domain: int, vaddr: int,
                            length: int) -> float:
        """Translation latency for an access: hit or miss per page touched.

        Probed *before* the functional access (which itself fills the TLB),
        so the timed path charges the miss penalty exactly for pages that
        were cold when the request arrived.
        """
        if length <= 0:
            return 0.0
        page_size = self.config.page_size
        charge = 0.0
        for vpage in range(vaddr // page_size,
                           (vaddr + length - 1) // page_size + 1):
            if self.tlb.contains(domain, vpage):
                charge += self.config.tlb_hit_ns
            else:
                charge += self.config.tlb_miss_ns
        return charge

    def read(self, domain: int, vaddr: int, length: int,
             copy: bool = True) -> Event:
        """Timed striped read; event fires with the bytes.

        The request is split into bursts; each burst charges every channel
        its stripe share and completes when the slowest channel finishes.
        Translation latency (TLB hit or miss) is charged per page touched.

        With ``copy=False`` the event fires with ``length`` instead: the
        caller already holds the bytes (:meth:`image`), and the read is
        timed, translated and fault-checked exactly as a copying one.
        """
        translation = self._translation_charge(domain, vaddr, length)
        if copy:
            data = self.peek(domain, vaddr, length)  # bytes + faults
        else:
            self._require_domain(domain)
            self._check_bounds(domain, vaddr, length)
            page_size = self.config.page_size
            for vpage in range(vaddr // page_size,
                               (vaddr + length - 1) // page_size + 1):
                self.translate(domain, max(vaddr, vpage * page_size))
            data = length
        done = self.sim.event()
        self.sim.process(
            self._timed_access(translation, length, done, data, write=False),
            name="mmu.read")
        return done

    def write(self, domain: int, vaddr: int, data: bytes) -> Event:
        """Timed striped write; event fires when the last burst lands."""
        translation = self._translation_charge(domain, vaddr, len(data))
        self.poke(domain, vaddr, data)
        done = self.sim.event()
        self.sim.process(
            self._timed_access(translation, len(data), done, None, write=True),
            name="mmu.write")
        return done

    def _timed_access(self, translation: float, length: int, done: Event,
                      payload: bytes | int | None, write: bool):
        if translation:
            yield self.sim.timeout(translation)
        cursor = 0
        while cursor < length:
            burst = min(self.burst_bytes, length - cursor)
            per_channel = self.allocator.channel_extent(burst)
            # Every channel is charged its stripe share; the burst is
            # complete when the slowest of them is.
            yield self.sim.timeout(max(
                (channel.write_pipe if write else channel.read_pipe)
                .occupy(per_channel) for channel in self.channels))
            cursor += burst
        done.succeed(payload if not write else length)

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
