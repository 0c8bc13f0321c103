"""The Farview node: memory + network + operator stacks wired together (§4.1).

A :class:`FarviewNode` owns the MMU (buffer-pool memory), the 100 Gbps
link with its fair-share arbiter, the dynamic-region pool, and the
resource model.  Client connections get a queue pair, a protection domain
and a dynamic region; the node then serves three one-sided verbs:

* :meth:`serve_write` — RDMA WRITE of a table image into the buffer pool,
* :meth:`serve_read` — RDMA READ streaming raw bytes back to the client,
* :meth:`serve_farview` — the Farview verb: stream the table through the
  region's operator pipeline and ship only the results (§4.2).

All three are simulation processes; the data movement is real (bytes land
in the client's buffer) and the timing reflects the paper's architecture:
requests traverse the network stack, bursts from striped DRAM overlap
with operator processing and network sends (deep pipelining, §4.1), and
concurrent clients share DRAM and downlink fairly (§4.3-4.4).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..common import calibration as cal
from ..common.config import FarviewConfig
from ..common.errors import (ConnectionError_, FarviewError,
                             JoinBuildOverflowError, NodeFailedError,
                             OperatorError, ProtectionFault, RegionFailedError,
                             RegionUnavailableError, TranslationFault)
from ..common.expr import eval_mask
from ..common.records import copy_rows, take_rows
from ..fpga.region import DynamicRegion, RegionManager, RegionState
from ..fpga.resource_model import ResourceModel
from ..memory.mmu import Mmu
from ..network.link import Link
from ..network.qp import QueuePair
from ..network.rdma import ResponseStreamer, deliver_request, deliver_write
from ..operators.base import OperatorPipeline
from ..operators.sending import Sender
from ..sim.engine import Event, Simulator
from ..sim.resources import BandwidthPipe
from .table import FTable
from .versioning import (ROWID_COLUMN, VersionView, delete_schema,
                         delta_schema, encode_value)

if TYPE_CHECKING:   # pipeline_compiler -> compile -> cluster -> node
    from .pipeline_compiler import CompiledQuery

#: Default client receive-buffer capacity (results of one query).
DEFAULT_CLIENT_BUFFER = 8 * 1024 * 1024

_domain_ids = itertools.count(1)


class _BurstReader:
    """Streams ``[vaddr, +length)`` of a connection's memory to a
    consumer, burst by burst, as loop callbacks.

    Each burst is fetched (translated and fault-checked,
    :meth:`Mmu.translate_range`) and charged on the DRAM pipes; when it
    lands it goes to ``consume(nbytes)`` at once if the consumer waits
    for it, else into a two-slot buffer, and the next burst is fetched.
    A third landing waits for a slot and fetches nothing, so the reader
    runs at most two bursts ahead.  ``consume`` ends, in its own slot or
    in a later callback, with :meth:`after`: the next landing now, or
    once the response stream's credit wait is over.
    The end of the data, a crash or a memory fault (a typed error, never
    a consumer parked forever) goes the same way and fires ``done``,
    which the verb's process waits on, in the consumer's slot.

    Every hop draws the ticket that a reader process and a consumer
    process with a two-slot queue between them would draw, in their
    order: a burst's consumer and its next fetch are hand-off hops
    (:meth:`Simulator._hand_off`), run inline where the loop would run
    them next anyway.
    """

    __slots__ = ("node", "sim", "conn", "vaddr", "length", "cursor",
                 "consume", "buffer", "held", "idle", "done")

    def __init__(self, node: "FarviewNode", conn: "Connection", vaddr: int,
                 length: int, consume):
        self.node, self.sim, self.conn = node, node.sim, conn
        self.vaddr, self.length, self.cursor = vaddr, length, 0
        self.consume = consume
        #: Landings not yet consumed (at most two), and one held back
        #: with whether it fetches the next burst once it has a slot.
        self.buffer: deque = deque()
        self.held: tuple | None = None
        self.idle = True
        self.done = Event(node.sim)
        node.sim._immediate(self.fetch)

    def fetch(self) -> None:
        node = self.node
        if self.cursor >= self.length:
            self._land(None, False)
        elif node.failed:
            # Fail-stop mid-stream: a typed error, never partial-then-silent.
            self._land(NodeFailedError(
                f"node crashed mid-stream (incarnation "
                f"{node.incarnation})"), False)
        else:
            n = min(node.mmu.burst_bytes, self.length - self.cursor)
            try:
                node.mmu.translate_range(self.conn.domain,
                                         self.vaddr + self.cursor, n,
                                         self.landed)
            except FarviewError as exc:
                self._land(exc, False)

    def landed(self, n: int) -> None:
        self.cursor += n
        self._land(n, True)

    def _land(self, item, fetch: bool) -> None:
        if self.idle:
            self.idle = False
            if fetch:
                self.sim._hand_off(self._take, (item,), (self.fetch, ()))
            else:
                self.sim._hand_off(self._take, (item,))
        elif len(self.buffer) < 2:
            self.buffer.append(item)
            if fetch:
                self.sim._hand_off(self.fetch, ())
        else:
            self.held = (item, fetch)

    def after(self, credited: Event | None) -> None:
        """The consumer's turn is over: it takes the next landing now, or
        once ``credited`` (a cut's credit wait) fires."""
        if credited is None:
            self.next()
        else:
            credited.add_callback(self.next)

    def next(self, _event=None) -> None:
        """The consumer is ready for the next landing."""
        if not self.buffer:
            self.idle = True
            return
        take = (self.buffer.popleft(),)
        held = self.held
        if held is not None:
            self.held = None
            self.buffer.append(held[0])
            if held[1]:
                self.sim._hand_off(self.fetch, (), (self._take, take))
                return
        self.sim._hand_off(self._take, take)

    def _take(self, item) -> None:
        if type(item) is int:
            try:
                self.consume(item)
            except Exception as exc:    # the consumer's error fails the
                self.fail(exc)          # verb, not the event loop
        elif item is None:
            # The consumer's closures refer back to this reader: dropping
            # them frees its rows with the verb, not at the next collection.
            self.consume = None
            self.done._fire()
        else:
            self.fail(item)

    def fail(self, exc: BaseException) -> None:
        """End the stream with ``exc`` raised in the waiting verb; the
        reader runs on until its buffer is full, as it would beside a
        consumer that died."""
        self.consume = None
        self.done._ok = False
        self.done._fire(exc)


def releaser(pipeline: OperatorPipeline, image: bytes | memoryview):
    """Run ``pipeline`` over a whole input ``image`` once; returns
    ``release(streamed, total)``, the bytes to send once ``streamed`` of
    the ``total`` units that pace the scan have been timed, which have
    fed the first ``len(image) * streamed // total`` bytes of ``image``:
    the output rows whose source row ends within them and that no
    earlier call released, emitted through the packer-side stages.  A
    burst that completes no output row calls nothing in the pipeline.
    A streamed scan calls it from the callback that ends a burst's
    ingest, smart addressing once per request batch.
    Only the output rows outlive the call, not ``image``: where they
    share the memory of a pool view (no row operator copied them) they
    are copied once, so a write landing mid-stream cannot change them.
    Rows over ``bytes`` need neither the copy nor the test, which would
    copy a ``bytes`` image to compare addresses."""
    rows, source = pipeline.run(image)
    if isinstance(image, memoryview) and np.may_share_memory(rows, image):
        rows = copy_rows(rows)
    ends = (source + 1) * pipeline.input_schema.row_width
    size, released = len(image), 0

    def release(streamed: int, total: int) -> bytes:
        nonlocal released
        upto = int(ends.searchsorted(size * streamed // total, side="right"))
        if upto == released:
            return b""
        out = pipeline.emit(rows[released:upto])
        released = upto
        return out

    return release


@dataclass
class Connection:
    """One client connection: QP + protection domain + dynamic region."""

    qp: QueuePair
    domain: int
    region: DynamicRegion
    node: "FarviewNode"
    closed: bool = False

    def require_open(self) -> None:
        if self.closed:
            raise ConnectionError_("connection already closed")


@dataclass
class ExecutionReport:
    """Server-side record of one Farview-verb execution."""

    signature: str
    bytes_scanned: int = 0
    bytes_shipped: int = 0
    rows_in: int = 0
    rows_out: int = 0
    ingest_mode: str = "standard"
    overflow_keys: list = field(default_factory=list)
    overflow_groups: dict = field(default_factory=dict)
    reconfigured: bool = False


class FarviewNode:
    """Smart disaggregated memory node (Figure 2)."""

    def __init__(self, sim: Simulator, config: FarviewConfig | None = None):
        self.sim = sim
        self.config = config if config is not None else FarviewConfig()
        self.mmu = Mmu(sim, self.config.memory)
        self.link = Link(sim, self.config.network, name="fv-link")
        self.regions = RegionManager(sim, self.config.operator_stack)
        self.resources = ResourceModel(self.config.operator_stack.regions)
        # The request engine is deeply pipelined: per-request occupancy is
        # small (issue rate) while per-request latency is larger.
        self._request_engine = BandwidthPipe(sim, rate=1e12,
                                             name="fv-req-engine")
        self.connections: dict[int, Connection] = {}
        self.queries_served = 0
        #: Fail-stop fault state: a failed node rejects every verb with
        #: :class:`NodeFailedError`; ``incarnation`` bumps on each crash so
        #: clients can tell pre-crash contents (lost) from fresh writes.
        self.failed = False
        self.incarnation = 0
        #: Callbacks fired synchronously on :meth:`recover` — the lease
        #: manager hooks these to wake waiters that nothing else would
        #: ever wake (liveness).  Empty by default: zero cost when unused.
        self._recover_listeners: list = []

    # -- fault injection (fail-stop with amnesia) --------------------------------
    def fail(self) -> None:
        """Crash the node.  In-flight streams abort with a typed error;
        everything in the pool is considered lost (incarnation bump)."""
        self.failed = True
        self.incarnation += 1

    def recover(self) -> None:
        """Bring the node back — logically empty, under the incarnation
        assigned at crash time — and free each abandoned connection's
        region and protection domain.  Clients must re-create state;
        stale handles are rejected by their recorded incarnation."""
        self.failed = False
        live = {conn.domain for conn in self.connections.values()}
        for domain in self.mmu.domains - live:
            self.mmu.destroy_domain(domain)
        for region in self.regions.regions:
            region.forget()
            if region.owner_qp not in self.connections:
                self.regions.release(region)
                self.resources.undeploy(region.index)
        for listener in self._recover_listeners:
            listener(self)

    def add_recover_listener(self, listener) -> None:
        """Register ``listener(node)`` to run whenever this node recovers
        (both direct :meth:`recover` calls and scheduled
        :class:`~repro.core.faults.FaultInjector` recover events land
        here — recovery is recovery, whoever triggers it)."""
        self._recover_listeners.append(listener)

    def _check_alive(self) -> None:
        if self.failed:
            raise NodeFailedError(
                f"node is down (incarnation {self.incarnation})")

    # -- connection management (§4.2 openConnection) ----------------------------
    def open_connection(self,
                        buffer_capacity: int = DEFAULT_CLIENT_BUFFER
                        ) -> Connection:
        self._check_alive()
        qp = QueuePair(self.sim, buffer_capacity,
                       credits=self.config.network.initial_credits)
        self.link.register_flow(qp.qp_id)
        domain = next(_domain_ids)
        self.mmu.create_domain(domain)
        try:
            region = self.regions.acquire(qp.qp_id)
        except RegionUnavailableError:
            # A refused open must leave nothing behind on the node.
            self.mmu.destroy_domain(domain)
            self.link.unregister_flow(qp.qp_id)
            raise
        qp.connected = True
        conn = Connection(qp=qp, domain=domain, region=region, node=self)
        self.connections[qp.qp_id] = conn
        return conn

    def close_connection(self, conn: Connection) -> None:
        conn.require_open()
        self.regions.release(conn.region)
        self.resources.undeploy(conn.region.index)
        self.mmu.destroy_domain(conn.domain)
        self.link.unregister_flow(conn.qp.qp_id)
        conn.qp.connected = False
        conn.closed = True
        del self.connections[conn.qp.qp_id]

    # -- memory allocation (§4.2 allocTableMem / freeTableMem) ---------------------
    def alloc_table_mem(self, conn: Connection, table: FTable) -> int:
        conn.require_open()
        self._check_alive()
        table.vaddr = self.mmu.alloc(conn.domain, table.size_bytes)
        table.domain = conn.domain
        return table.vaddr

    def free_table_mem(self, conn: Connection, table: FTable) -> None:
        conn.require_open()
        self.mmu.free(conn.domain, table.require_allocated())
        table.vaddr = None
        table.domain = None

    def require_access(self, conn: Connection, table: FTable) -> None:
        """Enforce §4.4 isolation: a connection only reaches tables its
        own protection domain allocated (:class:`ProtectionFault`
        otherwise); a handle whose owning domain died with its
        connection no longer translates (:class:`TranslationFault`)."""
        owner = table.domain
        if owner is None or owner == conn.domain:
            return
        if owner in self.mmu.domains:
            raise ProtectionFault(
                f"table {table.name!r} belongs to protection domain "
                f"{owner}, not {conn.domain}")
        raise TranslationFault(
            f"table {table.name!r} was mapped in domain {owner}, which "
            f"was destroyed with its connection")

    # -- request front-end ------------------------------------------------------------
    def _request_front_end(self):
        """Process: request latency through the pipelined request engine."""
        overhead = self.config.network.request_overhead_ns
        issue = min(cal.FV_REQUEST_ISSUE_NS, overhead)
        yield self.sim.timeout(self._request_engine.occupy(0, extra_ns=issue))
        remaining = overhead - issue
        if remaining > 0:
            yield self.sim.timeout(remaining)

    # -- RDMA WRITE (table upload) -------------------------------------------------------
    def serve_write(self, conn: Connection, table: FTable, data: bytes):
        """Process: client writes ``data`` into the table's memory."""
        conn.require_open()
        self._check_alive()
        self.require_access(conn, table)
        vaddr = table.require_allocated()
        if len(data) > table.size_bytes:
            raise OperatorError(
                f"write of {len(data)} bytes exceeds table size "
                f"{table.size_bytes}")
        yield from deliver_write(self.sim, self.link, conn.qp, data)
        yield from self._request_front_end()
        self._check_alive()
        yield self.mmu.write(conn.domain, vaddr, data)
        # A crash during the write means the ack never left the node; the
        # bytes are lost with the incarnation either way.
        self._check_alive()
        return len(data)

    # -- RDMA READ (raw buffer-cache read) ---------------------------------------------------
    def serve_read(self, conn: Connection, table: FTable,
                   offset: int = 0, length: int | None = None):
        """Process: stream raw table bytes to the client buffer.

        Its length is known at the request, so a read the client's
        buffer cannot hold is refused there.  The bytes are the table's
        image when the node starts the stream; they land in the buffer
        once the last packet has."""
        conn.require_open()
        self._check_alive()
        self.require_access(conn, table)
        vaddr = table.require_allocated()
        if length is None:
            length = table.size_bytes - offset
        if offset < 0 or length < 0 or offset + length > table.size_bytes:
            raise OperatorError(
                f"read [{offset}, +{length}) outside table of "
                f"{table.size_bytes} bytes")
        conn.qp.buffer.require_room(length)
        yield from deliver_request(self.sim, self.link, conn.qp)
        yield from self._request_front_end()
        # The image lands when the stream ends: the view is copied now.
        image = bytes(self.mmu.image(conn.domain, vaddr + offset, length))
        streamer = ResponseStreamer(self.sim, self.link, conn.qp)

        def consume(nbytes: int) -> None:
            reader.after(streamer.cut(nbytes))

        reader = _BurstReader(self, conn, vaddr + offset, length, consume)
        try:
            yield reader.done
        except Exception:
            streamer.abandon()
            raise
        total = yield from streamer.finish(image)
        # A crash before the final ack means the response never completed.
        self._check_alive()
        return total

    # -- the Farview verb (§4.2 farView) ----------------------------------------------------------
    def serve_farview(self, conn: Connection, source: FTable | VersionView,
                      compiled: CompiledQuery):
        """Process: run the compiled pipeline over ``source``, stream results.

        ``source`` is a segment or an MVCC :class:`VersionView`; the
        pipeline downstream of the ingest sees exactly the rows visible
        at ``view.epoch``.  A view's deltas decide the ingest: with none
        it is the base segment's plain ingest, with some the delta merge
        (see :meth:`_run_streaming`).  Returns an
        :class:`ExecutionReport`; result bytes land in the client's
        buffer.
        """
        conn.require_open()
        self._check_alive()
        if conn.region.state is RegionState.FAILED:
            raise RegionFailedError(
                f"region {conn.region.index} has failed")
        table = source.base if isinstance(source, VersionView) else source
        view = source if table is not source and source.deltas else None
        self.require_access(conn, table)
        table.require_allocated()
        report = ExecutionReport(signature=compiled.signature,
                                 ingest_mode=compiled.ingest_mode)

        yield from deliver_request(self.sim, self.link, conn.qp)
        yield from self._request_front_end()

        if not conn.region.holds(compiled.signature):
            report.reconfigured = True
            yield self.sim.process(
                conn.region.load_pipeline(compiled.signature))
            self.resources.deploy(conn.region.index,
                                  compiled.resource_operators)

        stack = self.config.operator_stack
        yield self.sim.timeout(
            compiled.pipeline.fill_latency_cycles * stack.cycle_ns)

        # §7 extension: read the small build table into the on-chip hash
        # before the probe stream starts.
        try:
            yield from self._load_join_build(conn, compiled, report)
        except JoinBuildOverflowError:
            # A pipeline whose build does not fit is not left resident.
            conn.region.unload()
            self.resources.undeploy(conn.region.index)
            raise

        streamer = ResponseStreamer(self.sim, self.link, conn.qp)
        sender = Sender(streamer)
        try:
            if compiled.ingest_mode == "smart":
                source_rows = yield from self._run_smart_addressing(
                    conn, table, compiled, sender, report)
            else:
                source_rows = yield from self._run_streaming(
                    conn, table, view, compiled, sender, report)

            # End of stream: flush grouping state (costs cycles per group)
            # and the packer/encryption tails, then wait for delivery.
            tail = compiled.pipeline.flush()
            flush_ns = compiled.pipeline.flush_cycles() * stack.cycle_ns
            if flush_ns > 0:
                yield self.sim.timeout(flush_ns)
            if tail:
                yield from sender.send(tail)
            total = yield from sender.finish()
        except Exception:
            streamer.abandon()
            raise
        self._check_alive()

        self._collect_overflow(compiled, report)
        report.bytes_shipped = total
        row_ops = compiled.pipeline.row_ops
        report.rows_in = row_ops[0].rows_in if row_ops else source_rows
        report.rows_out = row_ops[-1].rows_out if row_ops else source_rows
        self.queries_served += 1
        return report

    def _load_join_build(self, conn: Connection, compiled: CompiledQuery,
                         report: ExecutionReport):
        """Process: fill the join operator's on-chip hash (§7 extension).

        Reads every segment of the build side's pinned
        :class:`VersionView` (one timed DRAM read of the base when it has
        no deltas) and loads the visible rows, so concurrent
        dimension-table writes never leak into an in-flight join.
        """
        if compiled.join_op is None:
            return
        if compiled.join_build is None:
            raise OperatorError(
                "join build side is not resident on this node; the "
                "scatter router must place a copy before probing")
        rows, _ids = yield from self._materialize_view(
            conn, compiled.join_build, report)
        compiled.join_op.load_build(rows)

    def _run_streaming(self, conn: Connection, table: FTable,
                       view: VersionView | None, compiled: CompiledQuery,
                       sender: Sender, report: ExecutionReport):
        """Standard / vectorized / delta-merge execution: sequential
        burst streaming of ``table``; returns the rows fed to the pipeline.

        The result depends only on the table, so the pipeline runs once
        over the whole scanned image, read untimed up front; each timed
        DRAM burst (:class:`_BurstReader`) then crosses the ingest pipe
        and releases the output rows whose source row it completed
        (:func:`releaser`).

        With a ``view`` the ingest is the delta-aware merge: the delta
        segments are prefetched into the merge unit first (timed DRAM
        reads, like the join build side), then the base segment streams
        through the ingest pipe — base bytes pace the ingest — while the
        merge unit substitutes updated row images, drops deleted rows
        and appends inserts at line rate, feeding the pipeline the
        corresponding share of the visible image.  ``bytes_scanned``
        therefore covers base + every delta segment.
        """
        vaddr, length = table.require_allocated(), table.size_bytes
        if view is None:
            image, source_rows = (self.mmu.image(conn.domain, vaddr, length),
                                  table.num_rows)
        else:
            image, source_rows = yield from self._merged_image(conn, view,
                                                               report)
        release = releaser(compiled.pipeline, image)
        # Concurrent scans hold only their results while they stream.
        del image
        ingest = BandwidthPipe(self.sim, compiled.ingest_rate,
                               name=f"region{conn.region.index}.ingest")
        streamed = 0

        def consume(nbytes: int) -> None:
            if conn.region.state is RegionState.FAILED:
                raise RegionFailedError(
                    f"region {conn.region.index} failed mid-pipeline")
            self.sim.schedule(ingest.occupy(nbytes), ingested, nbytes)

        def ingested(nbytes: int) -> None:
            nonlocal streamed
            try:
                report.bytes_scanned += nbytes
                streamed += nbytes
                # The merge unit feeds the visible image in proportion to
                # the base bytes streamed so far.
                out = release(streamed, length)
                credited = sender.cut(out) if out else None
            except Exception as exc:    # fails the verb, as in consume
                reader.fail(exc)
                return
            reader.after(credited)

        reader = _BurstReader(self, conn, vaddr, length, consume)
        yield reader.done
        return source_rows

    def _merged_image(self, conn: Connection, view: VersionView,
                      report: ExecutionReport):
        """Process: the merge unit's visible image of ``view`` — delta
        segments prefetched with timed reads, the base translated and
        timed as it streams, like a plain scan's — and its row count."""
        base = view.base
        images = yield from self._read_segments(
            conn, [d.table for d in view.deltas], report)
        images[base.name] = self.mmu.image(conn.domain,
                                           base.require_allocated(),
                                           base.size_bytes)
        rows, _ids = view.materialize(lambda t: images[t.name])
        return view.schema.to_bytes(rows), len(rows)

    def _run_smart_addressing(self, conn: Connection, table: FTable,
                              compiled: CompiledQuery, sender: Sender,
                              report: ExecutionReport):
        """Smart addressing: per-column scattered fetches (§5.2);
        returns the rows gathered."""
        plan = compiled.sa_plan
        assert plan is not None
        vaddr = table.require_allocated()
        mem = self.config.memory
        num_tuples = table.num_rows
        # Functional result: strided gather of the projected columns over
        # the table image (no per-tuple request loop); the scattered
        # fetches translate every page the table spans.
        span = num_tuples * plan.schema.row_width
        self.mmu.translate_range(conn.domain, vaddr, span)
        image = self.mmu.image(conn.domain, vaddr, span)
        release = releaser(compiled.pipeline, plan.out_schema.to_bytes(
            plan.gather(image, num_tuples)))
        del image
        report.bytes_scanned = plan.total_bytes(num_tuples)

        # Timing: each coalesced run is a discrete DRAM request paying a
        # stripe-unit read plus activate/precharge, spread round-robin over
        # the channels.  Batched so output streaming overlaps.
        per_tuple, row_width = plan.requests_per_tuple, plan.schema.row_width
        total_requests = num_tuples * per_tuple
        batch_requests = 1024
        done_requests = 0
        while done_requests < total_requests:
            batch = min(batch_requests, total_requests - done_requests)
            # The batch's requests fault on a page freed since the scan
            # began, as a raw READ's next burst does; the pages were
            # translated (and charged) once above, so this only checks.
            first = done_requests // per_tuple
            last = (done_requests + batch - 1) // per_tuple + 1
            self.mmu.check_bounds(conn.domain, vaddr + first * row_width,
                                  (last - first) * row_width)
            per_channel = (batch + mem.channels - 1) // mem.channels
            yield self.sim.timeout(max(
                channel.read_pipe.occupy(
                    per_channel * mem.stripe_unit,
                    extra_ns=per_channel * cal.SA_REQUEST_OVERHEAD_NS)
                for channel in self.mmu.channels))
            done_requests += batch
            out = release(done_requests, total_requests)
            if out:
                yield from sender.send(out)
        return num_tuples

    # -- node-local segment reads and writes (versioned verbs) ------------------------------
    def _read_segments(self, conn: Connection, tables,
                       report: ExecutionReport | None = None):
        """Process: one timed DRAM read per table in ``tables`` (no
        network egress); returns ``{name: image}``.  Every read passes
        the §4.4 access check first."""
        images: dict[str, bytes] = {}
        for seg in tables:
            self._check_alive()
            self.require_access(conn, seg)
            vaddr = seg.require_allocated()
            # The image outlives the timed read below: copied, not a view.
            images[seg.name] = bytes(self.mmu.image(conn.domain, vaddr,
                                                    seg.size_bytes))
            yield self.mmu.read(conn.domain, vaddr, seg.size_bytes)
            if report is not None:
                report.bytes_scanned += seg.size_bytes
        return images

    def _materialize_view(self, conn: Connection, view: VersionView,
                          report: ExecutionReport | None = None):
        """Process: timed-read every segment of ``view`` and merge;
        returns ``(visible_rows, rowids)``."""
        images = yield from self._read_segments(conn, view.segment_tables,
                                                report)
        return view.materialize(lambda t: images[t.name])

    def _write_segment(self, conn: Connection, name: str, schema, rows):
        """Process: allocate a fresh pool segment for ``rows`` and write
        it (one timed DRAM write); returns the segment handle."""
        segment = FTable(name, schema, len(rows))
        self.alloc_table_mem(conn, segment)
        yield self.mmu.write(conn.domain, segment.vaddr,
                             schema.to_bytes(rows))
        self._check_alive()
        return segment

    def _serve_delta(self, conn: Connection, view: VersionView, predicate,
                     segment_name: str, coerced: dict | None):
        """Process: the prepare phase of an offloaded predicate write.

        The node scans the version chain locally (timed DRAM reads — no
        network egress of table bytes: the computation was shipped, not
        the data), evaluates ``predicate`` over the visible rows and
        writes the delta image into freshly allocated pool memory: the
        matched row ids alone (delete, ``coerced=None``), or with the
        full row images and the ``column -> value`` assignments applied
        (update).  Returns ``(segment_table, matched_rowids)`` or
        ``None`` when nothing matched (the commit is then a pure epoch
        bump).
        """
        conn.require_open()
        self._check_alive()
        rows, ids = yield from self._materialize_view(conn, view)
        mask = (eval_mask(predicate, rows) if predicate is not None
                else np.ones(len(rows), dtype=bool))
        if not mask.any():
            return None
        dschema = (delete_schema() if coerced is None
                   else delta_schema(view.schema))
        drows = dschema.empty(int(mask.sum()))
        drows[ROWID_COLUMN] = ids[mask]
        if coerced is not None:
            matched = take_rows(rows, mask)
            for name in view.schema.names:
                drows[name] = coerced.get(name, matched[name])
        segment = yield from self._write_segment(conn, segment_name,
                                                 dschema, drows)
        return segment, ids[mask]

    def serve_update_delta(self, conn: Connection, view: VersionView,
                           predicate, assignments: dict,
                           segment_name: str):
        """Process: offloaded read-modify-write (prepare phase,
        :meth:`_serve_delta`): the delta carries the matched rows' full
        images with the ``column -> literal`` assignments applied."""
        coerced = {name: encode_value(view.schema.column(name), value)
                   for name, value in assignments.items()}
        if not coerced:
            raise OperatorError("update needs at least one SET assignment")
        return self._serve_delta(conn, view, predicate, segment_name, coerced)

    def serve_delete_delta(self, conn: Connection, view: VersionView,
                           predicate, segment_name: str):
        """Process: offloaded predicate delete (prepare phase,
        :meth:`_serve_delta`); the delta image carries only the matched
        row ids."""
        return self._serve_delta(conn, view, predicate, segment_name, None)

    def serve_compact(self, conn: Connection, view: VersionView,
                      base_name: str):
        """Process: fold the chain into a fresh base segment.

        Node-local background pass: timed reads of base + deltas, one
        timed write of the visible image.  Old segments are *not* freed
        here — the client retires them through the pin barrier so
        concurrent pinned scans keep their snapshot.
        """
        conn.require_open()
        self._check_alive()
        rows, ids = yield from self._materialize_view(conn, view)
        if len(rows) == 0:
            raise OperatorError(
                f"cannot compact {view.name!r}: no visible rows at epoch "
                f"{view.epoch} (a zero-byte base segment cannot be "
                f"allocated)")
        new_base = yield from self._write_segment(conn, base_name,
                                                  view.schema, rows)
        return new_base, ids

    @staticmethod
    def _collect_overflow(compiled: CompiledQuery,
                          report: ExecutionReport) -> None:
        for op in compiled.pipeline.row_ops:
            if hasattr(op, "drain_overflow_keys"):
                report.overflow_keys.extend(op.drain_overflow_keys())
            if hasattr(op, "drain_overflow_groups"):
                report.overflow_groups.update(op.drain_overflow_groups())

    # -- introspection ------------------------------------------------------------------------------
    @property
    def free_regions(self) -> int:
        return self.regions.free_count

    def utilization(self):
        return self.resources.total()
