"""Deeper property-based tests: stateful MMU model check, and a scan's
result computed once and released per burst equal to the per-burst
pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.config import MemoryConfig
from repro.common.records import Column, Schema, default_schema
from repro.core.node import releaser
from repro.memory.mmu import DEFAULT_BURST_BYTES, Mmu
from repro.operators.aggregate import AggregateSpec
from repro.operators.base import OperatorPipeline
from repro.operators.distinct import DistinctOperator
from repro.operators.encryption_op import (DecryptOperator, EncryptOperator,
                                           encrypt_table_image)
from repro.operators.groupby import GroupByOperator
from repro.operators.join import SmallTableJoinOperator
from repro.operators.projection import ProjectionOperator
from repro.operators.regex_op import RegexMatchOperator
from repro.operators.selection import Compare, SelectionOperator
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * KB


class MmuModelCheck(RuleBasedStateMachine):
    """The striped MMU must behave exactly like one flat byte array.

    Hypothesis drives random allocations, writes and reads in two
    protection domains against both the MMU (2-channel striping, 64 KB
    pages) and a plain ``bytearray`` reference per allocation over the
    whole pages it maps (zero where never written); any divergence is a
    striping/translation bug, or a frame that reached its next owner
    with bytes its last owner wrote.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        config = MemoryConfig(channels=2, channel_capacity=2 * MB,
                              page_size=64 * KB)
        self.page = config.page_size
        self.mmu = Mmu(self.sim, config)
        self.mmu.create_domain(1)
        self.mmu.create_domain(2)
        #: (domain, vaddr) -> the allocation's size and reference pages
        self.reference: dict[tuple[int, int], tuple[int, bytearray]] = {}

    def _allocate(self, domain, size):
        vaddr = self.mmu.alloc(domain, size)
        pages = -(-size // self.page)
        self.reference[domain, vaddr] = size, bytearray(pages * self.page)

    @rule(domain=st.sampled_from((1, 2)),
          size=st.integers(min_value=1, max_value=96 * KB))
    def allocate(self, domain, size):
        if self.mmu.allocator.free_pages < 2:
            return  # avoid OOM noise; exhaustion is tested elsewhere
        self._allocate(domain, size)

    @precondition(lambda self: self.reference)
    @rule(data=st.data(), payload=st.binary(min_size=1, max_size=4 * KB))
    def write(self, data, payload):
        """Poke anywhere in the pages an allocation maps — past its size
        too, often ending on a page's last byte."""
        (domain, vaddr), (_, ref) = data.draw(
            st.sampled_from(sorted(self.reference.items())))
        page_ends = st.sampled_from(range(self.page, len(ref) + 1, self.page))
        end = data.draw(st.one_of(page_ends,
                                  st.integers(len(payload), len(ref))))
        self.mmu.poke(domain, vaddr + end - len(payload), payload)
        ref[end - len(payload):end] = payload

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def read_matches_reference(self, data):
        (domain, vaddr), (size, ref) = data.draw(
            st.sampled_from(sorted(self.reference.items())))
        length = data.draw(st.integers(1, size))
        offset = data.draw(st.integers(0, size - length))
        got = self.mmu.image(domain, vaddr + offset, length)
        assert got == bytes(ref[offset:offset + length])

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def image_matches_reference_and_leaves_the_tlb(self, data):
        (domain, vaddr), (size, ref) = data.draw(
            st.sampled_from(sorted(self.reference.items())))
        tlb = self.mmu.tlb
        before = (list(tlb._map), tlb.hits, tlb.misses)
        assert self.mmu.image(domain, vaddr, size) == bytes(ref[:size])
        assert (list(tlb._map), tlb.hits, tlb.misses) == before

    @rule()
    def mapped_pages_read_zero_where_never_written(self):
        """Every byte of every page an allocation maps, past its size up
        to the page end, is the reference's: zero wherever this owner
        never wrote, whatever the frame held before."""
        for (domain, vaddr), (_, ref) in self.reference.items():
            assert self.mmu.image(domain, vaddr, len(ref)) == ref

    @precondition(lambda self: len(self.reference) > 1)
    @rule(data=st.data())
    def free_one(self, data):
        key = data.draw(st.sampled_from(sorted(self.reference)))
        self.mmu.free(*key)
        del self.reference[key]

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def hand_over(self, data):
        """Free an allocation and allocate its size in the other domain:
        last freed, first reused, so the new owner gets the same frames
        (twice over when drawn again)."""
        key = data.draw(st.sampled_from(sorted(self.reference)))
        size, _ = self.reference.pop(key)
        self.mmu.free(*key)
        self._allocate(3 - key[0], size)

    @invariant()
    def page_accounting_consistent(self):
        for domain in (1, 2):
            expected = sum(len(ref) // self.page for (owner, _), (_, ref)
                           in self.reference.items() if owner == domain)
            assert self.mmu.domain_pages(domain) == expected


MmuModelCheck.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None)
TestMmuModelCheck = MmuModelCheck.TestCase


# --- one pass, released per burst --------------------------------------------------

KEY, NONCE, OUT_NONCE = b"\x11" * 16, b"\x22" * 12, b"\x33" * 12


def per_burst(pipeline, image, ends):
    """The oracle: the per-burst pipeline the node ran before a scan's
    result was computed once.  Each burst's bytes pass the pre-ops, a
    parser that carries a split row's tail into the next burst, the row
    operators and the packer side.  Returns the bytes emitted after each
    burst, and the flush."""
    width = pipeline.input_schema.row_width
    residue, emitted, cursor = b"", [], 0
    for end in ends:
        chunk = bytes(image[cursor:end])
        cursor = end
        for op in pipeline.pre_ops:
            chunk = op.process(chunk)
        chunk = residue + chunk
        whole = len(chunk) - len(chunk) % width
        residue = chunk[whole:]
        batch = pipeline.input_schema.from_bytes(chunk[:whole])
        for op in pipeline.row_ops:
            if len(batch) == 0:
                batch = pipeline.output_schema.empty(0)
                break
            batch, _ = op.process(batch)
        emitted.append(pipeline.emit(batch))
    assert residue == b""
    assert all(op.finish() == b"" for op in pipeline.pre_ops)
    return emitted, pipeline.flush()


def released(pipeline, image, streamed, total):
    """What the node does: one pass over the image, then per burst the
    rows whose source row ends within the bytes fed once ``streamed`` of
    ``total`` base bytes have been timed."""
    release = releaser(pipeline, image)
    return [release(done, total) for done in streamed], pipeline.flush()


def _schema(width):
    return Schema([Column("a", "int64"), Column("b", "float64"),
                   Column("c", "int64"), Column("s", "char", width - 24)])


_DIM = Schema([Column("id", "int64"), Column("rate", "float64")])


def _pipeline(shape, schema, build):
    pre, post = [], []
    if shape == "regex":
        ops = [RegexMatchOperator("s", "x[0-3]y|^q")]
    elif shape == "distinct":
        # Tiny tables: the stream runs past the first overflow onto the
        # per-row path.
        ops = [DistinctOperator(["c"], ways=2, slots_per_way=4, max_kicks=2,
                                lru_depth_per_way=1)]
    elif shape == "groupby":
        ops = [GroupByOperator(["c"], [AggregateSpec("sum", "b"),
                                       AggregateSpec("min", "b"),
                                       AggregateSpec("count", "*")])]
    elif shape == "join":
        join = SmallTableJoinOperator(_DIM, "id", "c", ["rate"])
        join.load_build(build)
        ops = [join, ProjectionOperator(["a", "c", "rate"])]
    else:  # crypto: decrypt at rest, select, encrypt for the wire
        ops = [SelectionOperator(Compare("b", "<", 0.5))]
        pre = [DecryptOperator(KEY, NONCE)]
        post = [EncryptOperator(KEY, OUT_NONCE)]
    return OperatorPipeline(shape, schema, ops, pre_ops=pre, post_ops=post)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["regex", "distinct", "groupby", "join",
                              "crypto"]),
       width=st.sampled_from([32, 40, 72, 200, 520, 3000]),
       num_rows=st.integers(min_value=0, max_value=400),
       burst=st.sampled_from([DEFAULT_BURST_BYTES, 100, 1000, 4096]),
       proportional=st.booleans(),
       seed=st.integers(min_value=0, max_value=999))
def test_pipeline_output_independent_of_chunking(shape, width, num_rows,
                                                 burst, proportional, seed):
    """After every burst, the bytes the node releases from its one pass
    over the image equal what the per-burst pipeline emitted after that
    burst, and so do the flushes: for regex, DISTINCT past its first
    overflow, GROUP BY, a join, decrypt-before and encrypt-after, row
    widths that straddle a burst, and the delta-merge feed, where a burst
    of base bytes feeds the proportional share of the visible image."""
    schema = _schema(width)
    rng = np.random.default_rng(seed)
    if shape == "crypto":
        # The image and every burst are whole CTR blocks, as on the node:
        # a burst is whole stripe units, and only a plain table decrypts.
        num_rows -= num_rows % 2  # every width here is 0 or 8 mod 16
        burst -= burst % 16
        proportional = False
    rows = schema.empty(num_rows)
    rows["a"] = np.arange(num_rows)
    rows["b"] = rng.random(num_rows)
    rows["c"] = rng.integers(0, 40, num_rows)
    rows["s"] = [rng.choice([b"x1y", b"qz", b"zz", b"x9y"])
                 for _ in range(num_rows)]
    image = schema.to_bytes(rows)
    if shape == "crypto" and image:
        image = encrypt_table_image(image, KEY, NONCE)
    build = _DIM.empty(30)
    build["id"] = np.arange(0, 60, 2)
    build["rate"] = np.arange(30) * 0.25
    # The base segment's bursts pace the ingest; the delta-merge feed
    # hands the pipeline the proportional share of a visible image of a
    # different length, as the node's sink computes it.
    base = (int(len(image) * rng.uniform(0.5, 2.0)) + 1 if proportional
            else len(image) or 1)
    streamed = list(range(burst, base, burst)) + [base]
    ends = [len(image) * done // base for done in streamed]

    expected = per_burst(_pipeline(shape, schema, build), image, ends)
    got = released(_pipeline(shape, schema, build), image, streamed, base)
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(num_rows=st.integers(min_value=0, max_value=300),
       groups=st.integers(min_value=1, max_value=12),
       chunk=st.integers(min_value=64, max_value=2048),
       seed=st.integers(min_value=0, max_value=999))
def test_groupby_pipeline_chunking_property(num_rows, groups, chunk, seed):
    """Group-by results are bit-identical for any burst size: the
    per-burst pipeline's float sums accumulate row by row, exactly as
    the one pass does."""
    schema = default_schema()
    rng = np.random.default_rng(seed)
    rows = schema.empty(num_rows)
    rows["a"] = rng.integers(0, groups, num_rows)
    rows["b"] = rng.random(num_rows)
    image = schema.to_bytes(rows)

    def make():
        return OperatorPipeline(
            "gb", schema,
            row_ops=[GroupByOperator(["a"], [AggregateSpec("sum", "b")])])

    ends = list(range(chunk, len(image), chunk)) + [len(image)]
    emitted, flushed = per_burst(make(), image, ends)
    assert emitted == [b""] * len(ends)
    assert released(make(), image, [1], 1) == ([b""], flushed)
