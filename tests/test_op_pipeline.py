"""Operator pipelines: composition, streaming across burst boundaries,
packing, sender, regex operator integration."""

import numpy as np
import pytest

from repro.common.config import NetworkConfig
from repro.common.errors import OperatorError, PipelineCompilationError
from repro.common.records import default_schema, string_schema
from repro.network.link import Link
from repro.network.qp import QueuePair
from repro.network.rdma import ResponseStreamer
from repro.operators.aggregate import AggregateSpec
from repro.operators.base import OperatorPipeline
from repro.operators.distinct import DistinctOperator
from repro.operators.encryption_op import (
    DecryptOperator,
    EncryptOperator,
    encrypt_table_image,
)
from repro.operators.groupby import GroupByOperator
from repro.operators.packing import Packer
from repro.operators.projection import ProjectionOperator
from repro.operators.regex_op import RegexMatchOperator
from repro.operators.selection import Compare, SelectionOperator
from repro.operators.sending import Sender
from repro.sim.engine import Simulator

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NONCE = b"\x09" * 12


def make_table(n=100):
    schema = default_schema()
    rows = schema.empty(n)
    rows["a"] = np.arange(n)
    rows["b"] = np.arange(n) * 1.5
    rows["c"] = np.arange(n) % 5
    return schema, rows, schema.to_bytes(rows)


# --- basic pipelines -----------------------------------------------------------------

def test_selection_projection_pipeline():
    schema, rows, image = make_table(50)
    pipeline = OperatorPipeline(
        "sel+proj", schema,
        row_ops=[SelectionOperator(Compare("a", "<", 10)),
                 ProjectionOperator(["a", "b"])])
    out = pipeline.process_chunk(image) + pipeline.flush()
    result = pipeline.output_schema.from_bytes(out)
    assert len(result) == 10
    np.testing.assert_array_equal(result["a"], np.arange(10))
    assert pipeline.output_schema.row_width == 16


def test_pipeline_streaming_across_unaligned_bursts():
    """Bursts that split tuples mid-row must still parse correctly."""
    schema, rows, image = make_table(64)
    pipeline = OperatorPipeline(
        "sel", schema, row_ops=[SelectionOperator(Compare("a", ">=", 0))])
    out = b""
    # 100-byte bursts do not align with 64-byte rows.
    for i in range(0, len(image), 100):
        out += pipeline.process_chunk(image[i:i + 100])
    out += pipeline.flush()
    assert out == image  # 100% selectivity round trip


def test_pipeline_rejects_mid_tuple_end():
    schema, _, image = make_table(4)
    pipeline = OperatorPipeline(
        "sel", schema, row_ops=[SelectionOperator(Compare("a", ">=", 0))])
    pipeline.process_chunk(image[:100])  # 1.5 rows
    with pytest.raises(OperatorError):
        pipeline.flush()


def test_pipeline_groupby_emits_only_at_flush():
    schema, rows, image = make_table(30)
    pipeline = OperatorPipeline(
        "gb", schema,
        row_ops=[GroupByOperator(["c"], [AggregateSpec("sum", "a")])])
    streamed = pipeline.process_chunk(image)
    assert streamed == b""
    out = pipeline.flush()
    result = pipeline.output_schema.from_bytes(out)
    assert len(result) == 5
    got = dict(zip(result["c"].tolist(), result["sum_a"].tolist()))
    expected = {c: sum(a for a in range(30) if a % 5 == c) for c in range(5)}
    assert got == expected


def test_pipeline_selection_then_groupby():
    schema, rows, image = make_table(40)
    pipeline = OperatorPipeline(
        "sel+gb", schema,
        row_ops=[SelectionOperator(Compare("a", "<", 20)),
                 GroupByOperator(["c"], [AggregateSpec("count", "*")])])
    pipeline.process_chunk(image)
    result = pipeline.output_schema.from_bytes(pipeline.flush())
    assert result["count_star"].sum() == 20


def test_pipeline_flush_cascades_through_downstream_ops():
    """A group-by flush must pass through a downstream selection."""
    schema, rows, image = make_table(30)
    pipeline = OperatorPipeline(
        "gb+sel", schema,
        row_ops=[GroupByOperator(["c"], [AggregateSpec("sum", "a")]),
                 SelectionOperator(Compare("sum_a", ">", 85))])
    pipeline.process_chunk(image)
    result = pipeline.output_schema.from_bytes(pipeline.flush())
    # Group sums are 75, 81, 87, 93, 99 for c = 0..4; three exceed 85.
    assert sorted(result["sum_a"].tolist()) == [87, 93, 99]


def test_pipeline_incompatible_ops_fail_compilation():
    schema, _, _ = make_table(1)
    with pytest.raises(PipelineCompilationError):
        OperatorPipeline(
            "bad", schema,
            row_ops=[ProjectionOperator(["a"]),
                     SelectionOperator(Compare("b", "<", 1.0))])  # b projected away


def test_pipeline_double_flush_rejected():
    schema, _, image = make_table(2)
    pipeline = OperatorPipeline(
        "sel", schema, row_ops=[SelectionOperator(Compare("a", ">=", 0))])
    pipeline.process_chunk(image)
    pipeline.flush()
    with pytest.raises(OperatorError):
        pipeline.flush()
    with pytest.raises(OperatorError):
        pipeline.process_chunk(image)


def test_pipeline_fill_latency_accumulates():
    schema, _, _ = make_table(1)
    single = OperatorPipeline(
        "one", schema, row_ops=[SelectionOperator(Compare("a", "<", 1))])
    double = OperatorPipeline(
        "two", schema,
        row_ops=[SelectionOperator(Compare("a", "<", 1)),
                 ProjectionOperator(["a"])])
    assert double.fill_latency_cycles > single.fill_latency_cycles


# --- encrypted pipelines ------------------------------------------------------------------

def test_decrypt_select_encrypt_pipeline():
    """§5.1: decrypt at-rest data, process, re-encrypt for transmission."""
    schema, rows, image = make_table(32)
    cipher_image = encrypt_table_image(image, KEY, NONCE)
    out_key, out_nonce = KEY, b"\x0a" * 12
    pipeline = OperatorPipeline(
        "dec+sel+enc", schema,
        row_ops=[SelectionOperator(Compare("a", "<", 5))],
        pre_ops=[DecryptOperator(KEY, NONCE)],
        post_ops=[EncryptOperator(out_key, out_nonce)])
    out = b""
    for i in range(0, len(cipher_image), 300):
        out += pipeline.process_chunk(cipher_image[i:i + 300])
    out += pipeline.flush()
    # Client decrypts the transmission.
    from repro.operators.crypto import AesCtr
    plain = AesCtr(out_key, out_nonce).process(out)
    result = schema.from_bytes(plain)
    np.testing.assert_array_equal(result["a"], np.arange(5))


def test_regex_on_encrypted_strings():
    """§5.1's second scenario: regex matching on encrypted strings."""
    schema = string_schema(64)
    rows = schema.empty(4)
    rows["id"] = [1, 2, 3, 4]
    rows["s"] = [b"hello world", b"farview fpga", b"hello fpga", b"plain"]
    image = schema.to_bytes(rows)
    cipher = encrypt_table_image(image, KEY, NONCE)
    pipeline = OperatorPipeline(
        "dec+regex", schema,
        row_ops=[RegexMatchOperator("s", "hello|fpga")],
        pre_ops=[DecryptOperator(KEY, NONCE)])
    out = pipeline.process_chunk(cipher) + pipeline.flush()
    result = schema.from_bytes(out)
    assert result["id"].tolist() == [1, 2, 3]


# --- regex operator ------------------------------------------------------------------------

def test_regex_operator_filters_rows():
    schema = string_schema(32)
    rows = schema.empty(3)
    rows["id"] = [1, 2, 3]
    rows["s"] = [b"abc123", b"xyz", b"123abc"]
    op = RegexMatchOperator("s", r"\d{3}")
    op.bind(schema)
    out = op.process(rows)
    assert out["id"].tolist() == [1, 3]


def test_regex_operator_requires_char_column():
    schema = default_schema()
    op = RegexMatchOperator("a", "x")
    with pytest.raises(OperatorError):
        op.bind(schema)


def test_regex_operator_validates_pattern_eagerly():
    from repro.common.errors import RegexSyntaxError
    with pytest.raises(RegexSyntaxError):
        RegexMatchOperator("s", "(unclosed")


# --- packer ------------------------------------------------------------------------------------

def test_packer_releases_whole_words():
    packer = Packer()
    assert packer.pack(b"x" * 63) == b""
    out = packer.pack(b"y" * 2)
    assert len(out) == 64
    assert packer.flush() == b"y"
    assert packer.words_emitted == 2


def test_packer_large_input():
    packer = Packer()
    out = packer.pack(b"z" * 200)
    assert len(out) == 192
    assert packer.flush() == b"z" * 8


def test_packer_flush_empty():
    packer = Packer()
    assert packer.flush() == b""
    assert packer.words_emitted == 0


def test_packer_validation():
    with pytest.raises(OperatorError):
        Packer(word_bytes=0)


# --- sender -----------------------------------------------------------------------------------

def test_sender_streams_packed_words_end_to_end():
    sim = Simulator()
    config = NetworkConfig()
    link = Link(sim, config)
    qp = QueuePair(sim, buffer_capacity=64 * 1024, credits=8)
    link.register_flow(qp.qp_id)
    payload = bytes(range(256)) * 17  # 4352 bytes, not word-aligned chunks

    def server():
        streamer = ResponseStreamer(sim, link, qp, config)
        sender = Sender(streamer)
        for i in range(0, len(payload), 100):
            yield from sender.send(payload[i:i + 100])
        total = yield from sender.finish()
        return total, sender.commands_issued

    total, commands = sim.run_process(server())
    assert total == len(payload)
    assert commands > 0
    assert qp.buffer.read(0, len(payload)) == payload
