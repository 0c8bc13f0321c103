"""Operator framework: streaming operators and pipelines (paper §5.1).

"Operator pipelines are constructed from individual blocks that implement a
given operator and provide standard interfaces to combine them into
pipelines."  We mirror that structure:

* a :class:`RowOperator` consumes and produces batches of tuples
  (numpy structured arrays) in a streaming fashion,
* a :class:`ByteOperator` transforms the raw byte stream (encryption /
  decryption, which run before parsing or after packing),
* an :class:`OperatorPipeline` chains them: raw bytes from the memory
  stack -> byte stage(s) -> parser -> row operators -> packer -> byte
  stage(s) -> bytes for the network stack.

Operators report their pipeline-fill contribution in operator-clock cycles
and an optional *flush* phase (used by group-by, which must consume the
whole table before emitting results, §5.4).  Data transformation is real:
the output bytes are exactly what the paper's hardware would emit.
"""

from __future__ import annotations

import abc

import numpy as np

from ..common.errors import OperatorError, PipelineCompilationError
from ..common.records import Schema


class RowOperator(abc.ABC):
    """A streaming operator over tuple batches."""

    #: Pipeline registers this block adds (contributes to fill latency).
    fill_latency_cycles: int = 4

    def __init__(self, name: str):
        self.name = name
        self.rows_in = 0
        self.rows_out = 0
        self._bound = False

    # -- lifecycle -------------------------------------------------------------
    def bind(self, schema: Schema) -> Schema:
        """Validate against the input schema; return the output schema."""
        out = self._bind(schema)
        self._bound = True
        return out

    @abc.abstractmethod
    def _bind(self, schema: Schema) -> Schema:
        ...

    def process(self, batch: np.ndarray) -> np.ndarray:
        """Transform one batch (may return fewer/more rows, or none)."""
        if not self._bound:
            raise OperatorError(f"operator {self.name!r} used before bind()")
        self.rows_in += len(batch)
        out = self._process(batch)
        self.rows_out += len(out)
        return out

    @abc.abstractmethod
    def _process(self, batch: np.ndarray) -> np.ndarray:
        ...

    def flush(self) -> np.ndarray | None:
        """End-of-stream output (None for fully streaming operators)."""
        return None

    def flush_cycles(self) -> int:
        """Operator-clock cycles consumed by the flush phase."""
        return 0


class ByteOperator(abc.ABC):
    """A streaming transformation over the raw byte stream.

    Chunks may be ``bytes`` or read-only ``memoryview`` bursts straight off
    the memory stack; implementations must not assume they own the buffer.
    """

    fill_latency_cycles: int = 4

    def __init__(self, name: str):
        self.name = name
        self.bytes_in = 0

    def process(self, chunk: bytes | memoryview) -> bytes:
        self.bytes_in += len(chunk)
        return self._process(chunk)

    @abc.abstractmethod
    def _process(self, chunk: bytes | memoryview) -> bytes:
        ...

    @abc.abstractmethod
    def finish(self) -> bytes:
        """Drain any internal remainder at end of stream."""


class _RowParser:
    """Splits the incoming byte stream into whole tuples of a schema.

    Bursts from the memory stack do not respect row boundaries; the parser
    buffers the residual bytes of a split row until the next burst.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._residue = b""

    def feed(self, chunk: bytes | memoryview) -> np.ndarray:
        """Parse one burst into whole rows — zero-copy on the aligned path.

        Bursts from the memory stack are row-aligned in the common case
        (burst size is a multiple of the row width), so the chunk is viewed
        in place; only a split row's tail is ever copied into the residue.
        """
        width = self.schema.row_width
        if self._residue:
            chunk = self._residue + bytes(chunk)
            self._residue = b""
        extra = len(chunk) % width
        if extra:
            split = len(chunk) - extra
            # Compact copy of the tail so the burst buffer is not pinned.
            self._residue = bytes(chunk[split:])
            chunk = chunk[:split]
        if not len(chunk):
            return self.schema.empty(0)
        return self.schema.from_bytes(chunk)

    def finish(self) -> None:
        if self._residue:
            raise OperatorError(
                f"stream ended mid-tuple: {len(self._residue)} residual bytes "
                f"(row width {self.schema.row_width})")


class OperatorPipeline:
    """A complete pipeline as deployed into one dynamic region (§5.1).

    ``pre_ops`` run on raw bytes before parsing (e.g. decryption of data at
    rest); ``row_ops`` run on tuples; the packer serializes surviving
    tuples; ``post_ops`` run on packed output bytes (e.g. encryption for
    transmission).
    """

    def __init__(self, name: str, input_schema: Schema,
                 row_ops: list[RowOperator],
                 pre_ops: list[ByteOperator] | None = None,
                 post_ops: list[ByteOperator] | None = None):
        self.name = name
        self.input_schema = input_schema
        self.pre_ops = list(pre_ops or [])
        self.row_ops = list(row_ops)
        self.post_ops = list(post_ops or [])
        self._parser = _RowParser(input_schema)
        schema = input_schema
        try:
            for op in self.row_ops:
                schema = op.bind(schema)
        except OperatorError as exc:
            raise PipelineCompilationError(
                f"pipeline {name!r}: {exc}") from exc
        self.output_schema = schema
        self.bytes_in = 0
        self.bytes_out = 0
        self._flushed = False

    # -- streaming -------------------------------------------------------------
    def process_chunk(self, chunk: bytes | memoryview) -> bytes:
        """Push one burst of base-table bytes; returns output-ready bytes."""
        if self._flushed:
            raise OperatorError(f"pipeline {self.name!r} already flushed")
        self.bytes_in += len(chunk)
        for op in self.pre_ops:
            chunk = op.process(chunk)
        batch = self._parser.feed(chunk)
        out = self._run_rows(batch)
        return self._emit(out)

    def flush(self) -> bytes:
        """End of stream: drain flush phases (group-by results, CTR tails)."""
        if self._flushed:
            raise OperatorError(f"pipeline {self.name!r} already flushed")
        self._flushed = True
        for op in self.pre_ops:
            tail = op.finish()
            if tail:
                raise OperatorError(
                    f"pre-stage {op.name!r} held back {len(tail)} bytes")
        self._parser.finish()
        # Cascade flushes: operator i's flush output passes through i+1..n.
        collected = self.output_schema.empty(0)
        for i, op in enumerate(self.row_ops):
            tail = op.flush()
            if tail is None or len(tail) == 0:
                continue
            for downstream in self.row_ops[i + 1:]:
                tail = downstream.process(tail)
                if len(tail) == 0:
                    break
            if len(tail):
                collected = np.concatenate([collected, tail])
        out = self._emit_rows(collected)
        for op in self.post_ops:
            out += op.finish()
        self.bytes_out += len(out)
        return out

    def _run_rows(self, batch: np.ndarray) -> np.ndarray:
        for op in self.row_ops:
            if len(batch) == 0:
                return self.output_schema.empty(0)
            batch = op.process(batch)
        return batch

    def _emit(self, rows: np.ndarray) -> bytes:
        out = self._emit_rows(rows)
        self.bytes_out += len(out)
        return out

    def _emit_rows(self, rows: np.ndarray) -> bytes:
        data = self.output_schema.to_bytes(rows) if len(rows) else b""
        for op in self.post_ops:
            data = op.process(data)
        return data

    # -- timing hooks -------------------------------------------------------------
    @property
    def fill_latency_cycles(self) -> int:
        return (sum(op.fill_latency_cycles for op in self.pre_ops)
                + sum(op.fill_latency_cycles for op in self.row_ops)
                + sum(op.fill_latency_cycles for op in self.post_ops))

    def flush_cycles(self) -> int:
        return sum(op.flush_cycles() for op in self.row_ops)

    @property
    def operator_names(self) -> list[str]:
        return ([op.name for op in self.pre_ops]
                + [op.name for op in self.row_ops]
                + [op.name for op in self.post_ops])
