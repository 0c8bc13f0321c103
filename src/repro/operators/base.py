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

The result bytes depend only on the table, so on the host a scan computes
them once: :meth:`OperatorPipeline.run` takes the whole scanned image, and
each output row carries the index of the input row it came from.  Only
the *timing* is per DRAM burst: the node hands each burst's released rows
to :meth:`OperatorPipeline.emit`, which serializes them through the
packer-side byte stages exactly as a burst-by-burst pipeline would.
"""

from __future__ import annotations

import abc

import numpy as np

from ..common.errors import OperatorError, PipelineCompilationError
from ..common.records import Schema


class RowOperator(abc.ABC):
    """A streaming operator over tuple batches.

    :meth:`process` returns the output rows together with, for each of
    them, the index of the input row it came from (ascending).  The
    node runs the operators once over a whole table image and releases
    an output row with the DRAM burst that carried its source row's last
    byte, so the source index is what keeps the result streaming.
    GROUP BY and the standalone aggregate return no rows until
    :meth:`flush`.
    """

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

    def process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transform one batch: ``(rows, source)``, where ``source[j]`` is
        the index in ``batch`` of the row output row ``j`` came from."""
        if not self._bound:
            raise OperatorError(f"operator {self.name!r} used before bind()")
        self.rows_in += len(batch)
        out, source = self._process(batch)
        self.rows_out += len(out)
        return out, source

    @abc.abstractmethod
    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ...

    def flush(self) -> np.ndarray | None:
        """End-of-stream output (None for fully streaming operators)."""
        return None

    def flush_cycles(self) -> int:
        """Operator-clock cycles consumed by the flush phase."""
        return 0


#: The ``source`` of an operator that emits nothing while streaming.
NO_SOURCE = np.empty(0, dtype=np.intp)
NO_SOURCE.flags.writeable = False


class ByteOperator(abc.ABC):
    """A streaming transformation over the raw byte stream.

    Chunks may be ``bytes`` or a read-only ``memoryview`` of a table image
    straight off the memory stack; implementations must not assume they
    own the buffer.
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

    # -- execution --------------------------------------------------------------
    def run(self, image: bytes | memoryview) -> tuple[np.ndarray, np.ndarray]:
        """Run the pre-ops and row operators over a whole input image,
        once; returns ``(rows, source)``: the output rows (flush output
        aside) and, for each, the index of the input row it came from,
        ascending.  The node hands the rows to :meth:`emit` as the DRAM
        bursts carrying their source rows are timed."""
        if self._flushed:
            raise OperatorError(f"pipeline {self.name!r} already flushed")
        self.bytes_in += len(image)
        for op in self.pre_ops:
            image = op.process(image)
            tail = op.finish()
            if tail:
                raise OperatorError(
                    f"pre-stage {op.name!r} held back {len(tail)} bytes")
        width = self.input_schema.row_width
        if len(image) % width:
            raise OperatorError(
                f"stream ended mid-tuple: {len(image) % width} residual "
                f"bytes (row width {width})")
        batch = self.input_schema.from_bytes(image)
        source = np.arange(len(batch))
        for op in self.row_ops:
            if len(batch) == 0:
                return self.output_schema.empty(0), NO_SOURCE
            batch, picked = op.process(batch)
            source = source[picked]
        return batch, source

    def emit(self, rows: np.ndarray) -> bytes:
        """Serialize released output rows and pass them through the
        post-ops (the packer side).  An empty slice would emit nothing
        and move no CTR carry, so a caller need not make the call."""
        if self._flushed:
            raise OperatorError(f"pipeline {self.name!r} already flushed")
        out = self._emit_rows(rows)
        self.bytes_out += len(out)
        return out

    def flush(self) -> bytes:
        """End of stream: drain flush phases (group-by results, CTR tails)."""
        if self._flushed:
            raise OperatorError(f"pipeline {self.name!r} already flushed")
        self._flushed = True
        # Cascade flushes: operator i's flush output passes through i+1..n.
        collected = self.output_schema.empty(0)
        for i, op in enumerate(self.row_ops):
            tail = op.flush()
            if tail is None or len(tail) == 0:
                continue
            for downstream in self.row_ops[i + 1:]:
                tail, _ = downstream.process(tail)
                if len(tail) == 0:
                    break
            if len(tail):
                collected = np.concatenate([collected, tail])
        out = self._emit_rows(collected)
        for op in self.post_ops:
            out += op.finish()
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
