"""Fixed-width row encoding: schemas, tuples, and byte serialization.

The paper stores base tables in **row format** (§5, footnote 1) with
fixed-length attributes; the default evaluation table has 8 attributes of
8 bytes each (§6.2).  This module provides:

* :class:`Column` / :class:`Schema` — column metadata with byte offsets,
* conversion between numpy structured arrays and the flat byte image that
  lives in simulated DRAM,
* helpers used by the projection operator (column byte ranges) and by the
  packing unit (packed output schemas),
* :func:`key_image` / :func:`first_occurrence` — how the host packs
  fixed-width key columns and groups equal keys in first-seen order; every
  host-side DISTINCT, GROUP BY, merge and duplicate check is an array
  transform on these two,
* :func:`take_rows` / :func:`copy_rows` / :func:`concat_rows` — how the
  host gathers, copies and joins whole rows: as one block per row.

Data always round-trips bytes -> array -> bytes exactly, which the tests
and the smart-addressing path rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import QueryError

#: Supported fixed-width column kinds and their numpy dtypes.
_KIND_DTYPES = {
    "int64": np.dtype("<i8"),
    "uint64": np.dtype("<u8"),
    "float64": np.dtype("<f8"),
}


@dataclass(frozen=True)
class Column:
    """A fixed-width column.

    ``kind`` is one of ``int64``, ``uint64``, ``float64`` or ``char`` (a
    fixed-length byte string whose width is given by ``width``).
    """

    name: str
    kind: str
    width: int = 8

    def __post_init__(self) -> None:
        if self.kind in _KIND_DTYPES:
            expected = _KIND_DTYPES[self.kind].itemsize
            if self.width != expected:
                raise QueryError(
                    f"column {self.name!r}: kind {self.kind} is {expected} bytes, "
                    f"got width {self.width}")
        elif self.kind == "char":
            if self.width <= 0:
                raise QueryError(f"column {self.name!r}: char width must be > 0")
        else:
            raise QueryError(f"column {self.name!r}: unknown kind {self.kind!r}")

    @property
    def dtype(self) -> np.dtype:
        if self.kind == "char":
            return np.dtype(f"S{self.width}")
        return _KIND_DTYPES[self.kind]


class Schema:
    """An ordered collection of fixed-width columns.

    The row width is the sum of column widths (no padding — the FPGA parses
    the stream with byte-exact offsets, §5.2).
    """

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise QueryError("schema must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate column names in schema: {names}")
        self._columns = tuple(columns)
        self._names = tuple(names)
        self._offsets: dict[str, int] = {}
        off = 0
        for col in self._columns:
            self._offsets[col.name] = off
            off += col.width
        self._row_width = off
        self._dtype = np.dtype({
            "names": names,
            "formats": [c.dtype for c in self._columns],
            "offsets": [self._offsets[n] for n in names],
            "itemsize": self._row_width,
        })

    # -- basic introspection -------------------------------------------------
    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def row_width(self) -> int:
        return self._row_width

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def __len__(self) -> int:
        return len(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.kind}({c.width})" for c in self._columns)
        return f"Schema({cols})"

    def column(self, name: str) -> Column:
        for col in self._columns:
            if col.name == name:
                return col
        raise QueryError(f"unknown column {name!r}; schema has {self.names}")

    def byte_range(self, name: str) -> tuple[int, int]:
        """(offset, width) of a column within a row — used by smart addressing."""
        col = self.column(name)
        return self._offsets[name], col.width

    def project(self, names: Iterable[str]) -> "Schema":
        """A new schema containing only ``names``, in the given order."""
        return Schema([self.column(n) for n in names])

    # -- (de)serialization ----------------------------------------------------
    def to_bytes(self, rows: np.ndarray) -> bytes:
        """Serialize a structured array of this schema into a flat byte image."""
        arr = np.ascontiguousarray(rows.astype(self._dtype, copy=False))
        return arr.tobytes()

    def from_bytes(self, data: bytes | bytearray | memoryview,
                   copy: bool = False) -> np.ndarray:
        """View a flat byte image as a structured array — zero-copy.

        The returned array is a **read-only view** over ``data``: no bytes
        are duplicated, which keeps megabyte-scale burst parsing at memory
        bandwidth.  Writable input buffers are wrapped read-only first, so
        the view can never alias a mutable buffer.  Pass ``copy=True`` at
        mutation boundaries (e.g. group-by build sides) to get a writable,
        owned array instead.
        """
        mv = memoryview(data)
        if not mv.readonly:
            mv = mv.toreadonly()
        if mv.nbytes % self._row_width:
            raise QueryError(
                f"byte image of {mv.nbytes} bytes is not a multiple of the "
                f"row width {self._row_width}")
        arr = np.frombuffer(mv, dtype=self._dtype)
        return copy_rows(arr) if copy else arr

    def empty(self, nrows: int = 0) -> np.ndarray:
        """An empty (zeroed) structured array with this schema."""
        return np.zeros(nrows, dtype=self._dtype)


def key_image(rows: np.ndarray, columns: Sequence[str]) -> np.ndarray:
    """The ``columns`` of ``rows`` packed into one owned ``V<width>``
    element per row.

    Keys match on these bytes, never on values: ``0.0`` and ``-0.0``
    differ, a NaN equals its own bit pattern, and bytes after an embedded
    NUL count.
    """
    dtype = np.dtype([(name, rows.dtype[name]) for name in columns])
    if dtype == rows.dtype:
        # The key is the whole row: one block copy (:func:`copy_rows`),
        # not one strided copy per column (64 of them on a 512 B row),
        # which is what a structured ``rows.copy()`` runs on numpy 2.x.
        packed = copy_rows(rows)
    else:
        packed = np.empty(len(rows), dtype=dtype)
        for name in columns:
            packed[name] = rows[name]
    return packed.view(f"V{dtype.itemsize}")


def _blocks(rows: np.ndarray) -> np.ndarray:
    """``rows`` viewed as one ``V<row width>`` element per row."""
    return rows.view(f"V{rows.dtype.itemsize}")


def take_rows(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``rows[index]`` for an index array or a boolean mask, byte for
    byte, with each row moved as one block.

    numpy gathers, copies and concatenates a structured array field by
    field; through a ``V<row width>`` view each row is one element.  The
    three row helpers here differ from the structured operations in
    nothing else: same dtype, same bytes, an owned writable result.
    """
    return _blocks(rows)[index].view(rows.dtype)


def copy_rows(rows: np.ndarray) -> np.ndarray:
    """``rows.copy()`` with each row moved as one block
    (:func:`take_rows`)."""
    return _blocks(rows).copy().view(rows.dtype)


def concat_rows(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)`` of row arrays of one dtype, with each
    row moved as one block (:func:`take_rows`)."""
    return np.concatenate([_blocks(part) for part in parts]).view(
        parts[0].dtype)


#: A streaming ``key image -> group (slot)`` map, kept across batches.
SlotMap = dict[bytes, int]


def first_occurrence(keys: np.ndarray, seen: SlotMap | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Group equal :func:`key_image` elements in first-seen order.

    Returns ``(first, group)``: ``first[g]`` is the row where group ``g``
    first appears (ascending, so ``rows[first]`` is the first-wins dedup in
    row order) and ``group[i]`` is the group of row ``i``.

    A streaming operator passes the ``key -> group`` map it keeps across
    batches as ``seen``: groups then continue from ``len(seen)``, ``first``
    holds only the rows that introduce a key new to ``seen``, and ``seen``
    is extended by those keys.

    Two routes, chosen by the key width and by whether ``seen`` holds
    keys:

    * Without ``seen``, or with an empty one, a key of at most 8 bytes is
      one unsigned word, and grouping is one sort of the words
      (:func:`_group_words`): no Python object per row.  An empty
      ``seen`` then learns the batch's keys.  The node runs a grouping
      operator once over a whole scan, so a short-key scan is one sort.
    * With a non-empty ``seen``, or on a key wider than 8 bytes, it is
      one ``dict.setdefault`` pass run from C over the key bytes.  A sort
      of wide void keys (``np.unique``) is slower than that pass, and a
      streaming map must outlive the call anyway.
    """
    if not seen and keys.dtype.itemsize <= 8:
        first, group = _group_words(_key_words(keys))
        if seen is not None:
            seen.update(zip(keys[first].tolist(), range(len(first))))
        return first, group
    n = len(keys)
    groups = {} if seen is None else seen
    known = len(groups)
    # A key met before answers its group, a new one the provisional group
    # ``known + row`` of the row that introduces it.
    group = np.fromiter(
        map(groups.setdefault, keys.tolist(), range(known, known + n)),
        dtype=np.intp, count=n)
    first = np.flatnonzero(group == np.arange(known, known + n))
    if len(first):
        dense = np.empty(n, dtype=np.intp)
        dense[first] = np.arange(known, known + len(first))
        late = group >= known
        group[late] = dense[group[late] - known]
        if seen is not None:
            seen.update(zip(keys[first].tolist(), dense[first].tolist()))
    return first, group


def _key_words(keys: np.ndarray) -> np.ndarray:
    """Each key of at most 8 bytes as one unsigned word: equal words are
    equal key bytes.  Widths 1, 2, 4 and 8 are a view, the others are
    zero-padded to 8 bytes."""
    width = keys.dtype.itemsize
    if width in (1, 2, 4, 8):
        return keys.view(f"<u{width}")
    words = np.zeros(len(keys), dtype="<u8")
    words.view(np.dtype({"names": ["k"], "formats": [keys.dtype],
                         "itemsize": 8}))["k"] = keys
    return words


def _group_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`first_occurrence` over unsigned words.

    A sort puts each group's rows in one run, in no particular order
    (numpy's default sort is not stable, and is several times faster on
    words than the stable one); the least row of a run is where its group
    first appears, and ranking those rows gives the first-seen group
    order.
    """
    n = len(words)
    order = np.argsort(words)
    ordered = words[order]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    run_first = np.minimum.reduceat(order, np.flatnonzero(starts))
    rank = np.argsort(run_first)
    group_of_run = np.empty(len(rank), dtype=np.intp)
    group_of_run[rank] = np.arange(len(rank))
    group = np.empty(n, dtype=np.intp)
    group[order] = group_of_run[np.cumsum(starts) - 1]
    return run_first[rank], group


def default_schema() -> Schema:
    """The paper's default evaluation schema: 8 attributes x 8 bytes (§6.2).

    Columns are named ``a``, ``b``, ``c``, ... and typed ``int64`` except the
    second column, which is ``float64`` so float-predicate queries (§4.2's
    ``select`` example) have a natural target.
    """
    return Schema([Column(_attr_name(i), "float64" if i == 1 else "int64")
                   for i in range(8)])


def wide_schema(total_width: int, attr_bytes: int = 8) -> Schema:
    """A wide row of ``total_width`` bytes split into ``attr_bytes`` columns.

    Used by the Figure 7 projection experiment (256 B and 512 B tuples).
    """
    if total_width % attr_bytes:
        raise QueryError("total_width must be a multiple of attr_bytes")
    n = total_width // attr_bytes
    cols = [Column(_attr_name(i), "int64" if attr_bytes == 8 else "char", attr_bytes)
            for i in range(n)]
    return Schema(cols)


def string_schema(string_bytes: int, key_bytes: int = 8) -> Schema:
    """Schema for the regex workload: an id column plus a fixed char payload.

    The id column is ``int64`` for the natural 8-byte case and a fixed char
    column of ``key_bytes`` otherwise.
    """
    id_col = (Column("id", "int64", 8) if key_bytes == 8
              else Column("id", "char", key_bytes))
    return Schema([id_col, Column("s", "char", string_bytes)])


def _attr_name(i: int) -> str:
    """a, b, ..., z, a1, b1, ... — readable names for generated columns."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    suffix = i // len(letters)
    return letters[i % len(letters)] + (str(suffix) if suffix else "")
