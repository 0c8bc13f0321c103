"""Schema and row encoding round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.common.records import (
    Column,
    Schema,
    _group_words,
    concat_rows,
    copy_rows,
    default_schema,
    first_occurrence,
    key_image,
    string_schema,
    take_rows,
    wide_schema,
)


def test_default_schema_is_8x8():
    schema = default_schema()
    assert len(schema) == 8
    assert schema.row_width == 64
    assert schema.names[:3] == ("a", "b", "c")


def test_default_schema_second_column_is_float():
    schema = default_schema()
    assert schema.column("b").kind == "float64"
    assert schema.column("a").kind == "int64"


def test_column_rejects_unknown_kind():
    with pytest.raises(QueryError):
        Column("x", "int32")


def test_column_rejects_wrong_width_for_fixed_kind():
    with pytest.raises(QueryError):
        Column("x", "int64", width=4)


def test_char_column_requires_positive_width():
    with pytest.raises(QueryError):
        Column("x", "char", width=0)


def test_schema_rejects_duplicate_names():
    with pytest.raises(QueryError):
        Schema([Column("a", "int64"), Column("a", "int64")])


def test_schema_rejects_empty():
    with pytest.raises(QueryError):
        Schema([])


def test_offsets_are_cumulative():
    schema = default_schema()
    assert [schema.byte_range(n)[0] for n in "abh"] == [0, 8, 56]


def test_byte_range():
    schema = default_schema()
    assert schema.byte_range("c") == (16, 8)


def test_unknown_column_raises():
    schema = default_schema()
    with pytest.raises(QueryError):
        schema.column("zz")
    with pytest.raises(QueryError):
        schema.byte_range("zz")


def test_names_is_computed_once():
    schema = default_schema()
    assert schema.names is schema.names


def test_project_preserves_order():
    schema = default_schema()
    sub = schema.project(["c", "a"])
    assert sub.names == ("c", "a")
    assert sub.row_width == 16


def test_round_trip_bytes():
    schema = default_schema()
    rows = schema.empty(4)
    rows["a"] = [1, 2, 3, 4]
    rows["b"] = [0.5, 1.5, 2.5, 3.5]
    image = schema.to_bytes(rows)
    assert len(image) == 4 * 64
    back = schema.from_bytes(image)
    np.testing.assert_array_equal(back["a"], rows["a"])
    np.testing.assert_array_equal(back["b"], rows["b"])


def test_from_bytes_rejects_ragged_image():
    schema = default_schema()
    with pytest.raises(QueryError):
        schema.from_bytes(b"\x00" * 65)


def test_wide_schema_widths():
    schema = wide_schema(512)
    assert schema.row_width == 512
    assert len(schema) == 64


def test_wide_schema_rejects_ragged():
    with pytest.raises(QueryError):
        wide_schema(100, attr_bytes=8)


def test_string_schema():
    schema = string_schema(256)
    assert schema.row_width == 264
    assert schema.column("s").kind == "char"


def test_string_schema_honours_key_bytes():
    schema = string_schema(64, key_bytes=16)
    assert schema.column("id").kind == "char"
    assert schema.column("id").width == 16
    assert schema.row_width == 80
    default = string_schema(64)
    assert default.column("id").kind == "int64"
    assert default.column("id").width == 8


def test_schema_equality_and_hash():
    assert default_schema() == default_schema()
    assert hash(default_schema()) == hash(default_schema())
    assert default_schema() != wide_schema(512)


def test_generated_names_do_not_collide():
    schema = wide_schema(8 * 60)
    assert len(set(schema.names)) == 60


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                min_size=1, max_size=64))
def test_round_trip_property_int64(values):
    schema = Schema([Column("v", "int64")])
    rows = schema.empty(len(values))
    rows["v"] = values
    back = schema.from_bytes(schema.to_bytes(rows))
    assert back["v"].tolist() == values


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=32))
def test_round_trip_property_char(blobs):
    schema = Schema([Column("s", "char", 16)])
    rows = schema.empty(len(blobs))
    rows["s"] = blobs
    back = schema.from_bytes(schema.to_bytes(rows))
    # numpy S-columns strip trailing NULs; compare against that normal form
    for got, want in zip(back["s"], blobs):
        assert got == want.rstrip(b"\x00")[:16] or got == want[:16].rstrip(b"\x00")


# --- the host's grouping kernel: key_image + first_occurrence ------------------

#: key width -> (schema, key columns).  Keys of at most 8 bytes group as
#: one unsigned word each (widths 1, 2, 4 and 8 viewed, 3 and 7
#: zero-padded), wider ones through the dict pass: a 1 B and a 512 B
#: whole-row key (the block-copy path), an 8 B single column, a 3 B and
#: a 4 B char key (the view's ``cat``), a 7 B key of two adjacent columns,
#: a 9 B key (the first width still on the dict route) and a 24 B key of
#: three non-adjacent columns (the packing path).
KEYED = {
    1: (Schema([Column("k", "char", 1)]), ("k",)),
    3: (Schema([Column("k", "char", 3), Column("v", "int64")]), ("k",)),
    4: (Schema([Column("id", "int64"), Column("k", "char", 4),
                Column("v", "float64")]), ("k",)),
    7: (Schema([Column("p", "char", 2), Column("k", "char", 5),
                Column("v", "int64")]), ("p", "k")),
    8: (Schema([Column("k", "int64"), Column("v", "float64")]), ("k",)),
    9: (Schema([Column("v", "int64"), Column("k", "char", 9)]), ("k",)),
    24: (Schema([Column("k", "int64"), Column("pad", "int64"),
                 Column("f", "float64"), Column("s", "char", 8)]),
         ("s", "k", "f")),
    512: (wide_schema(512), wide_schema(512).names),
}


def check_kernel_against_dict(rows, columns, cut=slice(None)):
    """``first_occurrence(key_image(...)[cut])`` vs a plain python dict over
    the concatenated column bytes of each row of ``rows[cut]``: in one call
    (the word route for a key of at most 8 bytes), in one call with a fresh
    map (the dict route) and streamed.  ``cut`` takes a strided or prefix
    view of the packed keys, as a caller grouping part of an image does."""
    part = rows[cut]
    images = [b"".join(part[name][i:i + 1].tobytes() for name in columns)
              for i in range(len(part))]
    index: dict[bytes, int] = {}
    group = [index.setdefault(image, len(index)) for image in images]
    keys = key_image(rows, columns)
    assert keys.dtype.kind == "V" and not np.shares_memory(keys, rows)
    keys = keys[cut]
    assert keys.tolist() == images
    first, got = first_occurrence(keys)
    assert got.tolist() == group
    assert first.tolist() == [group.index(g) for g in range(len(index))]
    assert first.dtype == got.dtype == np.intp
    mapped = first_occurrence(keys, {})
    assert [a.tolist() for a in mapped] == [first.tolist(), group]
    # Streamed five rows at a time through a long-lived map: the same
    # groups, each key introduced once, the map left as the dict.
    seen: dict[bytes, int] = {}
    streamed, introduced = [], []
    for start in range(0, len(keys), 5):
        new, part_group = first_occurrence(keys[start:start + 5], seen)
        streamed += part_group.tolist()
        introduced += (new + start).tolist()
    assert (streamed, introduced) == (group, first.tolist())
    assert list(seen.items()) == list(index.items())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_first_occurrence_matches_dict_oracle(data):
    schema, columns = KEYED[data.draw(st.sampled_from(sorted(KEYED)))]
    pool = data.draw(st.lists(
        st.binary(min_size=schema.row_width, max_size=schema.row_width),
        min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=48))
    rows = schema.from_bytes(b"".join(pool[i] for i in picks))
    check_kernel_against_dict(rows, columns)
    # A strided view and a prefix (the join's ``image[:k]``) of the keys.
    check_kernel_against_dict(rows, columns, slice(None, None, 2))
    check_kernel_against_dict(
        rows, columns, slice(data.draw(st.integers(0, len(rows)))))


@pytest.mark.parametrize("width", sorted(KEYED))
def test_first_occurrence_many_rows_few_keys(width):
    """4,096 rows over five keys, each key's rows spread over the whole
    input: a group's first row is its earliest, which an unstable sort of
    the key words gets wrong unless it takes each run's least row, and
    equal keys stay equal whatever bytes pad them to a word."""
    schema, columns = KEYED[width]
    pool = np.random.default_rng(width).integers(
        0, 256, (5, schema.row_width), dtype=np.uint8)
    picks = np.random.default_rng(width + 1).integers(0, 5, 4_096)
    rows = schema.from_bytes(pool[picks].tobytes())
    check_kernel_against_dict(rows, columns)
    check_kernel_against_dict(rows, columns, slice(1, None, 3))


@pytest.mark.parametrize("width", sorted(KEYED))
@pytest.mark.parametrize("shape", ["zero rows", "one row", "all equal",
                                   "all distinct"])
def test_first_occurrence_edge_shapes(width, shape):
    schema, columns = KEYED[width]
    n = {"zero rows": 0, "one row": 1}.get(shape, 32)
    rows = schema.empty(n)
    if shape == "all distinct":
        rows[columns[0]] = (np.arange(n) if width > 1
                            else [bytes([65 + i]) for i in range(n)])
    check_kernel_against_dict(rows, columns)
    first, group = first_occurrence(key_image(rows, columns))
    distinct = n if shape == "all distinct" else min(n, 1)
    assert len(first) == distinct and len(group) == n


def test_keys_group_on_bytes_not_values():
    """On both routes: the word route (no map, a key of at most 8 bytes)
    and the dict route (a map passed, or a wider key)."""
    def groups(keys):
        plain, mapped = first_occurrence(keys), first_occurrence(keys, {})
        assert [a.tolist() for a in plain] == [a.tolist() for a in mapped]
        return plain[1].tolist()

    schema = Schema([Column("f", "float64"), Column("s", "char", 4)])
    rows = schema.empty(3)
    # 0.0 == -0.0 as values; two bit patterns.
    rows["f"] = [0.0, -0.0, 0.0]
    assert groups(key_image(rows, ["f"])) == [0, 1, 0]
    assert groups(key_image(rows, ["f", "s"])) == [0, 1, 0]
    # NaN != NaN as values; a NaN equals exactly its own bit pattern.
    rows["f"] = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                          0x7FF8000000000000], dtype="<u8").view("<f8")
    assert groups(key_image(rows, ["f"])) == [0, 1, 0]
    assert groups(key_image(rows, ["f", "s"])) == [0, 1, 0]
    # A C string ends at the NUL; the key does not.
    rows = schema.from_bytes(b"".join(
        bytes(8) + s for s in (b"a\0b\0", b"a\0c\0", b"a\0b\0")))
    assert groups(key_image(rows, ["s"])) == [0, 1, 0]
    assert groups(key_image(rows, ["f", "s"])) == [0, 1, 0]
    # Zero-padding a 3-byte key to a word: a trailing NUL still counts.
    short = Schema([Column("s", "char", 3)]).from_bytes(b"a\0\0" b"a\0\1"
                                                        b"a\0\0")
    assert groups(key_image(short, ["s"])) == [0, 1, 0]
    check_kernel_against_dict(rows, ["f", "s"])
    check_kernel_against_dict(rows, ["s"])


def stable_group_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The word grouping as a stable sort computes it: a stable sort
    keeps each run in row order, so its first element is the row where
    the group first appears."""
    order = np.argsort(words, kind="stable")
    ordered = words[order]
    starts = np.ones(len(words), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    run_first = order[starts]
    rank = np.argsort(run_first)
    group_of_run = np.empty(len(rank), dtype=np.intp)
    group_of_run[rank] = np.arange(len(rank))
    group = np.empty(len(words), dtype=np.intp)
    group[order] = group_of_run[np.cumsum(starts) - 1]
    return run_first[rank], group


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["empty", "single", "all equal", "many duplicates",
                        "any"]),
       st.sampled_from(["<u1", "<u2", "<u4", "<u8"]), st.data())
def test_group_words_equals_the_stable_sort(shape, dtype, data):
    """The unstable word sort returns the stable sort's ``(first, group)``:
    the least row of each run is the row the stable sort puts first."""
    top = np.iinfo(dtype).max
    most = {"empty": 0, "single": 1, "any": 64}.get(shape, 3_000)
    n = data.draw(st.integers(min(most, 2), most), label="n")
    if shape == "all equal":
        words = np.full(n, data.draw(st.integers(0, top)), dtype=dtype)
    elif shape == "many duplicates":
        pool = data.draw(st.lists(st.integers(0, top), min_size=1,
                                  max_size=5, unique=True))
        picks = np.random.default_rng(data.draw(st.integers(0, 2**32))
                                      ).integers(0, len(pool), n)
        words = np.array(pool, dtype=dtype)[picks]
    else:
        words = np.array(data.draw(st.lists(st.integers(0, top), min_size=n,
                                            max_size=n)), dtype=dtype)
    first, group = _group_words(words)
    want_first, want_group = stable_group_words(words)
    assert first.dtype == group.dtype == np.intp
    np.testing.assert_array_equal(first, want_first)
    np.testing.assert_array_equal(group, want_group)


# --- the row helpers: whole rows moved as one block each -----------------------

#: An int64, a float64 and a char column with room for embedded NULs.
MIXED = Schema([Column("i", "int64"), Column("f", "float64"),
                Column("s", "char", 5)])
#: Float bit patterns a value-wise copy could change: +0.0, -0.0, quiet
#: and signalling NaNs with payloads, a negative NaN, +inf.
FLOAT_BITS = (0, 1 << 63, 0x7FF8000000000000, 0x7FF8DEADBEEF0001,
              0x7FF0000000000001, 0xFFF8000000000123, 0x7FF0000000000000)


@st.composite
def mixed_rows(draw, min_size=0):
    """A read-only, a writable, or a strided :data:`MIXED` array."""
    n = draw(st.integers(min_size, 24))
    image = bytearray()
    for _ in range(n):
        image += draw(st.integers(-2**63, 2**63 - 1)).to_bytes(
            8, "little", signed=True)
        image += draw(st.one_of(st.sampled_from(FLOAT_BITS),
                                st.integers(0, 2**64 - 1))).to_bytes(
            8, "little")
        image += bytes(draw(st.lists(st.sampled_from([0, 0, 1, 65, 255]),
                                     min_size=5, max_size=5)))
    layout = draw(st.sampled_from(["read-only", "writable", "strided"]))
    if layout == "read-only":
        rows = MIXED.from_bytes(bytes(image))
        assert not rows.flags.writeable
        return rows
    if layout == "writable":
        return np.frombuffer(image, dtype=MIXED.dtype)
    step = draw(st.integers(2, 3))
    wide = MIXED.from_bytes(bytes(image) * step)
    return wide[draw(st.integers(0, step - 1))::step]


def assert_same_rows(got: np.ndarray, want: np.ndarray,
                     source: np.ndarray) -> None:
    """Same dtype, shape and bytes; owned, writable and apart from
    ``source``."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.flags.c_contiguous
    assert not np.shares_memory(got, source)


@settings(max_examples=100, deadline=None)
@given(mixed_rows(), st.data())
def test_take_rows_equals_a_structured_gather(rows, data):
    n = len(rows)
    kind = data.draw(st.sampled_from(["empty", "full", "drawn", "mask"]))
    if kind == "empty":
        index = np.array([], dtype=np.intp)
    elif kind == "full":
        index = np.arange(n)
    elif kind == "mask":
        index = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                            max_size=n)), dtype=bool)
    else:
        # Repeated, out of order and negative indices.
        index = np.array(data.draw(st.lists(st.integers(-n, n - 1))
                                   if n else st.just([])), dtype=np.intp)
    assert_same_rows(take_rows(rows, index), rows[index], rows)


@settings(max_examples=100, deadline=None)
@given(mixed_rows())
def test_copy_rows_equals_a_structured_copy(rows):
    assert_same_rows(copy_rows(rows), rows.copy(), rows)
    copied = MIXED.from_bytes(rows.tobytes(), copy=True)
    assert copied.flags.writeable and copied.tobytes() == rows.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_rows(), min_size=1, max_size=3))
def test_concat_rows_equals_a_structured_concatenate(parts):
    got = concat_rows(parts)
    want = np.concatenate(parts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got.flags.writeable
    assert not any(np.shares_memory(got, part) for part in parts)

