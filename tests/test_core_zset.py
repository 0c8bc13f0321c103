"""The columnar Z-set against the dict Z-set it replaced.

``core/zset.ZSet`` is a row-image array beside an ``int64`` weight
vector, and the stateful circuit stages and the chain tracker are array
transforms over it.  The code they replaced — a ``dict[bytes, int]`` per
Z-set, one Python step per entry in ``DistinctStage`` / ``GroupStage`` /
``JoinStage`` / ``ChainTracker.apply_batch`` — lives on below as the
**reference**: every refresh a real client performs is replayed, from
the same segment bytes, through a reference catalog built from it, and
the two must agree on every view's canonical bytes, entry count, total
weight, digest (against the Python-int ``sum(w * h) mod 2^64`` formula)
and on the ``RefreshStats``.

The streams are hypothesis-generated: weights above 1, rows retracted to
zero and re-inserted, ``±0.0`` and NaN payloads, int64 keys beyond 2^53,
static and versioned build sides, two shard trackers with overlapping
row ids, multi-segment batches and a compaction mid-stream.  Summed and
averaged columns hold dyadic rationals: a group folds in member-arrival
order and a multi-segment batch may hand the two implementations their
new members in different orders (docs/VIEWS.md, exactness caveat).

The algebra cells at the end are the ``ZSet`` unit tests.
"""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.sw_ops import software_aggregate, software_groupby
from repro.common.config import FarviewConfig, MemoryConfig
from repro.common.errors import OperatorError, QueryError
from repro.common.records import Column, Schema, key_image
from repro.core.api import ClusterClient, FarviewClient
from repro.core.cluster import FarviewCluster
from repro.core.node import FarviewNode
from repro.core.table import FTable
from repro.core.versioning import (ROWID_COLUMN, delete_schema,
                                   delta_schema)
from repro.core.views import (Circuit, DistinctStage, GroupStage, JoinStage,
                              MapStage, MaskStage, RefreshStats)
from repro.core.zset import ZSet, stage_slots
from repro.operators.aggregate import AggregateSpec, grouped_schema
from repro.operators.hashing import hash_key_batch
from repro.operators.join import join_output_schema
from repro.operators.selection import Compare
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * KB
_U64 = 1 << 64


# ---------------------------------------------------------------------------
# The reference: the dict Z-set and the per-entry loops, as they were
# ---------------------------------------------------------------------------

class RefZSet:
    """A consolidated mapping from row byte-images to signed weights."""

    def __init__(self, schema, weights=None):
        self.schema = schema
        self.weights: dict[bytes, int] = weights or {}

    @classmethod
    def from_rows(cls, schema, rows, weight=1):
        zset = cls(schema)
        if weight:
            for image in key_image(rows, schema.names).tolist():
                zset.add(image, weight)
        return zset

    def add(self, image, weight):
        if not weight:
            return
        total = self.weights.get(image, 0) + weight
        if total:
            self.weights[image] = total
        else:
            del self.weights[image]

    def update(self, other):
        for image, weight in other.weights.items():
            self.add(image, weight)

    @property
    def entry_count(self):
        return len(self.weights)

    @property
    def total_weight(self):
        return sum(self.weights.values())

    def __iter__(self):
        return iter(self.weights.items())

    def decode(self):
        rows = self.schema.from_bytes(b"".join(self.weights), copy=True)
        weights = np.fromiter(self.weights.values(), dtype=np.int64,
                              count=len(self.weights))
        return rows, weights

    def canonical_bytes(self):
        parts = []
        for image in sorted(self.weights):
            weight = self.weights[image]
            if weight < 0:
                raise QueryError(f"negative weight {weight} in canonical "
                                 f"image: this Z-set is a delta")
            parts.append(image * weight)
        return b"".join(parts)

    def digest(self):
        """``sum(w * h(row)) mod 2^64`` in Python integers."""
        total = 0
        for image, weight in self.weights.items():
            h = int(hash_key_batch(image, self.schema.row_width)[0])
            total = (total + weight * h) % _U64
        return total


class RefLinear:
    """A mask or map stage, run through the same kernel callable."""

    def __init__(self, stage):
        self.stage = stage
        self.out_schema = stage.out_schema

    def apply(self, delta):
        out = RefZSet(self.out_schema)
        rows, weights = delta.decode()
        if isinstance(self.stage, MaskStage):
            keep = self.stage.mask(rows).tolist()
            for (image, weight), kept in zip(delta, keep):
                if kept:
                    out.add(image, weight)
            return out
        images = key_image(self.stage.kernel(rows), self.out_schema.names)
        for image, weight in zip(images.tolist(), weights.tolist()):
            out.add(image, weight)
        return out


class RefDistinct:
    def __init__(self, schema):
        self.out_schema = schema
        self.multiplicity: dict[bytes, int] = {}

    def apply(self, delta):
        out = RefZSet(self.out_schema)
        for image, weight in delta:
            old = self.multiplicity.get(image, 0)
            new = old + weight
            if new < 0:
                raise QueryError("distinct state went negative")
            if new:
                self.multiplicity[image] = new
            else:
                self.multiplicity.pop(image, None)
            if old == 0 and new > 0:
                out.add(image, 1)
            elif old > 0 and new == 0:
                out.add(image, -1)
        return out


class RefGroup:
    def __init__(self, schema, group_by, aggregates):
        self.in_schema = schema
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.out_schema = grouped_schema(schema, group_by, aggregates)
        self.groups: dict[bytes, dict[bytes, int]] = {}

    def _output_row(self, key):
        members = self.groups.get(key)
        if not members:
            return None
        weights = np.fromiter(members.values(), dtype=np.int64,
                              count=len(members))
        if (weights < 0).any():
            raise QueryError("group state went negative")
        rows = np.repeat(self.in_schema.from_bytes(b"".join(members)),
                         weights)
        if self.group_by:
            out = software_groupby(rows, self.in_schema, self.group_by,
                                   self.aggregates).rows
        else:
            out = software_aggregate(rows, self.in_schema, self.aggregates)
        return key_image(out, self.out_schema.names).tolist()[0]

    def apply(self, delta):
        out = RefZSet(self.out_schema)
        images = list(delta.weights)
        rows, weights = delta.decode()
        keys = (key_image(rows, self.group_by).tolist() if self.group_by
                else [b""] * len(images))
        touched: dict[bytes, list] = {}
        for image, key, weight in zip(images, keys, weights.tolist()):
            touched.setdefault(key, []).append((image, weight))
        for key, changes in touched.items():
            old = self._output_row(key)
            members = self.groups.setdefault(key, {})
            for image, weight in changes:
                total = members.get(image, 0) + weight
                if total:
                    members[image] = total
                else:
                    members.pop(image, None)
            if not members:
                self.groups.pop(key, None)
            new = self._output_row(key)
            if old is not None:
                out.add(old, -1)
            if new is not None:
                out.add(new, 1)
        return out


class RefJoin:
    def __init__(self, stage: JoinStage):
        self.build_name = stage.build_name
        self.dynamic = stage.dynamic
        self.prestages = [RefLinear(s) for s in stage.prestages]
        self.out_schema = join_output_schema(
            stage.probe_schema, stage.build_schema, list(stage.payload))
        self._probe_key = self._slice(stage.probe_schema, stage.probe_key)
        self._build_key = self._slice(stage.build_schema, stage.build_key)
        self._payload = [self._slice(stage.build_schema, name)
                         for name in stage.payload]
        self.build_index: dict[bytes, dict[bytes, int]] = {}
        self.probe_index: dict[bytes, dict[bytes, int]] = {}

    @staticmethod
    def _slice(schema, name):
        offset, width = schema.byte_range(name)
        return slice(offset, offset + width)

    @staticmethod
    def _by_key(zset, key_slice):
        keyed: dict[bytes, dict[bytes, int]] = {}
        for image, weight in zset:
            keyed.setdefault(image[key_slice], {})[image] = weight
        return keyed

    @staticmethod
    def _merge(index, deltas):
        for key, entries in deltas.items():
            slot = index.setdefault(key, {})
            for image, weight in entries.items():
                total = slot.get(image, 0) + weight
                if total:
                    slot[image] = total
                else:
                    slot.pop(image, None)
            if not slot:
                index.pop(key, None)

    def _check(self, keys):
        for key in keys:
            slot = self.build_index.get(key)
            if slot and (len(slot) > 1
                         or any(w < 0 or w > 1 for w in slot.values())):
                raise QueryError("duplicate build key")

    def _emit(self, out, probe_side, build_side):
        for key in probe_side:
            for build_image, build_weight in build_side.get(key, {}).items():
                tail = b"".join(build_image[s] for s in self._payload)
                for probe_image, probe_weight in probe_side[key].items():
                    out.add(probe_image + tail, probe_weight * build_weight)

    def step(self, probe_delta, build_delta):
        build_keyed = {}
        if build_delta is not None:
            for stage in self.prestages:
                build_delta = stage.apply(build_delta)
            build_keyed = self._by_key(build_delta, self._build_key)
        probe_keyed = self._by_key(probe_delta, self._probe_key)
        out = RefZSet(self.out_schema)
        self._emit(out, probe_keyed, self.build_index)   # dR |x| S
        self._emit(out, self.probe_index, build_keyed)   # R |x| dS
        self._emit(out, probe_keyed, build_keyed)        # dR |x| dS
        if self.dynamic:
            self._merge(self.probe_index, probe_keyed)
        self._merge(self.build_index, build_keyed)
        self._check(build_keyed)
        return out


def ref_stage(stage):
    if isinstance(stage, (MaskStage, MapStage)):
        return RefLinear(stage)
    if isinstance(stage, DistinctStage):
        return RefDistinct(stage.out_schema)
    if isinstance(stage, GroupStage):
        return RefGroup(stage.in_schema, stage.group_by, stage.aggregates)
    assert isinstance(stage, JoinStage)
    return RefJoin(stage)


class RefView:
    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.stages = [ref_stage(stage) for stage in circuit.stages]
        self.contents = RefZSet(circuit.out_schema)

    def step(self, deltas):
        current = deltas.get(self.circuit.base_name)
        if current is None:
            current = RefZSet(self.circuit.in_schema)
        for stage in self.stages:
            if isinstance(stage, RefJoin):
                current = stage.step(current, deltas.get(stage.build_name))
            else:
                current = stage.apply(current)
        return current


class RefTracker:
    """The row-id -> image dict mirror and its per-row ``apply_batch``."""

    def __init__(self, tracker):
        self.schema = tracker.chain.schema
        self.table_name = tracker.table_name
        self.images = dict(zip(tracker.rowids.tolist(),
                               tracker.images.tolist()))

    def apply_batch(self, batch):
        delta = RefZSet(self.schema)
        for segment, data in batch:
            if segment.kind == "delete":
                rowids = delete_schema().from_bytes(data)[ROWID_COLUMN]
                for rid in rowids.tolist():
                    delta.add(self.images.pop(int(rid)), -1)
                continue
            decoded = delta_schema(self.schema).from_bytes(data)
            images = key_image(decoded, self.schema.names).tolist()
            rowids = decoded[ROWID_COLUMN].tolist()
            for rid, image in zip(rowids, images):
                if segment.kind == "update":
                    delta.add(self.images[int(rid)], -1)
                delta.add(image, 1)
                self.images[int(rid)] = image
        return delta


class RefCatalog:
    """The old ``ViewCatalog.apply_refresh`` over the reference stages,
    bootstrapped from the real trackers' snapshot and static builds."""

    def __init__(self, client, statics):
        engine = client.views
        self.trackers = {id(t): RefTracker(t)
                         for ts in engine.trackers.values() for t in ts}
        self.views = {name: RefView(view.circuit)
                      for name, view in engine.views.items()}
        for name, view in self.views.items():
            boot = {}
            for table in view.circuit.dynamic_tables:
                boot[table] = RefZSet(engine.trackers[table][0].chain.schema)
                for tracker in engine.trackers[table]:
                    for image in self.trackers[id(tracker)].images.values():
                        boot[table].add(image, 1)
            for stage, handle in view.circuit.static_loads:
                boot[stage.build_name] = RefZSet.from_rows(
                    handle.schema, statics[handle.name])
            view.contents = view.step(boot)

    def apply_refresh(self, reads):
        stats = RefreshStats()
        by_tracker = {}
        for tracker, segment, data in reads:
            by_tracker.setdefault(id(tracker), []).append((segment, data))
            stats.segments += 1
            stats.delta_rows += segment.num_rows
            stats.bytes_read += len(data)
        deltas = {}
        for key, batch in by_tracker.items():
            tracker = self.trackers[key]
            delta = tracker.apply_batch(batch)
            if tracker.table_name in deltas:
                deltas[tracker.table_name].update(delta)
            else:
                deltas[tracker.table_name] = delta
        for view in self.views.values():
            inputs = {table: deltas[table]
                      for table in view.circuit.dynamic_tables
                      if table in deltas and deltas[table].weights}
            if inputs:
                out = view.step(inputs)
                view.contents.update(out)
                stats.views_stepped += 1
                stats.output_delta_rows += out.entry_count
        return stats


def assert_same(zset: ZSet, ref: RefZSet, where: str) -> None:
    assert zset.canonical_bytes() == ref.canonical_bytes(), where
    assert zset.entry_count == ref.entry_count, where
    assert zset.total_weight == ref.total_weight, where
    assert zset.digest() == ref.digest(), where


# ---------------------------------------------------------------------------
# The streams
# ---------------------------------------------------------------------------

TEST_CONFIG = FarviewConfig(memory=MemoryConfig(
    channels=2, channel_capacity=8 * MB, page_size=64 * KB))

T_SCHEMA = Schema([
    Column("k", "int64"),       # unique, some beyond 2^53
    Column("cat", "char", 4),   # group / join key
    Column("val", "float64"),   # payload: ±0.0, NaN, ordinary
    Column("amt", "float64"),   # summed: dyadic rationals
])
DIM_SCHEMA = Schema([Column("cat", "char", 4), Column("rate", "float64")])
CATS = [f"c{i}".encode() for i in range(5)]
VALS = [0.0, -0.0, float("nan"), 1.5, 2.25]
BIG = 2 ** 53

VIEWS = {
    "project": "SELECT cat, val FROM t",
    "distinct": "SELECT DISTINCT cat, val FROM t",
    "group": ("SELECT cat, SUM(amt) AS s, COUNT(*) AS n, MIN(k) AS lo, "
              "MAX(k) AS hi, AVG(amt) AS a FROM t GROUP BY cat"),
    "by_val": "SELECT val, COUNT(*) AS n FROM t GROUP BY val",
    "global": ("SELECT COUNT(*) AS n, SUM(amt) AS s, MIN(k) AS lo, "
               "MAX(k) AS hi FROM t"),
    "eval": "SELECT k, amt * 2.0 + 1.0 AS w FROM t WHERE amt < 64.0",
    "join": "SELECT k, val, rate FROM t JOIN dim ON t.cat = dim.cat",
    "join_group": ("SELECT t.cat, SUM(amt * rate) AS s "
                   "FROM t JOIN dim ON t.cat = dim.cat GROUP BY t.cat"),
}


def t_rows(keys, cats, vals, amts) -> np.ndarray:
    rows = T_SCHEMA.empty(len(keys))
    rows["k"], rows["val"], rows["amt"] = keys, vals, amts
    rows["cat"] = np.array([CATS[c] for c in cats], dtype="S4")
    return rows


def dim_rows(cats, rates) -> np.ndarray:
    rows = DIM_SCHEMA.empty(len(cats))
    rows["cat"] = np.array([CATS[c] for c in cats], dtype="S4")
    rows["rate"] = rates
    return rows


@st.composite
def t_batch(draw, first_key: int, max_size: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    keys = [first_key + i + (BIG if draw(st.booleans()) else 0)
            for i in range(n)]
    cats = draw(st.lists(st.integers(0, len(CATS) - 1),
                         min_size=n, max_size=n))
    vals = draw(st.lists(st.sampled_from(VALS), min_size=n, max_size=n))
    amts = [0.25 * a for a in draw(st.lists(st.integers(0, 200),
                                            min_size=n, max_size=n))]
    return t_rows(keys, cats, vals, amts)


#: One step of a stream: ``(verb, less, bound, pick)`` — the write
#: touches ``k < bound`` (``less``) or ``k >= bound``; ``pick`` chooses
#: the value it sets.
OPS = st.lists(st.tuples(
    st.sampled_from(("insert", "update_val", "update_amt", "update_cat",
                     "delete", "dim_insert", "dim_update", "dim_delete",
                     "compact", "refresh")),
    st.booleans(), st.integers(0, 24), st.integers(0, 96)),
    min_size=2, max_size=10)


def make_client(num_nodes: int):
    if num_nodes == 1:
        client = FarviewClient(FarviewNode(Simulator(), TEST_CONFIG))
    else:
        client = ClusterClient(FarviewCluster(Simulator(), num_nodes,
                                              TEST_CONFIG))
    client.open_connection()
    return client


def run_stream(num_nodes, versioned_dim, auto, base, ops, batches):
    """Drive one client through ``ops`` (``batches()`` supplies each
    insert's rows) with every refresh replayed through the reference;
    returns the ``RefreshStats`` of the refreshes that ran."""
    client = make_client(num_nodes)
    dims = dim_rows([0, 1, 2], [0.5, 0.75, 1.25])
    if versioned_dim:
        dim = client.create_versioned_table("dim", DIM_SCHEMA, dims)
    elif num_nodes == 1:
        dim = FTable("dim", DIM_SCHEMA, len(dims))
        client.alloc_table_mem(dim)
        client.table_write(dim, dims)
    else:
        dim = client.create_table("dim", DIM_SCHEMA, dims)
    vt = client.create_versioned_table("t", T_SCHEMA, base)
    views = {name: client.create_view(sql, name=name)[0]
             for name, sql in VIEWS.items()}
    subs = {name: client.subscribe(view, auto=auto)
            for name, view in views.items()}
    ref = RefCatalog(client, {"dim": dims})
    for name, view in views.items():
        assert_same(view.contents, ref.views[name].contents,
                    f"bootstrap of {name}")

    engine = client.views
    real_apply = engine.apply_refresh
    refreshes = []

    def both(reads, targets):
        expected = ref.apply_refresh(reads)
        stats = real_apply(reads, targets)
        assert stats == expected
        for name, view in views.items():
            where = f"{name} after refresh {len(refreshes)}"
            assert_same(view.contents, ref.views[name].contents, where)
            assert_same(subs[name].state, ref.views[name].contents,
                        "subscriber of " + where)
        refreshes.append(stats)
        return stats
    engine.apply_refresh = both

    next_key, next_cat = len(base), 3
    for verb, less, bound, pick in ops:
        where = Compare("k", "<" if less else ">=", bound % (next_key + 1))
        if verb == "insert":
            batch = batches(next_key)
            next_key += len(batch)
            client.insert(vt, batch)
        elif verb == "update_val":
            client.update_where(vt, where, {"val": VALS[pick % len(VALS)]})
        elif verb == "update_amt":
            client.update_where(vt, where, {"amt": 0.25 * pick})
        elif verb == "update_cat":
            client.update_where(vt, where, {"cat": CATS[pick % len(CATS)]})
        elif verb == "delete":
            client.delete_where(vt, where)
        elif verb == "compact":
            with contextlib.suppress(OperatorError):   # an emptied shard
                client.compact(vt)
        elif verb == "refresh":
            client.refresh_views()
        elif not versioned_dim:
            continue
        elif verb == "dim_insert" and next_cat < len(CATS):
            client.insert(dim, dim_rows([next_cat], [0.25 * (pick % 8)]))
            next_cat += 1
        elif verb == "dim_update":
            client.update_where(dim, Compare("rate", "<", 1.0),
                                {"rate": 0.25 * (pick % 8)})
        elif verb == "dim_delete":
            client.delete_where(dim,
                                Compare("rate", "==", 0.25 * (pick % 8)))
    client.refresh_views()
    return refreshes


@settings(max_examples=20, deadline=None,
          suppress_health_check=list(HealthCheck))
@pytest.mark.parametrize("num_nodes,versioned_dim,auto", [
    (1, False, True), (1, True, False), (2, True, True), (2, False, False)])
@given(data=st.data(), ops=OPS)
def test_columnar_circuit_matches_the_dict_reference(num_nodes, versioned_dim,
                                                     auto, data, ops):
    base = data.draw(t_batch(0, max_size=12))
    run_stream(num_nodes, versioned_dim, auto, base, ops,
               lambda first_key: data.draw(t_batch(first_key)))


def test_reference_stream_touches_every_hard_case():
    """One fixed stream, so the hard cases run whatever hypothesis draws:
    weights above 1, a row retracted to zero and re-inserted, ``±0.0`` /
    NaN payloads, keys beyond 2^53, two shard trackers with overlapping
    row ids, versioned build side, a multi-segment batch and a
    compaction mid-stream."""
    nan = float("nan")
    base = t_rows([0, 1, BIG + 2, BIG + 3, 4, 5], [0, 0, 1, 1, 2, 3],
                  [0.0, -0.0, nan, nan, 1.5, 1.5],
                  [0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    more = t_rows([6, BIG + 7], [0, 4], [0.0, nan], [16.0, 32.0])
    ops = [("insert", True, 0, 0),
           ("update_val", True, 2, 3),      # k < 2: both zeros become 1.5
           ("update_val", True, 1, 0),      # k < 1: and one goes back
           ("delete", True, 1, 0),          # ... and leaves
           ("compact", True, 0, 0),
           ("dim_insert", True, 0, 5),
           ("update_amt", False, 4, 9),     # k >= 4, the far shard too
           ("refresh", True, 0, 0),
           ("dim_delete", True, 0, 3),      # rate == 0.75: c1 loses its row
           ("update_cat", False, 0, 1)]     # every row regrouped under c1
    stats = run_stream(2, True, False, base, ops, lambda first_key: more)
    assert max(s.segments for s in stats) > 1, "no multi-segment batch"
    assert sum(s.views_stepped for s in stats) >= 2 * len(VIEWS) - 2

    # A row retracted to zero and re-inserted, at the stage level.
    stage = DistinctStage(T_SCHEMA)
    row = ZSet.from_rows(T_SCHEMA, base[:1])
    gone = ZSet.from_rows(T_SCHEMA, base[:1], -1)
    for delta, edge in ((row, 1), (row, None), (gone, None), (gone, -1),
                        (row, 1)):
        commits: list = []
        out = stage.apply(delta, commits)
        for commit in commits:
            commit()
        assert out.weights.tolist() == ([] if edge is None else [edge])


# ---------------------------------------------------------------------------
# Refusals leave no partial state
# ---------------------------------------------------------------------------

def test_a_refused_step_changes_no_stage():
    """A circuit step that refuses in its last stage (a retraction the
    distinct stage never saw) leaves the stages before it untouched."""
    schema = Schema([Column("g", "int64"), Column("v", "float64")])
    rows = schema.empty(4)
    rows["g"], rows["v"] = [1, 1, 2, 2], [0.25, 0.5, 0.75, 1.0]
    group = GroupStage(schema, ("g",), (AggregateSpec("sum", "v"),))
    distinct = DistinctStage(group.out_schema)
    circuit = Circuit("t", None, schema, [group, distinct],
                      distinct.out_schema, {}, [])
    first = circuit.step({"t": ZSet.from_rows(schema, rows)})
    assert first.entry_count == 2
    distinct.multiplicity = ZSet(distinct.out_schema)    # corrupt: forgets
    before = (group.members.canonical_bytes(), group.outputs.tobytes(),
              group.group_of.tobytes(), dict(group.group_slots))
    with pytest.raises(QueryError, match="distinct state went negative"):
        circuit.step({"t": ZSet.from_rows(schema, rows[:1], -1)})
    assert before == (group.members.canonical_bytes(),
                      group.outputs.tobytes(), group.group_of.tobytes(),
                      dict(group.group_slots))
    with pytest.raises(QueryError, match="group state went negative"):
        circuit.step({"t": ZSet.from_rows(schema, rows[:1], -2)})
    assert before[0] == group.members.canonical_bytes()


@pytest.mark.parametrize("kind", ("delete", "update"))
def test_unknown_row_id_refuses_the_whole_refresh(kind):
    """A segment naming a row id the mirror never held refuses the
    refresh with the tracker, the view and ``pending`` unmoved."""
    client = make_client(1)
    base = t_rows([0, 1, 2], [0, 1, 2], [1.5, 1.5, 2.25], [0.25, 0.5, 1.0])
    vt = client.create_versioned_table("t", T_SCHEMA, base)
    view, _ = client.create_view(VIEWS["group"], name="v")
    sub = client.subscribe(view, auto=False)
    client.insert(vt, t_rows([3], [0], [0.0], [2.0]))
    if kind == "delete":
        client.delete_where(vt, Compare("k", "==", 3))
    else:
        client.update_where(vt, Compare("k", "==", 3), {"amt": 4.0})
    engine = client.views
    (tracker,) = engine.trackers["t"]
    assert [segment.kind for segment in tracker.pending] == ["insert", kind]

    def state():
        return (view.sha256(), dict(view.epochs), view.refresh_count,
                sub.sha256(), sub.updates_received, tracker.processed_epoch,
                tracker.rowids.tobytes(), tracker.images.tobytes(),
                list(tracker.pending))

    before = state()
    real_apply = engine.apply_refresh
    # Lose the insert on the way: the second segment's row id is unknown.
    engine.apply_refresh = lambda reads, targets: real_apply(reads[1:],
                                                             targets)
    with pytest.raises(QueryError, match=f"{kind} of unknown row id 3"):
        client.refresh_views()
    assert state() == before
    engine.apply_refresh = real_apply
    client.refresh_views()                  # both segments, in order
    assert view.sha256() == sub.sha256()
    assert (view.sha256() != before[0]) == (kind == "update")
    assert view.epochs == {"t": vt.epoch} and not engine.has_pending()


# ---------------------------------------------------------------------------
# The algebra cells
# ---------------------------------------------------------------------------

PAIR = Schema([Column("a", "int64"), Column("b", "float64")])


def pair_rows(*pairs) -> np.ndarray:
    rows = PAIR.empty(len(pairs))
    for i, (a, b) in enumerate(pairs):
        rows["a"][i], rows["b"][i] = a, b
    return rows


def test_constructor_consolidates_and_drops_zero_weights():
    rows = pair_rows((1, 0.5), (2, 0.5), (1, 0.5), (3, 1.0))
    zset = ZSet.from_rows(PAIR, rows, np.array([2, 1, 3, 0]))
    assert zset.entry_count == 2 and zset.total_weight == 6
    assert zset.rows.tolist() == [(1, 0.5), (2, 0.5)]
    assert zset.weights.tolist() == [5, 1]
    assert ZSet.from_rows(PAIR, rows, 0).is_empty
    cancel = ZSet.from_rows(PAIR, rows[[0, 2]], np.array([1, -1]))
    assert cancel.is_empty and cancel.entry_count == 0


def test_rows_are_identified_by_their_bytes():
    rows = pair_rows((1, 0.0), (1, -0.0), (1, float("nan")),
                     (1, float("nan")), (BIG + 1, 1.0), (BIG, 1.0))
    zset = ZSet.from_rows(PAIR, rows)
    assert zset.entry_count == 5            # the two NaNs are one row
    assert zset.total_weight == 6


def test_update_over_mismatched_schemas_is_refused():
    other = Schema([Column("a", "int64"), Column("c", "float64")])
    with pytest.raises(QueryError, match="different schemas"):
        ZSet(PAIR).update(ZSet(other))


def test_canonical_bytes_refuses_a_delta():
    delta = ZSet.from_rows(PAIR, pair_rows((1, 0.5)), -1)
    with pytest.raises(QueryError, match=r"negative weight -1 .* delta"):
        delta.canonical_bytes()
    with pytest.raises(QueryError, match="negative weight -1"):
        delta.sha256()


def test_copy_is_independent_of_its_source():
    source = ZSet.from_rows(PAIR, pair_rows((1, 0.5), (2, 1.0)))
    clone = source.copy()
    source.update(ZSet.from_rows(PAIR, pair_rows((1, 0.5), (3, 2.0)),
                                 np.array([-1, 4])))
    assert clone.canonical_bytes() == PAIR.to_bytes(
        pair_rows((1, 0.5), (2, 1.0)))
    assert source.rows.tolist() == [(2, 1.0), (3, 2.0)]
    clone.update(ZSet.from_rows(PAIR, pair_rows((9, 9.0))))
    assert source.entry_count == 2 and clone.entry_count == 3


def test_empty_zset_digests_to_zero_and_materializes_nothing():
    empty = ZSet(PAIR)
    assert empty.digest() == 0 and empty.is_empty
    assert empty.canonical_bytes() == b"" and len(empty.materialize()) == 0
    assert empty.sha256() == hashlib.sha256(b"").hexdigest()
    full = ZSet.from_rows(PAIR, pair_rows((1, 0.5)))
    full.update(ZSet.from_rows(PAIR, pair_rows((1, 0.5)), -1))
    assert full.digest() == 0 and full.is_empty


def test_digest_is_the_python_int_formula_and_commutes():
    rows = pair_rows((1, 0.5), (2, 1.0), (BIG + 7, -0.0))
    weights = np.array([3, -2, 2 ** 40])
    zset = ZSet.from_rows(PAIR, rows, weights)
    hashes = hash_key_batch(PAIR.to_bytes(rows), PAIR.row_width).tolist()
    expected = sum(w * h for w, h in zip(weights.tolist(), hashes)) % _U64
    assert zset.digest() == expected
    parts = ZSet(PAIR)
    for i in (2, 0, 1):
        parts.update(ZSet.from_rows(PAIR, rows[i:i + 1], int(weights[i])))
    assert parts.digest() == expected


def test_materialize_is_sorted_by_byte_image_and_repeats_by_weight():
    rows = pair_rows((2, 1.0), (1, 0.5), (1, 0.25))
    zset = ZSet.from_rows(PAIR, rows, np.array([1, 2, 1]))
    images = sorted(PAIR.to_bytes(rows[i:i + 1]) for i in (0, 1, 1, 2))
    assert zset.canonical_bytes() == b"".join(images)
    assert zset.sha256() == hashlib.sha256(b"".join(images)).hexdigest()


def test_accumulator_slots_die_revive_and_compact():
    """Slot order is first-arrival order: a row retracted to zero leaves
    a dead slot, which its own return revives; dead slots are compacted
    away once they outnumber the live ones, and ``commit`` then reports
    the slots it kept."""
    keys = np.arange(8)
    acc = ZSet.from_rows(PAIR, pair_rows(*[(int(k), 0.5) for k in keys]))
    gone = ZSet.from_rows(PAIR, pair_rows((1, 0.5), (2, 0.5), (3, 0.5)), -1)
    slot, _, weights, commit = acc.stage(gone)
    assert slot.tolist() == [1, 2, 3] and weights[slot].tolist() == [0, 0, 0]
    assert acc.entry_count == 8, "staging must not change the Z-set"
    assert commit() is None and acc.entry_count == 5
    back = ZSet.from_rows(PAIR, pair_rows((2, 0.5), (9, 0.5)))
    slot, _, _, commit = acc.stage(back)
    assert slot.tolist() == [2, 8], "a returning row revives its slot"
    commit()
    assert acc.rows["a"].tolist() == [0, 2, 4, 5, 6, 7, 9]
    more = ZSet.from_rows(PAIR, pair_rows(*[(int(k), 0.5)
                                            for k in (0, 4, 5, 6)]), -1)
    kept = acc.stage(more)[-1]()
    assert kept.tolist() == [2, 7, 8], "compaction reports the kept slots"
    assert acc.rows["a"].tolist() == [2, 7, 9]
    acc.update(ZSet.from_rows(PAIR, pair_rows((0, 0.5))))   # map rebuilt
    assert acc.rows["a"].tolist() == [2, 7, 9, 0]
    slot, fresh = stage_slots({b"x": 0, b"y": 1},
                              np.array([b"y", b"z", b"z", b"w"], dtype="V1"))
    assert slot.tolist() == [1, 2, 2, 3] and fresh == {b"z": 2, b"w": 3}
