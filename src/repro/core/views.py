"""Incremental materialized views: Z-set circuits over the delta chain.

The versioned write path commits typed insert/update/delete
``DeltaSegment``\\ s keyed by stable row ids — exactly the input an
incremental view maintenance engine consumes.  This module compiles a
bound SELECT (:func:`~repro.core.compile.bind_select`) into a **circuit**
of incremental operators and maintains the registered views by pushing
only the committed deltas through it, DBSP-style, instead of rescanning
the base relation:

* **Linear operators** distribute over Z-set addition — they map each
  delta independently, with no state at all — and come in two shapes:
  a *mask* stage (regex, selection) keeps or drops delta entries as
  they are, a *map* stage (projection, expression evaluation) re-images
  the kernel's output rows and carries the weights across.
* **DISTINCT** keeps per-row multiplicities and emits ``+1`` only on a
  0→positive transition and ``-1`` only on a →0 transition.
* **GROUP BY / aggregates** keep the weighted member multiset per group
  and, whenever a delta touches a group, re-fold its members and re-emit
  the group's output row (retract old, insert new).
* **JOIN** applies the bilinear chain rule
  ``Δ(R ⋈ S) = ΔR ⋈ S + R ⋈ ΔS + ΔR ⋈ ΔS`` against incrementally
  maintained key indexes of both sides.  Static (non-versioned) build
  sides are loaded once at bootstrap and ``ΔS`` stays empty forever;
  versioned build sides are tracked like the base.

**A circuit computes nothing of its own.**  It keeps what is
incremental — weights, multiplicities, member multisets, key indexes —
and every value a stage emits comes from the kernel the client's ship /
hybrid / compiled-SQL tails run for the same step
(:func:`~repro.core.planner.run_client_kernel`):
:meth:`Predicate.evaluate <repro.operators.selection.Predicate.evaluate>`,
:meth:`CompiledRegex.search_column
<repro.operators.regex_engine.CompiledRegex.search_column>`,
:func:`~repro.baselines.sw_ops.software_project`,
:func:`~repro.core.ir.eval_items`,
:func:`~repro.baselines.sw_ops.software_groupby` and
:func:`~repro.baselines.sw_ops.software_aggregate`.  A view therefore
returns — and refuses — exactly what ``sql()`` of the same statement
does.

**Bootstrap is one circuit step.**  A view starts from an
epoch-consistent MVCC snapshot of every versioned input, fed through the
circuit as an all-``+1`` delta with empty operator state — the
``ΔR ⋈ ΔS`` term then produces the full join, the aggregate states fill
in, and the resulting Z-set *is* the view at that epoch.  Every later
refresh advances it by exactly the committed segments, so the cumulative
materialization stays sha256-identical to a full rescan at the same
epoch (the conformance suite pins this cell by cell).

Exactness caveat: a group is re-folded in member-arrival order, a full
rescan folds in row order, so float SUM/AVG association differs (and a
member of weight *w* is added *w* times, not multiplied once).
Byte-identity to the rescan is guaranteed when aggregated float values
are dyadic rationals (multiples of 2^-k, e.g. ``n * 0.25``) whose sums
stay below 2^53 — the convention all repo workloads follow; arbitrary
floats converge mathematically but may differ in the last ulp.

The sim-facing half (who reads segment bytes, what it costs, when
refreshes run) lives in :mod:`repro.core.api`; everything here is pure
bookkeeping and runs inside one simulator event.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Optional

import numpy as np

from ..baselines.sw_ops import (software_aggregate, software_groupby,
                                software_project)
from ..common.errors import QueryError
from ..common.records import Schema, key_image
from ..operators.aggregate import AggregateSpec
from ..operators.join import join_output_schema
from ..operators.regex_engine import CompiledRegex
from .cluster import group_output_schema
from .compile import BoundArm, BoundSelect
from .ir import eval_items
from .planner import operator_chain
from .versioning import (ROWID_COLUMN, ChainListener, DeltaSegment,
                         VersionChain, delete_schema, delta_schema)
from .zset import ZSet

__all__ = ["ChainTracker", "Circuit", "MaterializedView", "RefreshStats",
           "Subscription", "ViewCatalog", "compile_circuit"]


# -- circuit stages -----------------------------------------------------------

class _Stage:
    """One incremental operator: input delta in, output delta out."""

    out_schema: Schema

    def apply(self, delta: ZSet) -> ZSet:
        raise NotImplementedError


class MaskStage(_Stage):
    """Linear: ``mask(rows)`` keeps or drops each delta entry unchanged.

    The delta is decoded once and the surviving entries keep the image
    and weight they arrived with (:meth:`ZSet.decode` is in dict order,
    so the mask lines up with the entries) — nothing is re-encoded.
    """

    def __init__(self, schema: Schema,
                 mask: Callable[[np.ndarray], np.ndarray]):
        self.out_schema = schema
        self.mask = mask

    def apply(self, delta: ZSet) -> ZSet:
        rows, _ = delta.decode()
        return ZSet(self.out_schema,
                    dict(compress(delta, self.mask(rows).tolist())))


class MapStage(_Stage):
    """Linear: ``kernel(rows)`` computes each output row; the weights
    carry across (distinct inputs may merge into one output row)."""

    def __init__(self, out_schema: Schema,
                 kernel: Callable[[np.ndarray], np.ndarray]):
        self.out_schema = out_schema
        self.kernel = kernel

    def apply(self, delta: ZSet) -> ZSet:
        out = ZSet(self.out_schema)
        rows, weights = delta.decode()
        images = key_image(self.kernel(rows), self.out_schema.names)
        for image, weight in zip(images.tolist(), weights.tolist()):
            out.add(image, weight)
        return out


class DistinctStage(_Stage):
    """Stateful: per-row multiplicities; emits only 0↔positive edges."""

    def __init__(self, schema: Schema):
        self.out_schema = schema
        self.multiplicity: dict[bytes, int] = {}

    def apply(self, delta: ZSet) -> ZSet:
        out = ZSet(self.out_schema)
        for image, weight in delta:
            old = self.multiplicity.get(image, 0)
            new = old + weight
            if new < 0:
                raise QueryError(
                    "distinct state went negative: a delta retracted a row "
                    "the view never saw (corrupt chain)")
            if new:
                self.multiplicity[image] = new
            else:
                self.multiplicity.pop(image, None)
            if old == 0 and new > 0:
                out.add(image, 1)
            elif old > 0 and new == 0:
                out.add(image, -1)
        return out


class GroupStage(_Stage):
    """Stateful GROUP BY / aggregation.

    Keeps the weighted member multiset per group key; a delta touching a
    group retracts its old output row and emits the recomputed one.  The
    stage holds no arithmetic of its own: a group's output row is what
    the client's aggregation kernel returns over the group's members,
    each repeated ``weight`` times — :func:`software_groupby` for a
    grouped statement, :func:`software_aggregate` for the global
    (ungrouped) one, which is one pseudo-group keyed ``b""`` whose output
    row disappears when the input empties — exactly the model's zero-row
    result.
    """

    def __init__(self, schema: Schema, group_by: tuple[str, ...],
                 aggregates: tuple[AggregateSpec, ...]):
        self.in_schema = schema
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.out_schema = group_output_schema(schema, group_by, aggregates)
        #: group key image -> {member row image -> weight}
        self.groups: dict[bytes, dict[bytes, int]] = {}

    def _output_row(self, key: bytes) -> Optional[bytes]:
        members = self.groups.get(key)
        if not members:
            return None
        weights = np.fromiter(members.values(), dtype=np.int64,
                              count=len(members))
        if (weights < 0).any():
            raise QueryError(
                "group state went negative: a delta retracted a row the "
                "view never saw (corrupt chain)")
        rows = np.repeat(self.in_schema.from_bytes(b"".join(members)),
                         weights)
        if self.group_by:
            out = software_groupby(rows, self.in_schema, self.group_by,
                                   self.aggregates).rows
        else:
            out = software_aggregate(rows, self.in_schema, self.aggregates)
        return key_image(out, self.out_schema.names).tolist()[0]

    def apply(self, delta: ZSet) -> ZSet:
        out = ZSet(self.out_schema)
        images = list(delta.weights)
        rows, weights = delta.decode()
        keys = key_image(rows, self.group_by).tolist()
        touched: dict[bytes, list[tuple[bytes, int]]] = {}
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


class JoinStage(_Stage):
    """Bilinear: ``Δ(R ⋈ S) = ΔR ⋈ S + R ⋈ ΔS + ΔR ⋈ ΔS``.

    Both sides are indexed by the serialized key image; an output row is
    the probe row's bytes concatenated with the payload column slices of
    the matching build row (packed schemas concatenate exactly), at
    weight ``w_probe · w_build``.  Build keys must stay unique — the
    same contract the engine's hash-join and the reference model
    enforce — checked on every index update.  A static build side is
    loaded once via :meth:`load_static` and contributes no deltas, which
    zeroes two of the three terms and lets the stage skip maintaining
    the probe index entirely.
    """

    def __init__(self, probe_schema: Schema, build_in_schema: Schema,
                 build_name: str, build_key: str, probe_key: str,
                 payload: tuple[str, ...], dynamic: bool,
                 prestages: tuple[_Stage, ...] = ()):
        self.probe_schema = probe_schema
        self.build_in_schema = build_in_schema
        self.build_name = build_name
        self.build_key = build_key
        self.probe_key = probe_key
        self.payload = tuple(payload)
        self.dynamic = dynamic
        self.prestages = tuple(prestages)
        self.build_schema = (prestages[-1].out_schema if prestages
                             else build_in_schema)
        self.out_schema = join_output_schema(probe_schema, self.build_schema,
                                             list(payload))
        probe_fields = probe_schema.dtype.fields
        build_fields = self.build_schema.dtype.fields
        self._probe_key_slice = self._field_slice(probe_fields, probe_key)
        self._build_key_slice = self._field_slice(build_fields, build_key)
        self._payload_slices = [self._field_slice(build_fields, name)
                                for name in self.payload]
        #: key image -> {row image -> weight}, per side.
        self.build_index: dict[bytes, dict[bytes, int]] = {}
        self.probe_index: dict[bytes, dict[bytes, int]] = {}

    @staticmethod
    def _field_slice(fields, name: str) -> slice:
        dtype, offset = fields[name][0], fields[name][1]
        return slice(offset, offset + dtype.itemsize)

    def _through_prestages(self, delta: ZSet) -> ZSet:
        for stage in self.prestages:
            delta = stage.apply(delta)
        return delta

    def _by_key(self, zset: ZSet, key_slice: slice
                ) -> dict[bytes, dict[bytes, int]]:
        keyed: dict[bytes, dict[bytes, int]] = {}
        for image, weight in zset:
            keyed.setdefault(image[key_slice], {})[image] = weight
        return keyed

    @staticmethod
    def _merge_index(index: dict[bytes, dict[bytes, int]],
                     deltas: dict[bytes, dict[bytes, int]]) -> None:
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

    def _check_build_keys(self, keys: Iterable[bytes]) -> None:
        for key in keys:
            slot = self.build_index.get(key)
            if not slot:
                continue
            if len(slot) > 1 or any(w < 0 or w > 1 for w in slot.values()):
                raise QueryError(
                    f"duplicate build key in {self.build_name!r}: the "
                    f"build side of a view join must keep unique join "
                    f"keys at every epoch")

    def _emit(self, out: ZSet, probe_side: dict[bytes, dict[bytes, int]],
              build_side: dict[bytes, dict[bytes, int]]) -> None:
        if not probe_side or not build_side:
            return
        small = (probe_side if len(probe_side) <= len(build_side)
                 else build_side)
        for key in small:
            probe_entries = probe_side.get(key)
            build_entries = build_side.get(key)
            if not probe_entries or not build_entries:
                continue
            for build_image, build_weight in build_entries.items():
                tail = b"".join(build_image[s] for s in self._payload_slices)
                for probe_image, probe_weight in probe_entries.items():
                    out.add(probe_image + tail, probe_weight * build_weight)

    def load_static(self, build_delta: ZSet) -> None:
        """Index the static build side's full contents at bootstrap."""
        keyed = self._by_key(self._through_prestages(build_delta),
                             self._build_key_slice)
        self._merge_index(self.build_index, keyed)
        self._check_build_keys(keyed)

    def step(self, probe_delta: ZSet, build_delta: Optional[ZSet]) -> ZSet:
        if build_delta is None or not self.dynamic:
            build_keyed: dict[bytes, dict[bytes, int]] = {}
        else:
            build_keyed = self._by_key(self._through_prestages(build_delta),
                                       self._build_key_slice)
        probe_keyed = self._by_key(probe_delta, self._probe_key_slice)
        out = ZSet(self.out_schema)
        self._emit(out, probe_keyed, self.build_index)   # ΔR ⋈ S
        self._emit(out, self.probe_index, build_keyed)   # R ⋈ ΔS
        self._emit(out, probe_keyed, build_keyed)        # ΔR ⋈ ΔS
        if self.dynamic:
            self._merge_index(self.probe_index, probe_keyed)
            self._merge_index(self.build_index, build_keyed)
            self._check_build_keys(build_keyed)
        return out

    def apply(self, delta: ZSet) -> ZSet:
        return self.step(delta, None)


# -- circuit compilation ------------------------------------------------------

@dataclass
class Circuit:
    """A compiled incremental query: stages in execution order.

    ``dynamic_tables`` maps each versioned input (the base plus any
    versioned build sides) to its catalog handle; ``static_loads`` pairs
    each join stage with the static build handle it must index at
    bootstrap.
    """

    base_name: str
    base_handle: object
    in_schema: Schema
    stages: list[_Stage]
    out_schema: Schema
    dynamic_tables: dict[str, object]
    static_loads: list[tuple[JoinStage, object]]

    def step(self, deltas: dict[str, ZSet]) -> ZSet:
        """Propagate one batch of input deltas; returns the output delta."""
        current = deltas.get(self.base_name)
        if current is None:
            current = ZSet(self.in_schema)
        for stage in self.stages:
            if isinstance(stage, JoinStage) and stage.dynamic:
                current = stage.step(current, deltas.get(stage.build_name))
            else:
                current = stage.apply(current)
        return current

    @property
    def depth(self) -> int:
        return max(1, len(self.stages))


#: Build-side scans must stay linear to be maintainable.
_ARM_STEPS = ("regex", "selection", "projection")


def _linear_stage(name: str, op, schema: Schema) -> _Stage:
    """The mask or map stage of one linear step, computing with the
    kernel :func:`~repro.core.planner.run_client_kernel` runs for the
    same ``(name, op)``."""
    if name == "regex":
        regex = CompiledRegex(op.regex.pattern)
        return MaskStage(
            schema, lambda rows: regex.search_column(rows[op.regex.column]))
    if name == "selection":
        return MaskStage(schema, op.predicate.evaluate)
    if name == "projection":
        columns = list(op.projection)
        return MapStage(schema.project(columns),
                        lambda rows: software_project(rows, schema, columns))
    if name == "eval":
        return MapStage(op.schema, lambda rows: eval_items(
            op.items, rows, schema, op.schema))
    if name in ("sort", "limit"):
        raise QueryError(
            "ORDER BY / LIMIT are not incrementally maintainable: a Z-set "
            "has no row order; sort the subscriber's materialization "
            "instead")
    raise QueryError(f"step {name!r} is not incrementally maintainable")


def compile_circuit(bound: BoundSelect) -> Circuit:
    """Compile a bound SELECT into an incremental circuit, one stage per
    ``(name, op)`` step of the vocabulary
    :func:`~repro.core.planner.run_client_kernel` executes: the head
    query's :func:`~repro.core.planner.operator_chain`, one ``join`` per
    arm, then the bound client ops.

    Rejects shapes whose results depend on arrival order rather than
    content (ORDER BY, LIMIT, subset-DISTINCT) and inputs without a
    delta chain to subscribe to (non-versioned FROM tables).
    """
    base = bound.base
    if not base.versioned:
        raise QueryError(
            f"view base table {bound.table!r} is not versioned: only a "
            f"delta chain can drive incremental maintenance")
    head = bound.query
    head.validate(base.schema)
    steps: list[tuple[str, object]] = []
    for name in operator_chain(head):
        if name == "join":      # the on-chip join is an arm read raw
            spec = head.join
            steps.append((name, BoundArm(
                spec.build_table, spec.build_table.name, None,
                spec.build_key, spec.probe_key, spec.payload)))
        else:
            steps.append((name, head))
    steps += [("join", arm) for arm in bound.arms]
    steps += [(op.kernel, op) for op in bound.ops]

    dynamic_tables: dict[str, object] = {bound.table: base}
    static_loads: list[tuple[JoinStage, object]] = []
    stages: list[_Stage] = []
    schema = base.schema
    for name, op in steps:
        if name == "join":
            prestages: list[_Stage] = []
            build_schema = op.build.schema
            if op.query is not None:
                op.query.validate(build_schema)
                for sub in operator_chain(op.query):
                    if sub not in _ARM_STEPS:
                        raise QueryError(
                            f"build-side scans must stay linear "
                            f"({'/'.join(_ARM_STEPS)}) to be maintainable")
                    prestages.append(_linear_stage(sub, op.query,
                                                   build_schema))
                    build_schema = prestages[-1].out_schema
            stage: _Stage = JoinStage(
                schema, op.build.schema, op.table, op.build_key,
                op.probe_key, tuple(op.payload), op.build.versioned,
                tuple(prestages))
            if not op.build.versioned:
                static_loads.append((stage, op.build))
            elif op.table in dynamic_tables:
                raise QueryError(
                    f"versioned table {op.table!r} feeds this view twice; "
                    f"each delta chain may drive at most one circuit input")
            else:
                dynamic_tables[op.table] = op.build
        elif name == "distinct":
            if op.distinct_columns is not None and (
                    set(op.distinct_columns) != set(schema.names)):
                raise QueryError(
                    "DISTINCT over a proper column subset keeps the first-seen "
                    "full row — an arrival-order-dependent result no "
                    "incremental view can maintain; project the key columns "
                    "first")
            stage = DistinctStage(schema)
        elif name in ("groupby", "aggregate"):
            stage = GroupStage(schema, tuple(op.group_by or ()),
                               tuple(op.aggregates))
        else:
            stage = _linear_stage(name, op, schema)
        stages.append(stage)
        schema = stage.out_schema
    if tuple(schema.names) != tuple(bound.schema.names):
        raise QueryError(
            f"circuit output schema {schema.names} diverged from the "
            f"bound statement's {bound.schema.names} (compiler bug)")
    return Circuit(base_name=bound.table, base_handle=base,
                   in_schema=base.schema, stages=stages, out_schema=schema,
                   dynamic_tables=dynamic_tables, static_loads=static_loads)


# -- chain tracking -----------------------------------------------------------

class ChainTracker(ChainListener):
    """Client-side mirror of one version chain, as Z-set deltas.

    Keeps the row-id → row-image map at ``processed_epoch`` (pinned, so
    compaction parks rather than frees the segments a pending refresh
    still needs), queues committed segments via the listener interface,
    and turns a batch of segment byte images into one consolidated
    Z-set delta: insert → +1, delete → −1 of the remembered image,
    update → −old/+new.  Cluster tables run one tracker per shard chain
    (per-shard row-id spaces overlap; Z-set addition merges the shard
    deltas order-independently).
    """

    def __init__(self, table_name: str, chain: VersionChain):
        self.table_name = table_name
        self.chain = chain
        #: Set by the owning client: the shard this chain belongs to, whose
        #: node reads its segment bytes (opaque to this module).
        self.owner: object = None
        self.images: dict[int, bytes] = {}
        self.pending: list[DeltaSegment] = []
        self.processed_epoch = chain.epoch
        self.pin_token: Optional[int] = chain.pin(chain.epoch)
        self.loaded = False
        self.compactions_seen = 0
        chain.add_listener(self)

    # -- ChainListener ----------------------------------------------------
    def on_commit(self, table: VersionChain,
                  segment: Optional[DeltaSegment]) -> None:
        if segment is not None:
            self.pending.append(segment)

    def on_compaction(self, table: VersionChain) -> None:
        self.compactions_seen += 1

    # -- bootstrap --------------------------------------------------------
    def load(self, rows: np.ndarray, rowids: np.ndarray) -> None:
        """Install the snapshot read at ``processed_epoch``."""
        self.images = dict(zip(
            rowids.tolist(),
            key_image(rows, self.chain.schema.names).tolist()))
        self.loaded = True

    def bootstrap_into(self, zset: ZSet) -> None:
        for image in self.images.values():
            zset.add(image, 1)

    # -- refresh ----------------------------------------------------------
    def pending_upto(self, target_epoch: int) -> list[DeltaSegment]:
        return [seg for seg in self.pending if seg.epoch <= target_epoch]

    def apply_batch(self, batch: list[tuple[DeltaSegment, bytes]]) -> ZSet:
        """Fold read segment images into the mirror; returns the delta."""
        delta = ZSet(self.chain.schema)
        consumed: set[int] = set()
        schema = self.chain.schema
        for segment, data in batch:
            consumed.add(id(segment))
            if segment.kind == "delete":
                rowids = delete_schema().from_bytes(data)[ROWID_COLUMN]
                for rid in rowids.tolist():
                    image = self.images.pop(int(rid), None)
                    if image is None:
                        raise QueryError(
                            f"delete of unknown row id {rid} on "
                            f"{self.table_name!r} (corrupt chain mirror)")
                    delta.add(image, -1)
                continue
            decoded = delta_schema(schema).from_bytes(data)
            images = key_image(decoded, schema.names).tolist()
            rowids = decoded[ROWID_COLUMN].tolist()
            if segment.kind == "insert":
                for rid, image in zip(rowids, images):
                    self.images[int(rid)] = image
                    delta.add(image, 1)
            else:                                   # update
                for rid, image in zip(rowids, images):
                    old = self.images.get(int(rid))
                    if old is None:
                        raise QueryError(
                            f"update of unknown row id {rid} on "
                            f"{self.table_name!r} (corrupt chain mirror)")
                    delta.add(old, -1)
                    delta.add(image, 1)
                    self.images[int(rid)] = image
        self.pending = [seg for seg in self.pending
                        if id(seg) not in consumed]
        return delta

    def repin(self) -> list:
        """Move the pin to ``processed_epoch``; returns freed segments."""
        old = self.pin_token
        self.pin_token = self.chain.pin(self.processed_epoch)
        return self.chain.unpin(old) if old is not None else []

    def detach(self) -> list:
        """Stop listening and release the pin; returns freed segments."""
        self.chain.remove_listener(self)
        freed = (self.chain.unpin(self.pin_token)
                 if self.pin_token is not None else [])
        self.pin_token = None
        self.pending = []
        return freed


# -- views, subscriptions, catalog -------------------------------------------

@dataclass
class RefreshStats:
    """What one refresh moved and touched (the fig20 measurables)."""

    segments: int = 0
    delta_rows: int = 0
    bytes_read: int = 0
    output_delta_rows: int = 0
    views_stepped: int = 0


class MaterializedView:
    """One registered view: compiled circuit + cumulative Z-set state."""

    def __init__(self, name: str, sql: str, bound: BoundSelect,
                 circuit: Circuit):
        self.name = name
        self.sql = sql
        self.bound = bound
        self.circuit = circuit
        self.schema = circuit.out_schema
        self.contents = ZSet(circuit.out_schema)
        #: input table -> last epoch folded into ``contents``.
        self.epochs: dict[str, int] = {}
        self.subscriptions: list[Subscription] = []
        self.refresh_count = 0
        self.bootstrap_bytes = 0

    @property
    def num_rows(self) -> int:
        return self.contents.total_weight

    def materialize(self) -> np.ndarray:
        """The full view in canonical (sorted byte-image) order."""
        return self.contents.materialize()

    def sha256(self) -> str:
        return self.contents.sha256()

    def digest(self) -> int:
        return self.contents.digest()

    def __repr__(self) -> str:
        return (f"MaterializedView({self.name!r}, {self.num_rows} rows, "
                f"epochs {self.epochs}, {len(self.subscriptions)} "
                f"subscriber(s))")


class Subscription:
    """A subscriber's pushed copy of a view.

    ``auto=True`` (the default) asks the owning client to propagate
    every committed write batch immediately; ``auto=False`` receives
    updates only on explicit refreshes.  The subscriber state is folded
    from pushed deltas alone — never copied from the view after
    bootstrap — so ``sha256()`` equality with the view (and with a full
    rescan) is the end-to-end delivery check, and ``digest()`` is its
    O(1)-per-delta integrity shortcut.
    """

    def __init__(self, view: MaterializedView, auto: bool = True):
        self.view = view
        self.auto = auto
        self.state = view.contents.copy()
        self.epochs = dict(view.epochs)
        self.updates_received = 0
        self.rows_pushed = 0
        self.bytes_pushed = 0

    def push(self, delta: ZSet, epochs: dict[str, int]) -> None:
        self.state.update(delta)
        self.epochs = dict(epochs)
        self.updates_received += 1
        self.rows_pushed += delta.entry_count
        self.bytes_pushed += delta.entry_count * delta.schema.row_width

    def rebind(self, view: MaterializedView) -> None:
        """Re-bootstrap from ``view`` (e.g. after a failed refresh)."""
        self.view = view
        self.state = view.contents.copy()
        self.epochs = dict(view.epochs)

    def materialize(self) -> np.ndarray:
        return self.state.materialize()

    def sha256(self) -> str:
        return self.state.sha256()

    def digest(self) -> int:
        return self.state.digest()


class ViewCatalog:
    """All views and chain trackers of one client.

    Pure bookkeeping: the owning client performs the reads, charges the
    simulated time, then hands the fetched segment bytes to
    :meth:`apply_refresh`, which is atomic — it either folds a whole
    batch into every registered view and its subscribers or (on a
    decode error) leaves no partial state behind, because all reads
    happened before any state mutation.  Refreshes are engine-wide:
    trackers are shared between views over the same table, so segments
    are consumed once and every view advances to the same epochs.
    """

    def __init__(self):
        self.views: dict[str, MaterializedView] = {}
        self.trackers: dict[str, list[ChainTracker]] = {}
        self._serial = 0

    # -- naming / registration -------------------------------------------
    def fresh_name(self) -> str:
        self._serial += 1
        return f"view{self._serial}"

    def register(self, view: MaterializedView) -> None:
        if view.name in self.views:
            raise QueryError(f"view {view.name!r} already exists")
        self.views[view.name] = view

    def drop(self, name: str) -> list[ChainTracker]:
        """Remove a view; returns the trackers no other view still needs
        (caller detaches them and frees what their pins held)."""
        if name not in self.views:
            raise QueryError(f"unknown view {name!r}")
        del self.views[name]
        still_needed = {table for view in self.views.values()
                        for table in view.circuit.dynamic_tables}
        orphans: list[ChainTracker] = []
        for table in list(self.trackers):
            if table not in still_needed:
                orphans.extend(self.trackers.pop(table))
        return orphans

    # -- refresh bookkeeping ----------------------------------------------
    def has_pending(self) -> bool:
        return any(tracker.pending
                   for trackers in self.trackers.values()
                   for tracker in trackers)

    def needs_auto_refresh(self) -> bool:
        """Any auto-subscribed view with unconsumed input segments?"""
        for view in self.views.values():
            if not any(sub.auto for sub in view.subscriptions):
                continue
            for table in view.circuit.dynamic_tables:
                for tracker in self.trackers.get(table, ()):
                    if tracker.pending:
                        return True
        return False

    def pending_work(self) -> tuple[list[tuple[ChainTracker, DeltaSegment]],
                                    dict[ChainTracker, int]]:
        """Segments to read this refresh + per-tracker target epochs.

        Targets are captured *now* (synchronously): segments committed
        while the refresh's reads are in flight carry later epochs, stay
        pending, and belong to the next refresh.
        """
        work: list[tuple[ChainTracker, DeltaSegment]] = []
        targets: dict[ChainTracker, int] = {}
        for trackers in self.trackers.values():
            for tracker in trackers:
                target = tracker.chain.epoch
                targets[tracker] = target
                for segment in tracker.pending_upto(target):
                    work.append((tracker, segment))
        return work, targets

    def apply_refresh(self, reads: list[tuple[ChainTracker, DeltaSegment,
                                              bytes]],
                      targets: dict[ChainTracker, int]) -> RefreshStats:
        """Fold fetched segment bytes into every view — yield-free."""
        stats = RefreshStats()
        by_tracker: dict[ChainTracker, list[tuple[DeltaSegment, bytes]]] = {}
        for tracker, segment, data in reads:
            by_tracker.setdefault(tracker, []).append((segment, data))
            stats.segments += 1
            stats.delta_rows += segment.num_rows
            stats.bytes_read += len(data)
        deltas: dict[str, ZSet] = {}
        for tracker, batch in by_tracker.items():
            delta = tracker.apply_batch(batch)
            if tracker.table_name in deltas:
                deltas[tracker.table_name].update(delta)
            else:
                deltas[tracker.table_name] = delta
        for tracker, target in targets.items():
            tracker.processed_epoch = max(tracker.processed_epoch, target)
        epochs_now = {table: trackers[0].processed_epoch
                      for table, trackers in self.trackers.items() if trackers}
        for view in self.views.values():
            inputs = {table: deltas[table]
                      for table in view.circuit.dynamic_tables
                      if table in deltas and not deltas[table].is_empty}
            for table in view.circuit.dynamic_tables:
                if table in epochs_now:
                    view.epochs[table] = epochs_now[table]
            if inputs:
                out = view.circuit.step(inputs)
                view.contents.update(out)
                view.refresh_count += 1
                stats.views_stepped += 1
                stats.output_delta_rows += out.entry_count
                for sub in view.subscriptions:
                    sub.push(out, view.epochs)
            else:
                for sub in view.subscriptions:
                    sub.epochs = dict(view.epochs)
        return stats
