"""Incremental materialized views: Z-set circuits over the delta chain.

The versioned write path commits typed insert/update/delete
``DeltaSegment``\\ s keyed by stable row ids — exactly the input an
incremental view maintenance engine consumes.  This module compiles a
bound SELECT (:func:`~repro.core.compile.bind_select`) into a **circuit**
of incremental operators and maintains the registered views by pushing
only the committed deltas through it, DBSP-style, instead of rescanning
the base relation.  Deltas and stage state are columnar
:class:`~repro.core.zset.ZSet`\\ s, so a refresh is array transforms over
the delta, never a Python step per row:

* **Linear operators** keep no state: a *mask* stage (regex, selection)
  is a boolean index over the delta, a *map* stage (projection,
  expressions) one kernel call and one consolidation of its output.
* **DISTINCT** keeps per-row multiplicities and emits ``+1`` only on a
  0→positive transition and ``-1`` only on a →0 transition.
* **GROUP BY / aggregates** keep the weighted member multiset and each
  group's last output row; a delta retracts the rows of the groups it
  touches and re-folds their members in one kernel call.
* **JOIN** applies the bilinear chain rule
  ``Δ(R ⋈ S) = ΔR ⋈ S + R ⋈ ΔS + ΔR ⋈ ΔS`` against accumulated
  Z-sets of both sides.  A static build side (one no write can extend)
  arrives once, at bootstrap (``ΔS`` stays empty after); a writable one
  is tracked like the base.

**A circuit computes nothing of its own.**  It keeps what is
incremental — weights, multiplicities, member multisets, join sides —
and its stages are the step nodes the one client tail runs (the head's
:func:`~repro.core.planner.client_steps`, then the bound ``tail``), each
value computed by that node's kernel
(:func:`~repro.core.planner.run_client_kernel`): a view returns — and
refuses — exactly what ``sql()`` of the same statement does.

**Bootstrap is one circuit step**: the epoch-consistent snapshot of
every writable input goes through the empty circuit as an all-``+1``
delta; every later refresh advances the result by exactly the committed
segments, so it stays sha256-identical to a full rescan at the same
epoch (exactness caveat for float SUM/AVG — a group folds in
first-arrival order, a rescan in row order — in docs/VIEWS.md).

**A refresh is validate-then-commit.**  Trackers and stages compute
their next state beside their output and append the swap to the caller's
``commits``; nothing changes unless the whole refresh raised no refusal.

The sim-facing half (who reads segment bytes, what it costs, when) is
:mod:`repro.core.api`; this is bookkeeping inside one simulator event.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ..baselines.sw_ops import software_aggregate, software_groupby
from ..common.errors import QueryError
from ..common.expr import eval_items, eval_mask, items_schema
from ..common.records import Schema, SlotMap, key_image
from ..operators.aggregate import AggregateSpec, grouped_schema
from ..operators.join import gather_join_output, join_output_schema
from ..operators.regex_engine import CompiledRegex
from .compile import BoundSelect
from .planner import client_steps, operator_chain
from .versioning import (ROWID_COLUMN, ChainListener, DeltaSegment,
                         VersionChain, delete_schema, delta_schema)
from .zset import ZSet, stage_slots

__all__ = ["ChainTracker", "Circuit", "MaterializedView", "RefreshStats",
           "Subscription", "ViewCatalog", "compile_circuit"]


# -- circuit stages -----------------------------------------------------------

class _Stage:
    """One incremental operator: ``apply(delta, commits)`` maps a delta
    to a delta of ``out_schema``; a stateful stage appends the swap to
    its next state to ``commits``."""

    out_schema: Schema


@dataclass
class MaskStage(_Stage):
    """Linear: ``mask(rows)`` keeps or drops each delta entry unchanged."""

    out_schema: Schema
    mask: Callable[[np.ndarray], np.ndarray]

    def apply(self, delta: ZSet, commits: list) -> ZSet:
        return delta.select(self.mask(delta.rows))


@dataclass
class MapStage(_Stage):
    """Linear: ``kernel(rows)`` computes each output row; the weights
    carry across (distinct inputs may merge into one output row)."""

    out_schema: Schema
    kernel: Callable[[np.ndarray], np.ndarray]

    def apply(self, delta: ZSet, commits: list) -> ZSet:
        return ZSet.from_rows(self.out_schema, self.kernel(delta.rows),
                              delta.weights)


class DistinctStage(_Stage):
    """Stateful: per-row multiplicities; emits only 0↔positive edges."""

    def __init__(self, schema: Schema):
        self.out_schema = schema
        self.multiplicity = ZSet(schema)

    def apply(self, delta: ZSet, commits: list) -> ZSet:
        slot, _, weights, commit = self.multiplicity.stage(delta)
        new = weights[slot]
        if (new < 0).any():
            raise QueryError(
                "distinct state went negative: a delta retracted a row "
                "the view never saw (corrupt chain)")
        commits.append(commit)
        edge = (new > 0).astype(np.int64) - (new - delta.weights > 0)
        return ZSet(self.out_schema, delta.images[edge != 0], edge[edge != 0])


class GroupStage(_Stage):
    """Stateful GROUP BY / aggregation.

    Keeps the weighted member multiset (one accumulator :class:`ZSet`,
    each member slot tagged with its group's slot) and every group's
    last output row; a delta retracts the cached rows of the groups it
    touches and emits what the client's aggregation kernel returns over
    those groups' members, in slot (first-arrival) order, each repeated
    ``weight`` times — **one** :func:`software_groupby` call per delta,
    or for the global (ungrouped) statement :func:`software_aggregate`
    over its one pseudo-group, whose row disappears when the input
    empties (the model's zero-row result).
    """

    def __init__(self, schema: Schema, group_by: tuple[str, ...],
                 aggregates: tuple[AggregateSpec, ...]):
        self.in_schema, self.group_by = schema, list(group_by)
        self.aggregates = list(aggregates)
        self.out_schema = grouped_schema(schema, group_by, aggregates)
        self.members = ZSet(schema)
        #: member slot -> group slot; group key image -> group slot.
        self.group_of = np.zeros(0, dtype=np.intp)
        self.group_slots: SlotMap = {} if group_by else {b"": 0}
        #: Per group slot: the row last emitted, and whether one is out.
        self.outputs = self.out_schema.empty(len(self.group_slots))
        self.emitted = np.zeros(len(self.group_slots), dtype=bool)

    def apply(self, delta: ZSet, commits: list) -> ZSet:
        slot, images, counts, commit_members = self.members.stage(delta)
        if (counts[slot] < 0).any():
            raise QueryError(
                "group state went negative: a delta retracted a row the "
                "view never saw (corrupt chain)")
        arrived = images[len(self.group_of):].view(self.in_schema.dtype)
        if self.group_by:
            group, fresh = stage_slots(self.group_slots,
                                       key_image(arrived, self.group_by))
        else:
            group, fresh = np.zeros(len(arrived), dtype=np.intp), {}
        group_of = np.concatenate([self.group_of, group])
        outputs = np.concatenate([self.outputs,
                                  self.out_schema.empty(len(fresh))])
        emitted = np.concatenate([self.emitted, np.zeros(len(fresh), bool)])
        touched = np.zeros(len(emitted), dtype=bool)
        touched[group_of[slot]] = True
        retracted = outputs[touched & emitted]
        member = touched[group_of] & (counts > 0)
        folded = images[member].view(self.in_schema.dtype)
        if counts.max(initial=0) > 1:
            folded = np.repeat(folded, counts[member])
        if self.group_by:
            recomputed = software_groupby(folded, self.in_schema,
                                          self.group_by, self.aggregates).rows
            # A group new to this delta shows up among the kernel's rows
            # in the order its first member arrived: ``fresh``'s order.
            refolded = stage_slots(self.group_slots, key_image(
                recomputed, self.group_by))[0]
        else:
            recomputed = software_aggregate(folded, self.in_schema,
                                            self.aggregates)
            refolded = np.zeros(len(recomputed), dtype=np.intp)
        emitted[touched] = False
        emitted[refolded] = True
        outputs[refolded] = recomputed

        def commit() -> None:
            self.group_slots.update(fresh)
            self.group_of, self.outputs, self.emitted = (group_of, outputs,
                                                         emitted)
            keep = commit_members()
            if keep is not None:
                self._compact(keep)
        commits.append(commit)
        return ZSet.from_rows(
            self.out_schema, np.concatenate([retracted, recomputed]),
            np.repeat([-1, 1], [len(retracted), len(recomputed)]))

    def _compact(self, keep: np.ndarray) -> None:
        """The members compacted down to slots ``keep``: renumber the
        groups that still have one (every such group has a row out)."""
        self.group_of = self.group_of[keep]
        if self.group_by:
            live, self.group_of = np.unique(self.group_of,
                                            return_inverse=True)
            self.outputs, self.emitted = self.outputs[live], self.emitted[live]
            self.group_slots = dict(zip(
                key_image(self.outputs, self.group_by).tolist(),
                range(len(live))))


def _match(left: np.ndarray, right: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(i, j)`` with ``left[i] == right[j]``: the
    shorter side is sorted once and the longer one binary-searches it."""
    if len(left) > len(right):
        j, i = _match(right, left)
        return i, j
    order = np.argsort(left, kind="stable")
    ranked = left[order]
    low = np.searchsorted(ranked, right, "left")
    count = np.searchsorted(ranked, right, "right") - low
    j = np.repeat(np.arange(len(right)), count)
    run = np.arange(len(j)) - np.repeat(np.cumsum(count) - count, count)
    return order[np.repeat(low, count) + run], j


def _join_keys(rows: np.ndarray, column: str) -> np.ndarray:
    """Every row's serialized join key; a machine word sorts as one."""
    keys = key_image(rows, [column])
    return keys.view("<u8") if keys.dtype.itemsize == 8 else keys


@dataclass(eq=False)
class JoinStage(_Stage):
    """Bilinear: ``Δ(R ⋈ S) = ΔR ⋈ S + R ⋈ ΔS + ΔR ⋈ ΔS``.

    Each side is one accumulator :class:`ZSet`; a term matches the two
    sides' serialized key images and gathers the output columns
    (:func:`gather_join_output`) at weight ``w_probe · w_build``.  Build
    keys must stay unique — the contract the engine's hash-join and the
    reference model enforce — checked on every update of the build side
    before it commits.  A static build side arrives whole in the
    bootstrap step and never again, which zeroes two of the three terms
    from then on and leaves the probe side unkept.
    """

    probe_schema: Schema
    build_in_schema: Schema
    build_name: str
    build_key: str
    probe_key: str
    payload: tuple[str, ...]
    dynamic: bool
    prestages: tuple[_Stage, ...] = ()

    def __post_init__(self):
        self.build_schema = (self.prestages[-1].out_schema if self.prestages
                             else self.build_in_schema)
        self.out_schema = join_output_schema(
            self.probe_schema, self.build_schema, list(self.payload))
        self.build = ZSet(self.build_schema)
        self.probe = ZSet(self.probe_schema)

    def _term(self, probe, build) -> tuple[np.ndarray, np.ndarray]:
        """``probe ⋈ build`` over two ``(rows, weights)`` pairs."""
        i, j = _match(_join_keys(probe[0], self.probe_key),
                      _join_keys(build[0], self.build_key))
        return (gather_join_output(self.out_schema, probe[0], i, build[0],
                                   self.payload, j),
                probe[1][i] * build[1][j])

    def apply(self, probe_delta: ZSet, commits: list,
              build_delta: ZSet) -> ZSet:
        for stage in self.prestages:
            build_delta = stage.apply(build_delta, commits)
        new_probe = probe_delta.rows, probe_delta.weights
        new_build = build_delta.rows, build_delta.weights
        terms = [self._term(new_probe, (self.build.rows, self.build.weights)),
                 self._term((self.probe.rows, self.probe.weights), new_build),
                 self._term(new_probe, new_build)]
        if not build_delta.is_empty:
            _, images, after, commit = self.build.stage(build_delta)
            keys = _join_keys(images.view(self.build_schema.dtype),
                              self.build_key)
            live = np.flatnonzero(after)
            i, j = _match(_join_keys(new_build[0], self.build_key), keys[live])
            if (after[live[j]] != 1).any() or (
                    np.bincount(i, minlength=1).max() > 1):
                raise QueryError(
                    f"duplicate build key in {self.build_name!r}: the "
                    f"build side of a view join must keep unique join "
                    f"keys at every epoch")
            commits.append(commit)
        if self.dynamic:
            commits.append(self.probe.stage(probe_delta)[-1])
        rows, weights = zip(*terms)
        return ZSet.from_rows(self.out_schema, np.concatenate(rows),
                              np.concatenate(weights))


# -- circuit compilation ------------------------------------------------------

@dataclass
class Circuit:
    """A compiled incremental query: stages in execution order.
    ``dynamic_tables`` maps each writable input (the base plus any
    writable build sides) to its catalog handle; ``static_loads`` pairs
    each join stage with the static build table whose contents the
    bootstrap step carries under the stage's ``build_name``."""

    base_name: str
    base_handle: object
    in_schema: Schema
    stages: list[_Stage]
    out_schema: Schema
    dynamic_tables: dict[str, object]
    static_loads: list[tuple[JoinStage, object]]

    def step(self, deltas: dict[str, ZSet],
             commits: Optional[list] = None) -> ZSet:
        """Propagate one batch of input deltas; returns the output delta.
        Without a ``commits`` to defer to, the stages' swaps run here,
        after the last stage — a refused step changes no stage."""
        pending: list = [] if commits is None else commits
        current = deltas.get(self.base_name) or ZSet(self.in_schema)
        for stage in self.stages:
            if isinstance(stage, JoinStage):
                current = stage.apply(
                    current, pending, deltas.get(stage.build_name)
                    or ZSet(stage.build_in_schema))
            else:
                current = stage.apply(current, pending)
        if commits is None:
            for commit in pending:
                commit()
        return current

    @property
    def depth(self) -> int:
        return max(1, len(self.stages))


def _linear_stage(op, schema: Schema) -> _Stage:
    """The mask or map stage of one linear step node, computing with the
    kernel :func:`~repro.core.planner.run_client_kernel` runs for it."""
    if op.kernel == "regex":
        regex, column = CompiledRegex(op.match.engine_pattern), op.match.column
        return MaskStage(
            schema, lambda rows: regex.search_column(rows[column.name]))
    if op.kernel == "selection":
        return MaskStage(schema, partial(eval_mask, op.predicate))
    if op.kernel == "eval":
        out = items_schema(op.items, schema)
        return MapStage(out, lambda rows: eval_items(op.items, rows, schema,
                                                     out))
    if op.kernel in ("sort", "limit"):
        raise QueryError(
            "ORDER BY / LIMIT are not incrementally maintainable: a Z-set "
            "has no row order; sort the subscriber's materialization "
            "instead")
    raise QueryError(f"step {op.kernel!r} is not incrementally maintainable")


def compile_circuit(bound: BoundSelect) -> Circuit:
    """Compile a bound SELECT into an incremental circuit, one stage per
    step node the client tail runs: the whole head query as steps
    (:func:`~repro.core.planner.client_steps` at split 0, its on-chip
    join an arm read raw), then the bound ``tail``.  A join arm's own
    build Query becomes the join's linear prestages.

    Rejects shapes whose results depend on arrival order rather than
    content (ORDER BY, LIMIT, subset-DISTINCT) and a FROM table no write
    can extend.  A join's build side is dynamic exactly when writable.
    """
    base = bound.base
    if not base.writable:
        raise QueryError(
            f"view base table {bound.table!r} is not writable: only a "
            f"delta chain can drive incremental maintenance")
    bound.query.validate(base.schema)

    dynamic_tables: dict[str, object] = {bound.table: base}
    static_loads: list[tuple[JoinStage, object]] = []
    stages: list[_Stage] = []
    schema = base.schema
    for op in client_steps(operator_chain(bound.query), 0) + list(bound.tail):
        if op.kernel == "join":
            prestages: list[_Stage] = []
            build_schema = op.build.schema
            if op.query is not None:
                op.query.validate(build_schema)
                for sub in client_steps(operator_chain(op.query), 0):
                    prestages.append(_linear_stage(sub, build_schema))
                    build_schema = prestages[-1].out_schema
            stage: _Stage = JoinStage(
                schema, op.build.schema, op.table, op.build_key,
                op.probe_key, tuple(op.payload), op.build.writable,
                tuple(prestages))
            if not op.build.writable:
                static_loads.append((stage, op.build))
            elif op.table in dynamic_tables:
                raise QueryError(
                    f"writable table {op.table!r} feeds this view twice; "
                    f"each delta chain may drive at most one circuit input")
            else:
                dynamic_tables[op.table] = op.build
        elif op.kernel == "distinct":
            if set(op.columns or schema.names) != set(schema.names):
                raise QueryError(
                    "DISTINCT over a proper column subset keeps the first-seen "
                    "full row — an arrival-order-dependent result no "
                    "incremental view can maintain; project the key columns "
                    "first")
            stage = DistinctStage(schema)
        elif op.kernel == "aggregate":
            stage = GroupStage(schema, op.group_by, op.aggregates)
        else:
            stage = _linear_stage(op, schema)
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

    Keeps the chain's visible rows at ``processed_epoch`` (pinned, so
    compaction parks rather than frees the segments a pending refresh
    still needs) as byte images beside their row ids — ascending, as
    every snapshot returns and every insert extends them, so a row id is
    found by binary search — queues committed segments via the listener
    interface, and turns a batch of segment images into one consolidated
    Z-set delta: insert → +1, delete → −1 of the remembered row, update
    → −old/+new.  Cluster tables run one tracker per shard chain (row-id
    spaces overlap; Z-set addition merges the shard deltas).
    """

    def __init__(self, table_name: str, chain: VersionChain):
        self.table_name = table_name
        self.chain = chain
        #: Set by the owning client: the shard this chain belongs to, whose
        #: node reads its segment bytes (opaque to this module).
        self.owner: object = None
        self.rowids = np.zeros(0, dtype=np.uint64)
        self.images = key_image(chain.schema.empty(0), chain.schema.names)
        self.pending: list[DeltaSegment] = []
        self.processed_epoch = chain.epoch
        self.pin_token: Optional[int] = chain.pin(chain.epoch)
        chain.add_listener(self)

    def on_commit(self, table: VersionChain,
                  segment: Optional[DeltaSegment]) -> None:
        if segment is not None:
            self.pending.append(segment)

    def load(self, rows: np.ndarray, rowids: np.ndarray) -> None:
        """Install the snapshot read at ``processed_epoch``."""
        self.images = key_image(rows, self.chain.schema.names)
        self.rowids = rowids

    def _locate(self, rowids: np.ndarray, wanted: np.ndarray,
                verb: str) -> np.ndarray:
        """Where each of ``wanted`` sits in the ascending ``rowids``."""
        at = np.searchsorted(rowids, wanted)
        found = at < len(rowids)
        found[found] = rowids[at[found]] == wanted[found]
        if not found.all():
            raise QueryError(
                f"{verb} of unknown row id {int(wanted[~found][0])} on "
                f"{self.table_name!r} (corrupt chain mirror)")
        return at

    def apply_batch(self, batch: list[tuple[DeltaSegment, bytes]],
                    commits: list) -> ZSet:
        """The delta of the read segment images, each decoded once; the
        mirror and ``pending`` move past them when ``commits`` run."""
        schema = self.chain.schema
        rowids, images = self.rowids, self.images
        parts, signs = [images[:0]], [1]
        for segment, data in batch:
            if segment.kind == "delete":
                gone = delete_schema().from_bytes(data)[ROWID_COLUMN]
                at = self._locate(rowids, gone, "delete")
                parts.append(images[at])
                signs.append(-1)
                rowids, images = np.delete(rowids, at), np.delete(images, at)
                continue
            decoded = delta_schema(schema).from_bytes(data)
            arrived = key_image(decoded, schema.names)
            if segment.kind == "insert":
                rowids = np.concatenate([rowids, decoded[ROWID_COLUMN]])
                images = np.concatenate([images, arrived])
            else:                                   # update
                at = self._locate(rowids, decoded[ROWID_COLUMN], "update")
                parts.append(images[at])
                signs.append(-1)
                images = images.copy()
                images[at] = arrived
            parts.append(arrived)
            signs.append(1)
        consumed = {id(segment) for segment, _ in batch}

        def commit() -> None:
            self.rowids, self.images = rowids, images
            self.pending = [seg for seg in self.pending
                            if id(seg) not in consumed]
        commits.append(commit)
        return ZSet(schema, np.concatenate(parts),
                    np.repeat(signs, [len(part) for part in parts]))

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

    def advance(self, out: Optional[ZSet], epochs_now: dict[str, int]) -> None:
        """Commit one refresh: move to ``epochs_now`` and, when the
        circuit stepped, fold its output delta in and push it on."""
        self.epochs.update((table, epochs_now[table])
                           for table in self.circuit.dynamic_tables
                           if table in epochs_now)
        if out is not None:
            self.contents.update(out)
            self.refresh_count += 1
        for sub in self.subscriptions:
            if out is None:
                sub.epochs = dict(self.epochs)
            else:
                sub.push(out, self.epochs)

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
    updates only on explicit refreshes.  The state is folded from pushed
    deltas alone, never copied from the view after bootstrap: ``sha256()``
    equality with the view is the delivery check, ``digest()`` its shortcut.
    """

    def __init__(self, view: MaterializedView, auto: bool = True):
        self.auto = auto
        self.rebind(view)
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
        """(Re-)bootstrap from ``view`` (e.g. after a failed refresh)."""
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
    :meth:`apply_refresh`, which is atomic — it folds the whole batch
    into every tracker, view and subscriber, or (on any refusal) leaves
    them and ``pending`` exactly as they were.  Refreshes are
    engine-wide: trackers are shared between views over the same table,
    so segments are consumed once and every view advances to the same
    epochs.
    """

    def __init__(self):
        self.views: dict[str, MaterializedView] = {}
        self.trackers: dict[str, list[ChainTracker]] = {}
        self._serial = 0

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
        return [tracker for table in list(self.trackers)
                if table not in still_needed
                for tracker in self.trackers.pop(table)]

    def has_pending(self) -> bool:
        return any(tracker.pending
                   for trackers in self.trackers.values()
                   for tracker in trackers)

    def needs_auto_refresh(self) -> bool:
        """Any auto-subscribed view with unconsumed input segments?"""
        return any(tracker.pending
                   for view in self.views.values()
                   if any(sub.auto for sub in view.subscriptions)
                   for table in view.circuit.dynamic_tables
                   for tracker in self.trackers.get(table, ()))

    def pending_work(self) -> tuple[list[tuple[ChainTracker, DeltaSegment]],
                                    dict[ChainTracker, int]]:
        """Segments to read this refresh + per-tracker target epochs,
        captured *now*: segments committed while the reads are in flight
        carry later epochs, stay pending, and belong to the next one."""
        work: list[tuple[ChainTracker, DeltaSegment]] = []
        targets: dict[ChainTracker, int] = {}
        for trackers in self.trackers.values():
            for tracker in trackers:
                target = tracker.chain.epoch
                targets[tracker] = target
                work += [(tracker, segment) for segment in tracker.pending
                         if segment.epoch <= target]
        return work, targets

    def apply_refresh(self, reads: list[tuple[ChainTracker, DeltaSegment,
                                              bytes]],
                      targets: dict[ChainTracker, int]) -> RefreshStats:
        """Fold fetched segment bytes into every view — yield-free, and
        validate-then-commit: only when no tracker or stage has refused
        do the collected ``commits`` swap every next state in."""
        stats = RefreshStats()
        commits: list[Callable[[], object]] = []
        by_tracker: dict[ChainTracker, list[tuple[DeltaSegment, bytes]]] = {}
        for tracker, segment, data in reads:
            by_tracker.setdefault(tracker, []).append((segment, data))
            stats.segments += 1
            stats.delta_rows += segment.num_rows
            stats.bytes_read += len(data)
        deltas: dict[str, ZSet] = {}
        for tracker, batch in by_tracker.items():
            delta = tracker.apply_batch(batch, commits)
            if tracker.table_name in deltas:
                deltas[tracker.table_name].update(delta)
            else:
                deltas[tracker.table_name] = delta
        reached = {tracker: max(tracker.processed_epoch, target)
                   for tracker, target in targets.items()}
        epochs_now = {
            table: reached.get(trackers[0], trackers[0].processed_epoch)
            for table, trackers in self.trackers.items() if trackers}
        for view in self.views.values():
            inputs = {table: deltas[table]
                      for table in view.circuit.dynamic_tables
                      if table in deltas and not deltas[table].is_empty}
            out = view.circuit.step(inputs, commits) if inputs else None
            if out is not None:
                stats.views_stepped += 1
                stats.output_delta_rows += out.entry_count
            commits.append(partial(view.advance, out, epochs_now))
        for tracker, epoch in reached.items():
            tracker.processed_epoch = epoch
        for commit in commits:
            commit()
        return stats
