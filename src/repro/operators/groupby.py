"""GROUP BY with aggregation (paper §5.4).

Structurally close to DISTINCT — the same cuckoo hash tables preserve the
groups — but the cache is *write-through* (aggregate state must be
updated, not just deduplicated) and nothing is emitted while streaming:
"The operator reads the complete table and all of its tuples without
sending anything over the network, to perform the full aggregation.  At
the same time, it inserts the distinct entries into a separate queue.
Once the aggregation has completed, the queue is used to lookup and flush
the entries from the hash table along with any of the requested
aggregation results."

The flush phase costs cycles proportional to the number of groups, which
is why Figure 9(c)'s response time grows with group count; the node
charges :meth:`flush_cycles` accordingly.

Groups whose hash-table insertion overflows are aggregated in a dedicated
overflow area and reported via :meth:`drain_overflow_groups` so the client
can merge them in software — mirroring the DISTINCT overflow contract.

On the host a batch — the node's whole scan, run once — is one array
transform, not a loop over its tuples.  A key owns one aggregate state for the operator's life — an
eviction moves it to the overflow area, it does not restart it — so
accumulation never depends on where the cuckoo tables hold the key: the
state is columnar, indexed by a dense group id handed out in first-seen
order, and only keys new to the operator are hashed and inserted.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError, QueryError
from ..common.records import Schema, first_occurrence, key_image
from .aggregate import (Accumulator, AggregateSpec, fold_extreme,
                        grouped_schema, value_columns)
from .base import NO_SOURCE, RowOperator
from .cuckoo import CuckooHashTable
from .lru_cache import ShiftRegisterLru

#: Flush cost per group entry, operator-clock cycles (lookup + queue pop +
#: result serialization).
FLUSH_CYCLES_PER_GROUP = 4


class GroupByOperator(RowOperator):
    """Hash aggregation: ``SELECT keys, aggs FROM t GROUP BY keys``."""

    fill_latency_cycles = 12

    def __init__(self, key_columns: list[str], aggregates: list[AggregateSpec],
                 ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32, lru_depth_per_way: int = 4):
        super().__init__("groupby")
        if not key_columns:
            raise OperatorError("group by needs at least one key column")
        if not aggregates:
            raise OperatorError("group by needs at least one aggregate")
        self.key_columns = list(key_columns)
        self.aggregates = list(aggregates)
        #: Holds ``key image -> group id``; an overflowed entry stays on
        #: ``table.overflow``, in eviction order, until it is drained.
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        #: ``key image -> group id``, dense, in first-seen order: the
        #: paper's insertion queue, and the index into ``_state``.
        self._ids: dict[bytes, int] = {}
        #: The running folds some aggregate reads, as ``(func, column)``
        #: (``avg`` reads the ``sum``); a fold nothing reads is not kept.
        self._folds = sorted({("sum" if s.func == "avg" else s.func, s.column)
                              for s in self.aggregates if s.func != "count"})
        self._state: np.ndarray | None = None
        self._out_schema: Schema | None = None

    # -- binding ---------------------------------------------------------------
    def _bind(self, schema: Schema) -> Schema:
        try:
            for spec in self.aggregates:
                spec.validate(schema)
        except QueryError as exc:
            raise OperatorError(str(exc)) from exc
        for name in self.key_columns:
            schema.column(name)
        aliases = [s.alias for s in self.aggregates]
        if len(set(aliases)) != len(aliases):
            raise OperatorError(f"duplicate aggregate aliases: {aliases}")
        overlap = set(aliases) & set(self.key_columns)
        if overlap:
            raise OperatorError(f"aggregate aliases collide with keys: {overlap}")
        self._out_schema = grouped_schema(schema, self.key_columns,
                                          self.aggregates)
        #: One record per group: its row count, whether an eviction moved
        #: it to the overflow area (the client merges those), and one
        #: field ``func(column)`` per fold — a float64 sum, a ``min`` /
        #: ``max`` in the column's own dtype.  Sized to a capacity that
        #: doubles; the first ``len(_ids)`` records are live.
        self._state = np.zeros(0, dtype=np.dtype([
            ("count", np.int64), ("spilled", np.bool_),
            *((f"{func}({column})", np.float64 if func == "sum"
               else schema.column(column).dtype)
              for func, column in self._folds)], align=True))
        return self._out_schema

    # -- streaming phase -----------------------------------------------------------
    def _process(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._out_schema is not None
        if len(batch):
            image = key_image(batch, self.key_columns)
            # Write-through cache: promotes hot keys; the authoritative
            # state lives in the records.
            self.lru.advance(image)
            new, group = first_occurrence(image, self._ids)
            if len(new):
                self._admit(image[new], group[new])
            state = self._state
            np.add.at(state["count"], group, 1)
            for func, column in self._folds:
                running = state[f"{func}({column})"]
                values = batch[column]
                if func == "sum":
                    # In row order from the running sum, as ``+=`` per row.
                    np.add.at(running, group,
                              values.astype(np.float64, copy=False))
                else:
                    running[group[new]] = values[new]  # a group's first value
                    fold_extreme(func, running, group, values)
        return self._out_schema.empty(0), NO_SOURCE

    def _admit(self, fresh: np.ndarray, ids: np.ndarray) -> None:
        """Open a record for each new key of ``fresh`` (first-seen order,
        group ids ``ids``) and insert it: the only keys a batch hashes.

        One batch :meth:`~repro.operators.cuckoo.CuckooHashTable.insert`
        places the keys up to the first overflow; from there on each key
        is its own ``put``."""
        grow = len(self._ids) - len(self._state)
        if grow > 0:
            self._state = np.concatenate([self._state, np.zeros(
                max(grow, len(self._state)), dtype=self._state.dtype)])
        table = self.table
        keys, ids = fresh.tolist(), ids.tolist()
        slots = table.way_slots(fresh.data, fresh.dtype.itemsize)
        before = len(table.overflow)
        for i in range(table.insert(keys, ids, slots) + 1, len(keys)):
            table.put(keys[i], ids[i], slots[:, i].tolist())
        # Each eviction chain pushed one group (possibly the new one) out
        # of the tables; its record keeps folding where it is.
        self._state["spilled"][[gid for _, gid in
                                table.overflow[before:]]] = True

    # -- flush phase ------------------------------------------------------------------
    def flush(self) -> np.ndarray | None:
        assert self._out_schema is not None
        # Resident groups in queue order; spilled ones are the client's.
        resident = ~self._state["spilled"][:len(self._ids)]
        state = self._state[:len(self._ids)][resident]
        out = self._out_schema.empty(len(state))
        keys = self._out_schema.project(self.key_columns).from_bytes(
            b"".join(self._ids))
        for name in self.key_columns:
            out[name] = keys[name][resident]
        for spec in self.aggregates:
            if spec.func == "count":
                out[spec.alias] = state["count"]
            elif spec.func == "avg":
                out[spec.alias] = state[f"sum({spec.column})"] / state["count"]
            else:
                out[spec.alias] = state[f"{spec.func}({spec.column})"]
        self.rows_out += len(out)
        return out

    def flush_cycles(self) -> int:
        return FLUSH_CYCLES_PER_GROUP * len(self._ids)

    # -- overflow contract ---------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return len(self.table) + len(self.table.overflow)

    def drain_overflow_groups(self) -> dict[bytes, Accumulator]:
        """Partially aggregated overflow groups for client-side merging,
        in eviction order: the only groups that ever become
        :class:`Accumulator` objects."""
        lanes = value_columns(self.aggregates)
        out = {}
        for key, gid in self.table.drain_overflow():
            record = self._state[gid]
            acc = out[key] = Accumulator(len(lanes))
            acc.count = int(record["count"])
            fields = {"sum": acc.sums, "min": acc.mins, "max": acc.maxs}
            for func, column in self._folds:
                fields[func][lanes.index(column)] = (
                    record[f"{func}({column})"].item())
        return out
