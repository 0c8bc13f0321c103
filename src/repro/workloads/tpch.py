"""TPC-H-inspired micro workloads (the paper motivates with Q1 and Q6).

The paper cites TPC-H Q6 as the canonical high-selectivity scan ("only 2%
of the data is finally selected", §5.3) and Q1 as the canonical GROUP BY
aggregation (§5.4).  These generators build lineitem-like tables sized to
the simulator and the matching offloaded query fragments.
"""

from __future__ import annotations

import numpy as np

from ..common.records import Column, Schema
from ..operators.aggregate import AggregateSpec
from ..operators.selection import And, Compare
from ..core.query import Query

#: A lineitem-like row: 8 x 8-byte attributes (the paper's default width).
LINEITEM_SCHEMA = Schema([
    Column("orderkey", "int64"),
    Column("quantity", "float64"),
    Column("extendedprice", "float64"),
    Column("discount", "float64"),
    Column("tax", "float64"),
    Column("returnflag", "int64"),    # encoded flag (0..2)
    Column("linestatus", "int64"),    # encoded flag (0..1)
    Column("shipdate", "int64"),      # days since epoch
])

_EPOCH_1994 = 8766   # days: 1994-01-01
_EPOCH_1995 = 9131   # days: 1995-01-01
_EPOCH_1998 = 10410  # days: 1998-09-02 region used by Q1


def lineitem(num_rows: int, seed: int = 7) -> np.ndarray:
    """Generate a lineitem-like table with TPC-H-ish value distributions."""
    rng = np.random.default_rng(seed)
    rows = LINEITEM_SCHEMA.empty(num_rows)
    rows["orderkey"] = rng.integers(1, 6_000_000, num_rows)
    rows["quantity"] = rng.integers(1, 51, num_rows).astype(np.float64)
    rows["extendedprice"] = rng.random(num_rows) * 100_000.0
    rows["discount"] = rng.integers(0, 11, num_rows) / 100.0
    rows["tax"] = rng.integers(0, 9, num_rows) / 100.0
    rows["returnflag"] = rng.integers(0, 3, num_rows)
    rows["linestatus"] = rng.integers(0, 2, num_rows)
    rows["shipdate"] = rng.integers(8035, 10592, num_rows)  # 1992..1998
    return rows


def q6_query() -> Query:
    """TPC-H Q6's scan fragment: the date/discount/quantity filter.

    ``SELECT extendedprice, discount FROM lineitem WHERE shipdate in 1994
    AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24`` — roughly 2 %
    selectivity (paper §5.3), then the revenue product is computed
    client-side.
    """
    predicate = And(
        And(Compare("shipdate", ">=", _EPOCH_1994),
            Compare("shipdate", "<", _EPOCH_1995)),
        And(And(Compare("discount", ">=", 0.05),
                Compare("discount", "<=", 0.07)),
            Compare("quantity", "<", 24.0)))
    return Query(projection=("extendedprice", "discount"),
                 predicate=predicate, label="tpch_q6")


def q1_query() -> Query:
    """TPC-H Q1's aggregation fragment.

    ``SELECT returnflag, linestatus, SUM(quantity), SUM(extendedprice),
    AVG(discount), COUNT(*) FROM lineitem GROUP BY returnflag,
    linestatus`` — six wide groups, the canonical group-by offload.
    """
    return Query(
        group_by=("returnflag", "linestatus"),
        aggregates=(
            AggregateSpec("sum", "quantity", alias="sum_qty"),
            AggregateSpec("sum", "extendedprice", alias="sum_price"),
            AggregateSpec("avg", "discount", alias="avg_disc"),
            AggregateSpec("count", "*", alias="count_order"),
        ),
        label="tpch_q1")


# ---------------------------------------------------------------------------
# Mini TPC-H: the multi-table workload for the compiled SQL path (fig18)
# ---------------------------------------------------------------------------
#
# The fig18 experiment runs Q1/Q3/Q6-class statements end-to-end through
# the SQL compiler, so alongside the original single-table generators
# (kept byte-for-byte stable — fig10/fig11 baselines depend on them)
# these build a small FK-consistent star: orders with *unique* order
# keys (the engine's build side requires unique keys), customers with
# unique customer keys, and lineitem rows whose ``orderkey`` always
# resolves.
#
# Byte-exactness note: cluster gathers merge float sum/avg partials
# associatively (exact for integer-valued columns, last-ulp wobble for
# true floats — see :mod:`repro.core.cluster`), so the Q1-class
# statements aggregate the integer-valued ``quantity`` column and the
# Q3/Q6-class revenue sums are *expression* aggregates the compiler
# lowers to the client, where they accumulate in global row order on
# every path.

ORDERS_SCHEMA = Schema([
    Column("orderkey", "int64"),      # unique, 1..num_orders
    Column("custkey", "int64"),
    Column("orderdate", "int64"),     # days since epoch
    Column("shippriority", "int64"),
])

CUSTOMER_SCHEMA = Schema([
    Column("custkey", "int64"),       # unique, 1..num_customers
    Column("mktsegment", "int64"),    # encoded segment (0..4)
    Column("nationkey", "int64"),
])


def orders(num_orders: int, num_customers: int, seed: int = 11
           ) -> np.ndarray:
    """Orders with unique keys 1..num_orders and valid customer FKs."""
    rng = np.random.default_rng(seed)
    rows = ORDERS_SCHEMA.empty(num_orders)
    rows["orderkey"] = np.arange(1, num_orders + 1)
    rows["custkey"] = rng.integers(1, num_customers + 1, num_orders)
    rows["orderdate"] = rng.integers(8035, 10592, num_orders)
    rows["shippriority"] = rng.integers(0, 2, num_orders)
    return rows


def customer(num_customers: int, seed: int = 13) -> np.ndarray:
    """Customers with unique keys 1..num_customers."""
    rng = np.random.default_rng(seed)
    rows = CUSTOMER_SCHEMA.empty(num_customers)
    rows["custkey"] = np.arange(1, num_customers + 1)
    rows["mktsegment"] = rng.integers(0, 5, num_customers)
    rows["nationkey"] = rng.integers(0, 25, num_customers)
    return rows


def lineitem_for_orders(num_rows: int, num_orders: int,
                        seed: int = 7) -> np.ndarray:
    """Lineitem rows whose ``orderkey`` FK always lands in 1..num_orders
    (the original :func:`lineitem` draws keys from the full TPC-H range,
    which would leave most probes unmatched against a small orders
    table)."""
    rows = lineitem(num_rows, seed=seed)
    rng = np.random.default_rng(seed + 1)
    rows["orderkey"] = rng.integers(1, num_orders + 1, num_rows)
    return rows


def q1_sql() -> str:
    """Q1-class: grouped aggregation over the flags + ORDER BY.

    Aggregates the integer-valued ``quantity`` so cluster partial
    merges stay byte-exact; the ORDER BY makes the output order
    placement-invariant by construction.
    """
    return ("SELECT returnflag, linestatus, "
            "SUM(quantity) AS sum_qty, "
            "AVG(quantity) AS avg_qty, "
            "COUNT(*) AS count_order "
            "FROM lineitem "
            "WHERE shipdate <= 10410 "
            "GROUP BY returnflag, linestatus "
            "ORDER BY returnflag, linestatus")


def q1_having_sql() -> str:
    """The Q1-class statement with a HAVING prune on small groups."""
    return ("SELECT returnflag, linestatus, "
            "SUM(quantity) AS sum_qty, "
            "COUNT(*) AS count_order "
            "FROM lineitem "
            "WHERE shipdate <= 10410 "
            "GROUP BY returnflag, linestatus "
            "HAVING COUNT(*) > 2 "
            "ORDER BY returnflag, linestatus")


def q3_sql() -> str:
    """Q3-class: 3-table join with an expression aggregate and top-k.

    The revenue sum is an arithmetic expression, so the compiler keeps
    the aggregation client-side (global row order on every path); the
    ``mktsegment`` filter is pushed into the customer build read and the
    ``shipdate`` filter into the lineitem scan.
    """
    return ("SELECT orderkey, orderdate, shippriority, "
            "SUM(extendedprice * (1 - discount)) AS revenue "
            "FROM lineitem "
            "JOIN orders ON lineitem.orderkey = orders.orderkey "
            "JOIN customer ON orders.custkey = customer.custkey "
            "WHERE customer.mktsegment = 1 AND lineitem.shipdate > 9131 "
            "GROUP BY orderkey, orderdate, shippriority "
            "ORDER BY revenue DESC, orderkey LIMIT 10")


def q6_sql() -> str:
    """Q6-class: the 2%-selectivity scan with a client-side revenue sum."""
    return ("SELECT SUM(extendedprice * discount) AS revenue "
            "FROM lineitem "
            "WHERE shipdate >= 8766 AND shipdate < 9131 "
            "AND discount >= 0.05 AND discount <= 0.07 "
            "AND quantity < 24")
