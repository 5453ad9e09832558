"""Independent reference answers for everything the workloads execute.

Plain-Python dict joins over ``Table.rows``.  Nothing here touches
``repro.sql``, ``repro.optimizer`` or ``repro.executor`` — a bug in the
engine's parser, planner or operators cannot also be in the reference — and
nothing depends on the seed: the answers are computed from whatever rows the
generator loaded.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Callable, Sequence

Row = tuple


def _day(iso: str) -> int:
    """The storage layer keeps dates as proleptic ordinals."""
    return datetime.date.fromisoformat(iso).toordinal()


def _project(db, table: str, *columns: str) -> list[Row]:
    """The named columns of every row of ``table``, in storage order."""
    tbl = db.table(table)
    idx = [tbl.schema.index_of(c) for c in columns]
    return [tuple(row[i] for i in idx) for row in tbl.rows]


def _nation_names(db) -> dict[int, str]:
    return dict(_project(db, "nation", "n_nationkey", "n_name"))


def _nations_in_region(db, region: str) -> set[int]:
    keys = {k for k, name in _project(db, "region", "r_regionkey", "r_name") if name == region}
    return {n for n, r in _project(db, "nation", "n_nationkey", "n_regionkey") if r in keys}


def q1(db) -> list[Row]:
    cutoff = _day("1998-09-02")
    groups: dict[tuple, list] = {}
    for flag, status, qty, price, disc, ship in _project(
        db, "lineitem", "l_returnflag", "l_linestatus", "l_quantity",
        "l_extendedprice", "l_discount", "l_shipdate",
    ):
        if ship <= cutoff:
            acc = groups.setdefault((flag, status), [0.0, 0.0, 0.0, 0])
            acc[0] += qty
            acc[1] += price
            acc[2] += disc
            acc[3] += 1
    return [
        (flag, status, q, p, q / n, p / n, d / n, n)
        for (flag, status), (q, p, d, n) in groups.items()
    ]


def q3(db) -> list[Row]:
    pivot = _day("1995-03-15")
    building = {
        k for k, seg in _project(db, "customer", "c_custkey", "c_mktsegment")
        if seg == "BUILDING"
    }
    orders = {
        okey: (odate, prio)
        for okey, cust, odate, prio in _project(
            db, "orders", "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"
        )
        if cust in building and odate < pivot
    }
    revenue: dict[int, float] = {}
    for okey, price, ship in _project(
        db, "lineitem", "l_orderkey", "l_extendedprice", "l_shipdate"
    ):
        if ship > pivot and okey in orders:
            revenue[okey] = revenue.get(okey, 0.0) + price
    return [(okey, rev, *orders[okey]) for okey, rev in revenue.items()]


def q5(db) -> list[Row]:
    lo, hi = _day("1994-01-01"), _day("1995-01-01")
    asia = _nations_in_region(db, "ASIA")
    names = _nation_names(db)
    cust_nation = dict(_project(db, "customer", "c_custkey", "c_nationkey"))
    supp_nation = dict(_project(db, "supplier", "s_suppkey", "s_nationkey"))
    order_nation = {
        okey: cust_nation[cust]
        for okey, cust, odate in _project(db, "orders", "o_orderkey", "o_custkey", "o_orderdate")
        if lo <= odate < hi and cust_nation[cust] in asia
    }
    revenue: dict[str, float] = {}
    for okey, supp, price in _project(
        db, "lineitem", "l_orderkey", "l_suppkey", "l_extendedprice"
    ):
        nation = order_nation.get(okey)
        if nation is not None and supp_nation[supp] == nation:
            name = names[nation]
            revenue[name] = revenue.get(name, 0.0) + price
    return list(revenue.items())


def q6(db) -> list[Row]:
    lo, hi = _day("1994-01-01"), _day("1995-01-01")
    total, matched = 0.0, 0
    for price, ship, disc, qty in _project(
        db, "lineitem", "l_extendedprice", "l_shipdate", "l_discount", "l_quantity"
    ):
        if lo <= ship < hi and 0.05 <= disc <= 0.07 and qty < 24:
            total += price
            matched += 1
    return [(total if matched else None,)]


def q7(db) -> list[Row]:
    lo, hi = _day("1995-01-01"), _day("1996-12-31")
    names = _nation_names(db)
    pair = {"FRANCE", "GERMANY"}
    cust_nation = dict(_project(db, "customer", "c_custkey", "c_nationkey"))
    supp_nation = dict(_project(db, "supplier", "s_suppkey", "s_nationkey"))
    order_nation = {
        okey: names[cust_nation[cust]]
        for okey, cust in _project(db, "orders", "o_orderkey", "o_custkey")
    }
    revenue: dict[tuple[str, str], float] = {}
    for okey, supp, price, ship in _project(
        db, "lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_shipdate"
    ):
        if lo <= ship <= hi:
            supplier, customer = names[supp_nation[supp]], order_nation[okey]
            if supplier != customer and {supplier, customer} == pair:
                key = (supplier, customer)
                revenue[key] = revenue.get(key, 0.0) + price
    return [(s, c, rev) for (s, c), rev in revenue.items()]


def q8(db) -> list[Row]:
    lo, hi = _day("1995-01-01"), _day("1996-12-31")
    america = _nations_in_region(db, "AMERICA")
    names = _nation_names(db)
    steel = {
        k for k, ptype in _project(db, "part", "p_partkey", "p_type")
        if ptype == "ECONOMY ANODIZED STEEL"
    }
    cust_nation = dict(_project(db, "customer", "c_custkey", "c_nationkey"))
    supp_nation = dict(_project(db, "supplier", "s_suppkey", "s_nationkey"))
    orders = {
        okey
        for okey, cust, odate in _project(db, "orders", "o_orderkey", "o_custkey", "o_orderdate")
        if lo <= odate <= hi and cust_nation[cust] in america
    }
    volume: dict[str, list] = {}
    for okey, part, supp, price in _project(
        db, "lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice"
    ):
        if part in steel and okey in orders:
            acc = volume.setdefault(names[supp_nation[supp]], [0.0, 0])
            acc[0] += price
            acc[1] += 1
    return [(name, total / n) for name, (total, n) in volume.items()]


def q10(db) -> list[Row]:
    lo, hi = _day("1993-10-01"), _day("1994-01-01")
    names = _nation_names(db)
    customers = {
        k: (name, bal, names[nation])
        for k, name, nation, bal in _project(
            db, "customer", "c_custkey", "c_name", "c_nationkey", "c_acctbal"
        )
    }
    order_cust = {
        okey: cust
        for okey, cust, odate in _project(db, "orders", "o_orderkey", "o_custkey", "o_orderdate")
        if lo <= odate < hi
    }
    revenue: dict[int, float] = {}
    for okey, price, flag in _project(
        db, "lineitem", "l_orderkey", "l_extendedprice", "l_returnflag"
    ):
        cust = order_cust.get(okey)
        if flag == "R" and cust is not None:
            revenue[cust] = revenue.get(cust, 0.0) + price
    return [
        (cust, customers[cust][0], rev, customers[cust][1], customers[cust][2])
        for cust, rev in revenue.items()
    ]


@dataclass(frozen=True)
class _Evaluator:
    evaluate: Callable
    #: ORDER BY key + LIMIT for the queries that truncate their output: the
    #: reference keeps the sorted prefix, which is then compared as a set.
    order_key: Callable[[Row], tuple] | None = None
    limit: int | None = None


_EVALUATORS = {
    "Q1": _Evaluator(q1),
    "Q3": _Evaluator(q3, order_key=lambda r: (-r[1], r[2]), limit=10),
    "Q5": _Evaluator(q5),
    "Q6": _Evaluator(q6),
    "Q7": _Evaluator(q7),
    "Q8": _Evaluator(q8),
    "Q10": _Evaluator(q10, order_key=lambda r: (-r[2],), limit=20),
}


def expected_rows(db, query_name: str) -> list[Row]:
    """The reference answer for one of the paper's seven queries."""
    ev = _EVALUATORS[query_name]
    rows = ev.evaluate(db)
    if ev.limit is not None:
        rows = sorted(rows, key=ev.order_key)[: ev.limit]
    return rows


class HotJoinReference:
    """Reference for the write cycle's ``hot`` join: per customer, its market
    segment and the count / total price of its orders, so the expected
    answer for any drawn key list is a handful of dict lookups."""

    def __init__(self, db) -> None:
        self._segment = dict(_project(db, "customer", "c_custkey", "c_mktsegment"))
        self._orders: dict[int, list] = {}
        for cust, price in _project(db, "orders", "o_custkey", "o_totalprice"):
            acc = self._orders.setdefault(cust, [0, 0.0])
            acc[0] += 1
            acc[1] += price

    def expected(self, custkeys: Sequence[int]) -> list[Row]:
        groups: dict[str, list] = {}
        for key in custkeys:
            placed = self._orders.get(key)
            if placed is not None:
                acc = groups.setdefault(self._segment[key], [0, 0.0])
                acc[0] += placed[0]
                acc[1] += placed[1]
        return [(segment, n, total) for segment, (n, total) in groups.items()]


def _sort_key(row: Row) -> tuple:
    """Exact (non-float) columns first, so last-digit float noise between
    two summation orders cannot mis-pair rows."""
    exact = tuple(str(v) for v in row if not isinstance(v, float))
    return exact, tuple(v for v in row if isinstance(v, float))


def rows_match(actual: Sequence[Row], expected: Sequence[Row]) -> bool:
    """Order-insensitive comparison, floats to ``rel_tol=1e-9``."""
    if len(actual) != len(expected):
        return False
    for got, want in zip(sorted(actual, key=_sort_key), sorted(expected, key=_sort_key)):
        if len(got) != len(want):
            return False
        for a, b in zip(got, want):
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True
