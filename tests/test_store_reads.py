"""Chunk sources over a base table read its column store, not its tuples.

A heap-backed :class:`~repro.executor.chunk.Source` answers ``values``,
``gather`` and ``bounds`` by gathering the table's
:class:`~repro.storage.columnar.ColumnStore` column at the ids it is asked
for, and keeps the tuple path where only the tuples hold the values
exactly: an object-encoded column (ints beyond int64, a NULL in a numeric
column, an overflowed dictionary), a NaN-bearing float column, a store
behind the heap.  Either way it must answer what the tuples say — the same
values, of the same types, the same NaN objects — which the property below
holds it to against a plain row-list source over the same rows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.executor.chunk import Source, typed
from repro.storage.schema import Column, DataType, Schema
from repro.storage.table import Table

from .oracle import row_path, scan_records

pytestmark = pytest.mark.hashseed

#: Per column kind: its declared type and the values a cell may take.
KINDS = {
    "int32": (DataType.INTEGER, st.integers(-(2**31), 2**31 - 1)),
    "int64": (DataType.INTEGER, st.integers(-(2**63), 2**63 - 1)),
    "bigint": (DataType.INTEGER, st.sampled_from([0, 7, 2**70, -(2**64)])),
    "float": (
        DataType.FLOAT,
        st.one_of(
            st.floats(allow_nan=False, width=64), st.sampled_from([0.0, -0.0])
        ),
    ),
    "nan": (DataType.FLOAT, st.sampled_from([1.5, -0.0, 0.0, math.nan])),
    "string": (DataType.STRING, st.sampled_from(["a", "bb", "c", None])),
    "wide": (DataType.STRING, st.one_of(st.none(), st.text(max_size=3))),
}


def same(got, want) -> bool:
    """Value for value and type for type; a NaN must be the tuple's own."""
    return len(got) == len(want) and all(
        type(g) is type(w) and (g is w if w != w else repr(g) == repr(w))
        for g, w in zip(got, want)
    )


@st.composite
def heaps(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))
    cells = st.tuples(*(KINDS[kind][1] for kind in kinds))
    rows = draw(st.lists(cells, min_size=1, max_size=40))
    later = draw(st.lists(cells, max_size=10))
    schema = Schema([Column(f"c{i}", KINDS[k][0]) for i, k in enumerate(kinds)])
    return schema, rows, later


def ids_of(draw, count: int):
    return np.asarray(
        draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=30)),
        dtype=np.int64,
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_store_reads_equal_tuple_reads(data):
    schema, rows, later = data.draw(heaps())
    table = Table("h", schema, 4096)
    table.append_rows(rows)
    # A four-value dictionary ("wide" overflows).
    store = table.column_store(dictionary_max=4)
    width = len(schema)
    if data.draw(st.booleans()):
        for column in range(width):
            store.array(column)  # built, then extended by the append
    table.append_rows(later)
    view = data.draw(st.permutations(range(width)))[: data.draw(st.integers(1, width))]
    sources = [
        (Source(table.rows, width, store), Source(table.rows, width)),
        (
            Source(table.rows, len(view), store, tuple(view)),
            Source([tuple(row[c] for c in view) for row in table.rows], len(view)),
        ),
    ]
    for ids in (None, ids_of(data.draw, table.row_count)):
        for heap, plain in sources:
            assert heap.tuples(ids) == plain.tuples(ids)
            for column in range(heap.width):
                assert same(heap.values(column, ids), plain.values(column, ids))
                # The tuple path types what it gathers, as typed() does.
                got, want = heap.gather(column, ids), typed(plain.values(column, ids))
                assert got.dtype == want.dtype
                assert same(got.tolist(), want.tolist())
                bounds = heap.bounds(column, ids)
                assert (bounds is None) == (plain.bounds(column, ids) is None)
                if bounds is not None:
                    values = plain.values(column, ids)
                    assert same(bounds, (min(values), max(values)))


def _table(rows, *types) -> Table:
    table = Table("h", Schema([Column(f"c{i}", t) for i, t in enumerate(types)]), 4096)
    table.append_rows(rows)
    return table


@pytest.mark.parametrize("second", [DataType.STRING, DataType.INTEGER])
def test_ids_none_reads_every_row(second):
    """Regression: ``ids=None`` on a heap source raised AttributeError
    (``None.tolist()``) although it means every row — on the store path
    and on the tuple path ("x" in an INTEGER column is object-encoded)."""
    rows = [(1, "x"), (2, None), (3, "x")]
    table = _table(rows, DataType.INTEGER, second)
    source = Source(table.rows, 2, heap=table.column_store())
    for column in (0, 1):
        want = [row[column] for row in rows]
        assert source.values(column, None) == want
        assert source.gather(column, None).tolist() == want
    assert source.bounds(0, None) == (1, 3)
    assert source.tuples(None) == rows


def test_rows_behind_the_store_are_read_from_the_heap():
    table = _table([(1, 0.5), (2, 1.5)], DataType.INTEGER, DataType.FLOAT)
    store = table.column_store()
    table.rows.append((2**40, -0.0))  # not synced: the store is behind
    source = Source(table.rows, 2, heap=store)
    ids = np.asarray([2, 0], dtype=np.int64)
    assert same(source.values(1, ids), [-0.0, 0.5])
    assert source.gather(0, ids).tolist() == [2**40, 1]
    assert source.bounds(0, ids) is None


def test_dictionary_codes_decode_per_gather_and_nan_keeps_its_object():
    nan = math.nan
    table = _table([("a", nan), (None, 1.0), ("b", nan)], DataType.STRING, DataType.FLOAT)
    store = table.column_store()
    source = Source(table.rows, 2, heap=store)
    assert source.values(0, None) == ["a", None, "b"]
    assert store.exact(0)[1] is not None  # decoded through the dictionary
    assert store.exact(1) is None  # a NaN: the tuples hold its object
    assert source.values(1, np.asarray([2], dtype=np.int64))[0] is table.rows[2][1]


# ----------------------------------------------------------------------
# No tuple below the result: warm Q3 / Q10 at SF 0.05
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sf005_db():
    from repro.bench import ExperimentConfig, build_database

    return build_database(
        ExperimentConfig(scale_factor=0.05, memory_pages=256, seed=31)
    )


@pytest.mark.parametrize("name", ["Q3", "Q10"])
def test_warm_joins_and_aggregate_build_no_tuple(sf005_db, name, monkeypatch):
    """Every scan and every join of warm Q3 / Q10 reports
    ``rows_materialised == 0``, and no chunk is ever read as rows:
    the joins pass row ids over the column store, and the aggregate reads
    the columns it names.  Rows and costs are the row path's."""
    from repro.executor.chunk import Chunk
    from repro.workloads.tpcd import query_by_name

    sql = query_by_name(name).sql
    with row_path():
        oracle = sf005_db.execute(sql)
    sf005_db.execute(sql)
    built = []
    rows = Chunk.rows
    monkeypatch.setattr(Chunk, "rows", lambda chunk: built.append(len(chunk)) or rows(chunk))
    report = sf005_db.explain_analyze(sql)
    profile = report.result.profile
    assert profile.plan_cache_hit
    assert built == []
    scans = scan_records(report)
    assert len(scans) == (3 if name == "Q3" else 4)
    assert all(r["rows_materialised"] == 0 for r in scans.values())
    joins = [n.vectorized for n in report.plans[-1].nodes if n.vectorized]
    joins = [j for j in joins if j["kind"] == "probe"]
    assert len(joins) == (2 if name == "Q3" else 3)
    assert all(j["rows_materialised"] == 0 for j in joins)
    assert profile.join_rows_materialised == 0
    if name == "Q10":
        rendered = report.render()
        assert "join: 100411 rows probed, 3855 matches, 0 materialised" in rendered
        assert "scan: 299849 rows scanned, 0 materialised" in rendered
    assert report.result.rows == oracle.rows
    assert repr(profile.total_cost) == repr(oracle.profile.total_cost)
