"""Typed min/max in the statistics collector, against Python's ``min`` / ``max``.

A join's chunk folds each tracked column's min/max from an int64 / float64
array gathered through its index vector (:meth:`Chunk.bounds`): an owned
source's cached column, or — for a base table's heap behind an index-NL
join — the whole-column array its :class:`ColumnStore` keeps.  Python's
fold over :meth:`Chunk.values` is the oracle, value *and* type, the sign of
a zero included; a column that is not exactly int64 or NaN-free float64
must decline and be folded in Python, and ``minmax_python_columns`` says
how many did.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.executor.chunk import Chunk, as_chunk
from repro.executor.collector import RuntimeCollector
from repro.plans.physical import (
    CollectorSpec,
    IndexNLJoinNode,
    SeqScanNode,
    StatsCollectorNode,
)
from repro.storage import Column, Schema
from repro.workloads.tpcd import query_by_name

from .test_join_chunks import forced_joins, run_plan, with_collectors

pytestmark = pytest.mark.hashseed

#: Column kinds: which values a column holds, and whether they have a typed
#: (int64 / NaN-free float64) form.
_KINDS = {
    "int": (st.integers(-(2**63), 2**63 - 1), True),
    "small int": (st.integers(-3, 3), True),
    "float": (st.floats(allow_nan=False), True),
    "zeros": (st.sampled_from([0.0, -0.0, 1.5, -1.5]), True),
    "nan": (st.sampled_from([float("nan"), 0.0, -0.0, 2.0]), False),
    "bool": (st.booleans(), False),
    "big int": (st.sampled_from([2**63, -(2**63) - 1, 2**70, 5]), False),
    "int and float": (st.sampled_from([1, 1.0, 0, -0.0, 2]), False),
    "none": (st.sampled_from([None, 1, 2]), False),
}


def python_bounds(values):
    return min(values), max(values)


def same(got, want) -> bool:
    """Equal in value and type, and in the sign of a zero."""
    return repr(got) == repr(want) and [type(v) for v in got] == [type(v) for v in want]


@st.composite
def columns(draw, width: int):
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=width, max_size=width))
    rows = draw(
        st.lists(st.tuples(*(_KINDS[k][0] for k in kinds)), min_size=1, max_size=12)
    )
    return kinds, rows


def ids_into(draw, rows, n: int):
    return np.asarray(
        draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )


def _has_typed_form(values: list) -> bool:
    kinds = {type(v) for v in values}
    if kinds == {int}:
        return all(-(2**63) <= v < 2**63 for v in values)
    return kinds == {float} and not any(v != v for v in values)


def assert_bounds_are_pythons(chunk: Chunk, kinds: list[str]) -> None:
    """Typed where the column has a typed form, Python's answer whenever
    typed (a source reads its whole column, so a draw that selects only
    typed values of an untyped column may still decline)."""
    for position, kind in enumerate(kinds):
        values = chunk.values(position)
        bounds = chunk.bounds(position)
        if _KINDS[kind][1]:
            assert bounds is not None, kind
        if not _has_typed_form(values):
            assert bounds is None, (kind, values)
        if bounds is not None:
            assert same(bounds, python_bounds(values)), (kind, values)


class TestChunkBounds:
    @given(data=st.data(), width=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_owned_and_shared_build_sources(self, data, width):
        """A join's chunk over a build side every batch shares and per-batch
        probe rows, alone and concatenated as the collector receives it."""
        build_kinds, build = data.draw(columns(width))
        probe_kinds, __ = data.draw(columns(1))
        shared = as_chunk(build, width)
        batches = []
        for __ in range(data.draw(st.integers(1, 3))):
            probe = data.draw(
                st.lists(st.tuples(_KINDS[probe_kinds[0]][0]), min_size=1, max_size=6)
            )
            n = data.draw(st.integers(1, 10))
            chunk = Chunk.join(
                shared, ids_into(data.draw, build, n), as_chunk(probe, 1),
                ids_into(data.draw, probe, n),
            )
            assert_bounds_are_pythons(chunk, build_kinds + probe_kinds)
            batches.append(chunk)
        whole = Chunk.concat(batches, width + 1)
        assert_bounds_are_pythons(whole, build_kinds + probe_kinds)
        # A row list is a chunk of one owned source, every row in order.
        assert_bounds_are_pythons(as_chunk(build, width), build_kinds)

    def test_zero_ties_keep_the_first_sign(self):
        for values in ([0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.0, 2.0, -0.0]):
            rows = as_chunk([(v,) for v in values], 1)
            assert same(rows.bounds(0), python_bounds(values))
            backwards = Chunk.join(
                rows, np.arange(len(values) - 1, -1, -1),
                as_chunk([(0,)], 1), np.zeros(len(values), np.int64),
            )
            assert same(backwards.bounds(0), python_bounds(values[::-1]))

    def test_empty_index_vectors(self):
        """An empty selection has no min, typed or not; the collector never
        asks, because an empty batch is no batch."""
        rows = [(1, 2.5), (3, -1.0)]
        empty = Chunk.join(
            as_chunk(rows, 2), np.zeros(0, np.int64), as_chunk(rows, 2), np.zeros(0, np.int64)
        )
        assert len(empty) == 0
        with pytest.raises(ValueError):
            empty.bounds(0)
        with pytest.raises(ValueError):
            min(empty.values(0))
        collector = _collector(["t.a", "t.b", "t.c", "t.d"])
        collector.observe_batch(empty)
        assert collector._minmax == {} and collector.row_count == 0


# ----------------------------------------------------------------------
# The collector: chunks through the typed fold, their rows through Python
# ----------------------------------------------------------------------


def _collector(names: list[str]) -> RuntimeCollector:
    schema = Schema([Column(name, DataType.FLOAT) for name in names])
    node = StatsCollectorNode(SeqScanNode("t", "t", schema), CollectorSpec())
    return RuntimeCollector(node, schema, EngineConfig())


_FOLDABLE = sorted(k for k in _KINDS if k != "none")  # None does not compare


@given(data=st.data(), width=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_collector_folds_chunks_as_it_folds_their_rows(data, width):
    kinds = data.draw(st.lists(st.sampled_from(_FOLDABLE), min_size=width, max_size=width))
    names = [f"t.c{i}" for i in range(width + 1)]
    by_chunk, by_rows = _collector(names), _collector(names)
    build = data.draw(st.lists(st.tuples(*(_KINDS[k][0] for k in kinds)), min_size=1, max_size=8))
    probe = [(i,) for i in range(4)]
    for __ in range(data.draw(st.integers(1, 4))):
        n = data.draw(st.integers(1, 8))
        chunk = Chunk.join(
            as_chunk(build, width), ids_into(data.draw, build, n),
            as_chunk(probe, 1), ids_into(data.draw, probe, n),
        )
        by_chunk.observe_batch(chunk)
        by_rows.observe_batch(chunk.rows())
    assert repr(by_chunk._minmax) == repr(by_rows._minmax)
    assert [type(v) for e in by_chunk._minmax.values() for v in e] == [
        type(v) for e in by_rows._minmax.values() for v in e
    ]
    new, old = by_chunk.finalize(), by_rows.finalize()
    assert repr(new.minmax) == repr(old.minmax)
    assert new.work.minmax_columns_tracked == width + 1
    # Row lists always fold in Python and are not counted; a chunk's column
    # counts when it had no typed form.
    assert old.work.minmax_python_columns == 0
    untyped = {
        name for name, column in zip(names, zip(*build)) if not _has_typed_form(list(column))
    }
    assert by_chunk._minmax_python == untyped
    assert new.work.minmax_python_columns == len(untyped)


# ----------------------------------------------------------------------
# Heap sources: the table's whole-column arrays
# ----------------------------------------------------------------------

_HEAP_COLUMNS = [
    ("k", DataType.INTEGER), ("i", DataType.INTEGER),
    ("f", DataType.FLOAT), ("z", DataType.FLOAT),
]


def _heap_rows(start: int, stop: int, scale: float = 1.0) -> list[tuple]:
    return [
        (k, (k * 7919) % 101 - 50, scale * ((k * 31) % 17 - 8) / 4, (-0.0, 0.0)[k % 2])
        for k in range(start, stop)
    ]


def _heap_chunk(table, store, ids) -> Chunk:
    outer = as_chunk([(i,) for i in range(len(ids))], 1)
    return Chunk.join(
        outer, np.arange(len(ids), dtype=np.int64),
        as_chunk(table.rows, len(table.schema), heap=store), np.asarray(ids, np.int64),
    )


def _assert_heap_bounds(table, store, ids, typed=(True, True, True, True)) -> None:
    chunk = _heap_chunk(table, store, ids)
    for position, expect_typed in enumerate(typed, start=1):
        bounds = chunk.bounds(position)
        assert (bounds is not None) == expect_typed, position
        if bounds is not None:
            assert same(bounds, python_bounds(chunk.values(position)))


class TestHeapSource:
    def test_whole_columns_follow_appends_and_truncates(self):
        db = Database(EngineConfig(batch_size=32))
        db.create_table("h", _HEAP_COLUMNS, key=["k"])
        db.load_rows("h", _heap_rows(0, 200))
        db.analyze()
        table = db.table("h")
        # Neither loading nor ANALYZE builds a column store, let alone arrays.
        assert table._column_stores == {}
        store = table.column_store()
        assert store._exact == {}
        rng = np.random.default_rng(7)
        _assert_heap_bounds(table, store, rng.integers(0, 200, 300))
        assert set(store._exact) == {0, 1, 2, 3}  # built on first read ...
        table.append_rows(_heap_rows(200, 260, scale=40.0))
        assert store._exact == {}  # ... dropped by the append's sync
        _assert_heap_bounds(table, store, rng.integers(0, 260, 300))
        assert len(store._exact[2][0]) == 260
        table.truncate()
        assert store._exact == {}
        table.append_rows(_heap_rows(500, 520, scale=-3.0))
        _assert_heap_bounds(table, store, rng.integers(0, 20, 50))
        # An integer beyond int64, a NaN and a NULL each take their column
        # off the typed fold.
        table.append_rows([(600, 2**70, float("nan"), None)])
        _assert_heap_bounds(table, store, [0, 20], typed=(True, False, False, False))

    def test_rows_appended_behind_the_store_are_not_misread(self):
        db = Database(EngineConfig(batch_size=32))
        db.create_table("h", _HEAP_COLUMNS, key=["k"])
        db.load_rows("h", _heap_rows(0, 50))
        table = db.table("h")
        store = table.column_store()
        table.rows.append((50, 10**6, 99.0, 0.0))  # not synced yet
        chunk = _heap_chunk(table, store, [3, 50])
        assert chunk.bounds(2) is None  # the Python fold reads the rows
        assert python_bounds(chunk.values(2))[1] == 10**6

    def test_index_nl_inner_reloaded_between_runs(self):
        """A table re-loaded between statements (appended, then truncated
        and refilled) as the inner side of an index-NL join under a
        collector: every run folds exactly what the row path folds, from
        arrays rebuilt for the rows the join reads."""
        db = Database(EngineConfig(batch_size=16))
        db.create_table("o", [("k", DataType.INTEGER), ("v", DataType.FLOAT)], key=["k"])
        db.load_rows("o", [(k, k / 4 - 0.5) for k in range(6)])
        db.create_index("ix_o", "o", "k")
        db.create_table("hot", [("hk", DataType.INTEGER), ("hv", DataType.INTEGER)])
        db.create_index("ix_hot", "hot", "hk")
        sql = "SELECT o.v a, hot.hv b FROM o, hot WHERE o.k = hot.hk"
        store = db.table("hot").column_store(dictionary_max=db.config.columnar_dictionary_max)
        for start, stop in ((0, 40), (40, 90), (10, 20)):
            if start == 10:
                db.table("hot").truncate()
            db.load_rows("hot", [(k % 6, k * k - 500) for k in range(start, stop)])
            db.analyze()
            with forced_joins(IndexNLJoinNode):
                plan, __, optimizer = db.plan(sql, mode=DynamicMode.OFF)
            (join,) = [n for n in plan.walk() if isinstance(n, IndexNLJoinNode)]
            assert join.inner_table == "hot"
            plan = with_collectors(db, plan, optimizer)
            runs = []
            for mode in ("row", "batch"):
                with _recorded_minmax() as seen:
                    measured, __, ctx = run_plan(db, plan, mode)
                runs.append((repr(seen), repr(measured[5]), measured[0]))
            assert runs[0] == runs[1]
            assert len(store._exact[1][0]) == db.table("hot").row_count
            assert ctx.observed


class _recorded_minmax:
    """Every collector's ``_minmax`` state as it finalizes."""

    def __enter__(self):
        self.seen: list = []
        real = self.real = RuntimeCollector.finalize

        def finalize(collector):
            self.seen.append(sorted(collector._minmax.items()))
            return real(collector)

        RuntimeCollector.finalize = finalize
        return self.seen

    def __exit__(self, *exc):
        RuntimeCollector.finalize = self.real


# ----------------------------------------------------------------------
# Which path ran: the Figure-10 configuration
# ----------------------------------------------------------------------


def test_switching_queries_fold_no_column_in_python():
    db = build_database(ExperimentConfig(scale_factor=0.01, memory_pages=192, seed=31))
    for name in ("Q5", "Q8"):
        profile = db.execute(query_by_name(name).sql, mode=DynamicMode.FULL).profile
        assert profile.plan_switches == 1
        assert profile.minmax_columns_tracked > 0
        assert profile.minmax_python_columns == 0, name
