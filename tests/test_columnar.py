"""Column-space operators: storage, mask kernels, parity, integration.

The contract under test (DESIGN.md section 6): scans hand on chunks of row
ids over the column store, filters narrow them by NumPy masks, the
aggregate folds whole columns, and a tuple is built only where a row
consumer reads one — byte-identical to the row path (the oracle,
:func:`tests.oracle.row_path`): result rows, simulated ``CostBreakdown``,
buffer statistics and observed statistics, at any batch size, including
across mid-query plan switches.  Plus the storage layer it rides on:
lazily built, incrementally synced ``ColumnStore`` columns and dictionary
overflow demotion.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.errors import ConfigError
from repro.executor.dispatcher import Dispatcher
from repro.observe.metrics import MetricsRegistry
from repro.plans.logical import (
    AndPredicate,
    ColumnExpr,
    CompareOp,
    Comparison,
    ConstExpr,
    InPredicate,
)
from repro.stats.histogram import HistogramKind
from repro.storage import Schema
from repro.executor.vector import compile_mask_conjuncts
from repro.workloads.tpcd import ALL_QUERIES

from .conftest import make_two_table_db
from .oracle import assert_row_parity, row_path, runtime_context, scan_records

pytestmark = pytest.mark.hashseed


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


def dispatch(db: Database, plan):
    """One dispatcher run on a fresh runtime context; returns (result, ctx)."""
    ctx = runtime_context(db)
    try:
        result = Dispatcher(ctx).run(plan)
    finally:
        ctx.temp_manager.drop_all()
    return result, ctx


def dispatch_rows(db: Database, plan):
    """:func:`dispatch` on the row interpreter, the oracle."""
    with row_path():
        return dispatch(db, plan)


def assert_observed_equal(left: dict, right: dict) -> None:
    """Collector-output equality (histograms compared by kind + buckets)."""
    assert set(left) == set(right)
    for node_id, a in left.items():
        b = right[node_id]
        assert a.row_count == b.row_count
        assert a.row_bytes == b.row_bytes
        assert dict(a.minmax) == dict(b.minmax)
        assert dict(a.distincts) == dict(b.distincts)
        assert set(a.histograms) == set(b.histograms)
        for column, ha in a.histograms.items():
            hb = b.histograms[column]
            assert ha.kind == hb.kind
            assert ha.buckets == hb.buckets


def assert_bit_identical(left, left_ctx, right, right_ctx) -> None:
    """The full cross-mode parity contract for one dispatched plan."""
    assert left.rows == right.rows
    assert left_ctx.clock.breakdown == right_ctx.clock.breakdown
    assert left_ctx.clock.now == right_ctx.clock.now
    assert left_ctx.buffer_pool.stats == right_ctx.buffer_pool.stats
    assert left_ctx.switches == right_ctx.switches
    assert left_ctx.reallocations == right_ctx.reallocations
    assert_observed_equal(left_ctx.observed, right_ctx.observed)


# ----------------------------------------------------------------------
# Storage: ColumnStore sync and encodings
# ----------------------------------------------------------------------


def _make_table(rows, dtypes=None, dictionary_max=256):
    db = Database()
    width = len(rows[0]) if rows else 1
    dtypes = dtypes or [DataType.INTEGER] * width
    db.create_table("t", [(f"c{i}", dtypes[i]) for i in range(width)])
    if rows:
        db.load_rows("t", rows)
    table = db.catalog.table("t")
    return db, table, table.column_store(dictionary_max=dictionary_max)


class TestColumnStore:
    def test_integer_column_round_trips_exactly(self):
        values = [(-(2**62), 0), (2**62, 1), (17, 2)]
        __, table, store = _make_table(values)
        assert store.encoding(0) == "int64"
        assert store.values(0).tolist() == [v for v, __ in values]

    def test_huge_integer_demotes_to_object(self):
        __, __t, store = _make_table([(2**70, 0), (1, 1)])
        assert store.encoding(0) == "object"
        assert store.values(0).tolist() == [2**70, 1]

    def test_bool_demotes_to_object(self):
        # bool is an int subclass but int64 storage would turn True into 1,
        # breaking value-level parity with the heap tuples.
        __, __t, store = _make_table([(True, 0), (False, 1)])
        assert store.encoding(0) == "object"
        assert store.values(0).tolist() == [True, False]

    def test_null_in_numeric_column_demotes_to_object(self):
        __, __t, store = _make_table([(1, 0), (None, 1), (3, 2)])
        assert store.encoding(0) == "object"
        assert store.values(0).tolist() == [1, None, 3]

    def test_string_column_dictionary_encodes(self):
        rows = [(i, ["red", "green", "blue"][i % 3]) for i in range(300)]
        __, __t, store = _make_table(
            rows, dtypes=[DataType.INTEGER, DataType.STRING]
        )
        assert store.encoding(1) == "dict"
        assert store.values(1).tolist() == [value for __, value in rows]

    def test_dictionary_overflow_demotes_and_decodes_in_place(self):
        rows = [(i, f"v{i}") for i in range(300)]
        __, __t, store = _make_table(
            rows, dtypes=[DataType.INTEGER, DataType.STRING], dictionary_max=16
        )
        assert store.encoding(1) == "object"
        assert store.dictionaries[1] is None
        assert store.values(1).tolist() == [value for __, value in rows]

    def test_incremental_sync_keeps_full_group_prefix(self):
        db, table, store = _make_table([(i, 0) for i in range(1000)])
        prefix = store.array(0)
        version = store.version
        table.append_rows([(i, 1) for i in range(1000, 1500)])
        assert store.version > version
        assert store.array(0)[:1000].tolist() == prefix.tolist()
        assert store.values(0).tolist() == [row[0] for row in table.rows]

    def test_sync_is_idempotent(self):
        __, table, store = _make_table([(i, 0) for i in range(100)])
        version = store.version
        store.sync()
        store.sync()
        assert store.version == version

    def test_truncate_resets_store(self):
        __, table, store = _make_table([(2**70, 0)])
        assert store.encoding(0) == "object"
        table.truncate()
        assert store.encoding(0) == "int64"
        assert len(store.array(0)) == 0

    def test_store_cached_per_geometry(self):
        # One store per dictionary budget.
        __, table, store = _make_table([(i, 0) for i in range(100)])
        assert table.column_store(dictionary_max=256) is store
        assert table.column_store(dictionary_max=16) is not store

    def test_columns_build_on_first_read_only(self):
        rows = [(i, i % 5, f"s{i % 3}") for i in range(1000)]
        dtypes = [DataType.INTEGER, DataType.INTEGER, DataType.STRING]
        __, __t, store = _make_table(rows, dtypes=dtypes)
        assert store._built == [False, False, False]
        version = store.version
        sel = np.arange(300, 600)
        assert store.values(1, sel).tolist() == [row[1] for row in rows[300:600]]
        # The whole column in one build; its neighbours unread.
        assert store.version == version + 1
        assert store._built == [False, True, False]
        assert store._columns[0] is None and store._columns[2] is None
        assert store.array(1) is store._columns[1]
        store.values(1)
        store.dict_codes(1)
        assert store.version == version + 1

    def test_unchanged_table_costs_a_row_count_check(self, monkeypatch):
        __, table, store = _make_table([(i, 0) for i in range(1000)])
        store.encoding(0)
        calls = []
        encode = store._encode
        monkeypatch.setattr(
            store, "_encode",
            lambda *args: calls.append(args) or encode(*args),
        )
        version = store.version
        assert table.column_store() is store
        assert table.column_store() is store
        assert calls == [] and store.version == version
        table.append_rows([(1000, 1)])
        assert calls == [(0, 1000)] and store.version == version + 1

    def test_append_extends_only_tail_groups_of_built_columns(self, monkeypatch):
        rows = [(i, i % 7, float(i)) for i in range(1000)]
        dtypes = [DataType.INTEGER, DataType.INTEGER, DataType.FLOAT]
        __, table, store = _make_table(rows, dtypes=dtypes)
        store.encoding(1)
        encoded = []
        encode_as = store._encode_as
        monkeypatch.setattr(
            store, "_encode_as",
            lambda kind, position, values: encoded.append((position, len(values)))
            or encode_as(kind, position, values),
        )
        table.append_rows([(i, i % 7, float(i)) for i in range(1000, 1300)])
        # Only the built column, only the appended rows.
        assert encoded == [(1, 300)]
        assert store._built == [False, True, False]
        assert store._columns[0] is None and store._columns[2] is None
        assert store.values(1).tolist() == [row[1] for row in table.rows]

    def test_integers_that_fit_store_as_int32_and_widen_on_append(self):
        __, table, store = _make_table([(i, 0) for i in range(1000)])
        assert store.array(0).dtype == np.int32
        assert store.encoding(0) == "int64"
        table.append_rows([(2**40, 1)])  # outgrows int32 in the appended row
        assert store.array(0).dtype == np.int64
        assert store.values(0).tolist() == [row[0] for row in table.rows]
        # A column that never fit is int64 from the start.
        __, __t, wide = _make_table([(2**40 + i, 0) for i in range(300)])
        assert wide.array(0).dtype == np.int64

    def test_lazy_build_order_equals_eager_build(self):
        # Column 0 demotes to object late (a NULL), column 1's
        # dictionary overflows mid-build, column 2 outgrows int32 late,
        # column 3 is a float with a stray bool.  Whichever column is read
        # first, and whether the appends land before or after the reads,
        # every column must end in the state an eager build gives it.
        def rows_for(lo, hi):
            return [
                (
                    None if i == 700 else i,
                    f"v{i % 11 if i < 400 else i}",
                    2**40 if i == 650 else i,
                    True if i == 820 else float(i),
                    f"c{i % 4}",
                )
                for i in range(lo, hi)
            ]

        dtypes = [
            DataType.INTEGER, DataType.STRING, DataType.INTEGER,
            DataType.FLOAT, DataType.STRING,
        ]

        def state(store):
            return [
                (
                    store.encoding(c),
                    None if store.dictionaries[c] is None
                    else list(store.dictionaries[c].values),
                    store.array(c).dtype,
                    store.array(c).tolist(),
                )
                for c in range(5)
            ]

        __, __t, eager = _make_table(
            rows_for(0, 1000), dtypes=dtypes, dictionary_max=16
        )
        expect = state(eager)  # columns read 0..4, all rows present
        assert [e[0] for e in expect] == [
            "object", "object", "int64", "object", "dict",
        ]
        for order in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            __, table, lazy = _make_table(
                rows_for(0, 300), dtypes=dtypes, dictionary_max=16
            )
            for step, column in enumerate(order):
                lazy.encoding(column)
                if step == 1:
                    table.append_rows(rows_for(300, 680))
                if step == 3:
                    table.append_rows(rows_for(680, 1000))
            assert state(lazy) == expect

    def test_concurrent_first_touch_builds_a_column_once(self):
        import sys
        import threading

        __, __t, store = _make_table([(i, i % 9) for i in range(20_000)])
        version = store.version
        barrier = threading.Barrier(8)
        seen, errors = [], []

        def touch():
            try:
                barrier.wait(timeout=10)
                seen.append(store.values(1, np.arange(19_000, 20_000)).tolist())
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert store.version == version + 1  # one build, not eight
        assert seen == [[i % 9 for i in range(19_000, 20_000)]] * 8


# ----------------------------------------------------------------------
# Mask kernels
# ----------------------------------------------------------------------


def _schema():
    from .conftest import simple_schema

    return simple_schema()


def compile_mask_filter(predicates, schema):
    """The single conjunct's mask kernel, or None without a kernel."""
    conjuncts = compile_mask_conjuncts(predicates, schema)
    if conjuncts is None:
        return None
    (kernel,) = conjuncts
    return kernel


class TestMaskCompiler:
    def _resolve_for(self, columns):
        return lambda position: np.asarray(columns[position])

    def test_comparison_mask(self):
        schema = _schema()
        fn = compile_mask_filter(
            [Comparison(CompareOp.LT, ColumnExpr("id"), ConstExpr(3))], schema
        )
        mask = fn(self._resolve_for({0: [1, 2, 3, 4]}))
        assert mask.tolist() == [True, True, False, False]

    def test_conjunction_and_in_list(self):
        schema = _schema()
        fn = compile_mask_filter(
            [
                AndPredicate(
                    (
                        Comparison(CompareOp.GE, ColumnExpr("id"), ConstExpr(1)),
                        InPredicate(ColumnExpr("id"), (2, 4)),
                    )
                )
            ],
            schema,
        )
        mask = fn(self._resolve_for({0: [0, 2, 3, 4]}))
        assert mask.tolist() == [False, True, False, True]

    def test_arithmetic_division_by_zero_constant_rejected(self):
        # NumPy's x/0 yields inf+warning where Python raises, and int64
        # arithmetic wraps where Python's ints do not: no arithmetic has a
        # mask kernel, whatever the divisor.
        from repro.plans.logical import ArithExpr

        schema = _schema()
        for divisor in (0, 2):
            assert (
                compile_mask_filter(
                    [
                        Comparison(
                            CompareOp.EQ,
                            ArithExpr("/", ColumnExpr("id"), ConstExpr(divisor)),
                            ConstExpr(1),
                        )
                    ],
                    schema,
                )
                is None
            )

    def test_unsupported_expression_returns_none(self):
        from repro.plans.logical import FuncExpr

        schema = _schema()
        assert (
            compile_mask_filter(
                [
                    Comparison(
                        CompareOp.EQ,
                        FuncExpr("abs", (ColumnExpr("id"),)),
                        ConstExpr(1),
                    )
                ],
                schema,
            )
            is None
        )


# ----------------------------------------------------------------------
# Parity: column kernels (batch path) vs the row path
# ----------------------------------------------------------------------

PARITY_QUERIES = [
    "SELECT id, a, b FROM r1 WHERE a < 50",
    "SELECT id FROM r1 WHERE a < 30 AND b >= 10",
    "SELECT id, a FROM r1 WHERE id < 400 AND a <> 7",
    "SELECT r1.id, r2.c FROM r1, r2 WHERE r1.id = r2.r1_id AND r1.a < 40",
    "SELECT r1.a, count(*), sum(r2.c) FROM r1, r2 WHERE r1.id = r2.r1_id GROUP BY r1.a",
    "SELECT id, a + b FROM r1 WHERE id < 200",
    "SELECT count(*) FROM r2 WHERE r1_id < 100",
]


class TestColumnarParity:
    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_bit_identical_on_two_table_db(self, two_table_db, sql):
        plan, __scia, __opt = two_table_db.plan(sql, mode=DynamicMode.FULL)
        col_result, col_ctx = dispatch(two_table_db, plan)
        row_result, row_ctx = dispatch_rows(two_table_db, plan)
        assert any(r["kind"] == "scan" for r in col_ctx.vector.by_node.values())
        assert_bit_identical(col_result, col_ctx, row_result, row_ctx)

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_bit_identical_on_tpcd(self, tpcd_db, query):
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        row_result, row_ctx = dispatch_rows(tpcd_db, plan)
        col_result, col_ctx = dispatch(tpcd_db, plan)
        assert_bit_identical(col_result, col_ctx, row_result, row_ctx)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1024])
    def test_parity_at_any_page_group_size(self, batch_size):
        db = Database(EngineConfig(batch_size=batch_size))
        rows = [(i, i % 13, i % 3) for i in range(500)]
        db.create_table(
            "t",
            [
                ("k", DataType.INTEGER),
                ("a", DataType.INTEGER),
                ("b", DataType.INTEGER),
            ],
        )
        db.load_rows("t", rows)
        db.analyze()
        for sql in (
            "SELECT k, a FROM t WHERE k < 250 AND a >= 3",
            "SELECT b, count(*) FROM t WHERE k >= 100 GROUP BY b",
        ):
            plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
            row_result, row_ctx = dispatch_rows(db, plan)
            col_result, col_ctx = dispatch(db, plan)
            assert_bit_identical(col_result, col_ctx, row_result, row_ctx)

    def test_string_and_null_columns_hold_parity(self):
        db = Database(EngineConfig(batch_size=32))
        db.create_table(
            "t",
            [
                ("k", DataType.INTEGER),
                ("s", DataType.STRING),
                ("v", DataType.INTEGER),
            ],
        )
        rows = [
            (i, ["red", "green", "blue"][i % 3], None if i % 5 == 0 else i % 40)
            for i in range(400)
        ]
        db.load_rows("t", rows)  # no ANALYZE: its column stats reject NULLs
        for sql in (
            "SELECT k, s FROM t WHERE s = 'red' AND k < 300",
            "SELECT s, count(*) FROM t WHERE k >= 10 GROUP BY s",
        ):
            plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
            row_result, row_ctx = dispatch_rows(db, plan)
            col_result, col_ctx = dispatch(db, plan)
            assert_bit_identical(col_result, col_ctx, row_result, row_ctx)

    def test_switch_queries_survive_columnar(self, tpcd_db):
        # Q5 and Q8 re-optimize mid-query at this scale; the column kernels
        # must reproduce the switch and the final profile exactly.
        for name in ("Q5", "Q8"):
            query = next(q for q in ALL_QUERIES if q.name == name)
            with row_path():
                row = tpcd_db.execute(query.sql, mode=DynamicMode.FULL)
            col = tpcd_db.execute(query.sql, mode=DynamicMode.FULL)
            assert col.rows == row.rows
            assert col.profile.plan_switches == row.profile.plan_switches
            assert row.profile.plan_switches >= 1
            assert col.profile.total_cost == row.profile.total_cost
            assert col.profile.breakdown == row.profile.breakdown

    @pytest.mark.parametrize("name", ["Q3", "Q8"])
    def test_the_controller_sees_what_the_row_path_sees(self, tpcd_db, name):
        # A collector completes after the scan and filters below it: the
        # remaining cost behind Eq 1 / Eq 2 counts them as done.
        query = next(q for q in ALL_QUERIES if q.name == name)
        result = assert_row_parity(tpcd_db, query.sql, DynamicMode.FULL)
        assert any(e.trigger is not None for e in result.profile.events)

    def test_appends_after_analyze_stay_consistent(self, two_table_db):
        db = two_table_db
        sql = "SELECT id, a FROM r1 WHERE id >= 1990"
        before = db.execute(sql)
        epoch = db.catalog.stats_epoch
        db.load_rows("r1", [(i, 1, 2) for i in range(2000, 2100)])
        assert db.catalog.stats_epoch > epoch  # plan-cache invalidation
        after_col = db.execute(sql)
        with row_path():
            after_row = db.execute(sql)
        assert len(after_col.rows) == len(before.rows) + 100
        assert after_col.rows == after_row.rows
        assert after_col.profile.total_cost == after_row.profile.total_cost


# ----------------------------------------------------------------------
# Clustered, NULL-, NaN- and short-circuit-sensitive scans
# ----------------------------------------------------------------------


def _clustered_db(batch_size=64, rows=2000) -> Database:
    """A table clustered on k: a k-range predicate selects a few pages."""
    db = Database(EngineConfig(batch_size=batch_size))
    db.create_table(
        "t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"]
    )
    db.load_rows("t", [(i, i % 17) for i in range(rows)])
    db.analyze()
    return db


class TestZoneMapSkipping:
    """Scans a vectorized kernel could get wrong — clustered ranges,
    NULL- and NaN-bearing columns, conjuncts that must not reach rows an
    earlier one excluded — held to the row path."""

    def test_charge_mode_is_cost_identical_to_batch(self):
        db = _clustered_db()
        sql = "SELECT k FROM t WHERE k >= 1900"
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        row_result, row_ctx = dispatch_rows(db, plan)
        col_result, col_ctx = dispatch(db, plan)
        assert_bit_identical(col_result, col_ctx, row_result, row_ctx)

    def test_groups_with_nulls_never_skip_and_error_parity(self):
        # A NULL comparison raises on the serial path when the row is
        # reached; the column kernels raise the same TypeError.
        db = Database(EngineConfig(batch_size=8))
        db.create_table("t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)])
        db.load_rows("t", [(i if i % 8 else None, i) for i in range(2048)])
        sql = "SELECT v FROM t WHERE k > 100000"
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        with pytest.raises(TypeError):
            dispatch_rows(db, plan)
        with pytest.raises(TypeError):
            dispatch(db, plan)

    def test_conjunct_short_circuit_matches_serial(self):
        # A row failing the first conjunct must never reach the second —
        # here every NULL-k row is excluded by ``v < 100`` first, so the
        # serial path completes without touching the NULLs and the
        # column kernels must do the same: k demoted to the object
        # encoding, so the second conjunct waits for the selection to
        # narrow instead of evaluating over the whole column.
        db = Database(EngineConfig(batch_size=8))
        db.create_table("t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)])
        db.load_rows(
            "t",
            [
                (None if i % 8 == 0 else i, 1000 if i % 8 == 0 else i % 50)
                for i in range(2048)
            ],
        )
        sql = "SELECT k FROM t WHERE v < 100 AND k > 5"
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        try:
            row_outcome = dispatch_rows(db, plan)
        except TypeError:
            row_outcome = None  # optimizer reordered: both must raise
        if row_outcome is None:
            with pytest.raises(TypeError):
                dispatch(db, plan)
        else:
            col_result, col_ctx = dispatch(db, plan)
            assert_bit_identical(
                col_result, col_ctx, row_outcome[0], row_outcome[1]
            )

    def test_nan_in_an_object_column_bounds_prove_nothing(self):
        # The int 7 sends the FLOAT column to objects; `f <> 5.0` must
        # select the NaN row, as the row path does.
        db = Database(EngineConfig(batch_size=64))
        db.create_table("t", [("k", DataType.INTEGER), ("f", DataType.FLOAT)])
        rows = [(i, 7 if i == 0 else 5.0) for i in range(600)]
        rows[400] = (400, float("nan"))
        db.load_rows("t", rows)
        db.analyze()
        sql = "SELECT t.k FROM t WHERE t.f <> 5.0"
        batch = db.execute(sql)
        with row_path():
            assert batch.rows == db.execute(sql).rows
        assert batch.rows == [(0,), (400,)]

    def test_page_per_group_geometry_skips_and_matches(self):
        # batch_size 1: the row scan yields one page a batch.
        db = _clustered_db(batch_size=1, rows=2000)
        plan, __scia, __opt = db.plan(
            "SELECT k FROM t WHERE k = 25", mode=DynamicMode.FULL
        )
        row_result, row_ctx = dispatch_rows(db, plan)
        col_result, col_ctx = dispatch(db, plan)
        assert_bit_identical(col_result, col_ctx, row_result, row_ctx)


# ----------------------------------------------------------------------
# Masks NumPy would answer unlike Python: the row kernel runs instead
# ----------------------------------------------------------------------


class TestExactMasks:
    """A filter or join residual compiles to masks only where NumPy compares
    as Python does; otherwise that one operator runs the row kernel."""

    def test_leaf_filter_arithmetic_does_not_wrap(self):
        # (2**40 + i) * (2**40 - i) is past 2**63: int64 wraps it negative.
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.INTEGER)])
        db.load_rows(
            "t",
            [(2**40 + i, 2**40 - i) for i in range(3000)] + [(i, i) for i in range(3000)],
        )
        db.analyze()
        for op, count in ((">", 5999), ("<", 0)):
            for mode in (DynamicMode.OFF, DynamicMode.FULL):
                result = assert_row_parity(
                    db, f"SELECT count(*) n FROM t WHERE t.a * t.b {op} 0", mode
                )
                assert result.rows == [(count,)]

    @pytest.fixture
    def past_2_53(self) -> Database:
        db = Database()
        db.create_table("t", [("k", DataType.INTEGER), ("a", DataType.INTEGER)])
        db.load_rows("t", [(i, 2**53 + 1) for i in range(2000)])
        db.create_table("u", [("k", DataType.INTEGER), ("f", DataType.FLOAT)])
        db.load_rows("u", [(i, 2.0**53) for i in range(0, 2000, 4)])
        db.analyze()
        return db

    def test_integer_against_float_past_2_53_on_a_scan(self, past_2_53):
        # NumPy casts the int64 column to float64: 2**53 + 1 rounds to 2**53.
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            result = assert_row_parity(
                past_2_53, "SELECT t.k FROM t WHERE t.a > 9007199254740992.0", mode
            )
            assert len(result.rows) == 2000

    def test_integer_against_float_past_2_53_in_a_join_residual(self, past_2_53):
        sql = "SELECT t.k, u.f FROM t, u WHERE t.k = u.k AND t.a > u.f"
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            assert len(assert_row_parity(past_2_53, sql, mode).rows) == 500

    def test_which_comparisons_compile(self, past_2_53):
        table = past_2_53.catalog.table
        schema = table("t").schema.qualify("t").concat(table("u").schema.qualify("u"))

        def compiles(left, op, right) -> bool:
            return compile_mask_conjuncts([Comparison(op, left, right)], schema) is not None

        a, f, k = ColumnExpr("t.a"), ColumnExpr("u.f"), ColumnExpr("t.k")
        assert compiles(a, CompareOp.GT, ConstExpr(2**60))  # int against int
        assert compiles(a, CompareOp.GT, ConstExpr(2.0**53 - 1))
        assert not compiles(a, CompareOp.GT, ConstExpr(2.0**53))
        assert compiles(f, CompareOp.LT, ConstExpr(24))
        assert not compiles(f, CompareOp.LT, ConstExpr(2**53))
        assert compiles(a, CompareOp.EQ, k)
        assert not compiles(a, CompareOp.GT, f)  # a column-vs-column mix
        assert not compiles(f, CompareOp.GT, f)  # a FLOAT column may hold ints

    def test_no_paper_query_scan_filter_loses_its_mask(self, tpcd_db):
        from repro.plans.physical import FilterNode, SeqScanNode

        filters = 0
        for query in ALL_QUERIES:
            plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
            for node in plan.walk():
                if isinstance(node, FilterNode) and isinstance(node.child, SeqScanNode):
                    filters += 1
                    masks = compile_mask_conjuncts(node.predicates, node.child.schema)
                    assert masks is not None, (query.name, node.detail())
        assert filters >= len(ALL_QUERIES)


# ----------------------------------------------------------------------
# Late materialisation: tuples are built only for rows a row operator gets
# ----------------------------------------------------------------------


class TestLateMaterialisation:
    """Exact counts at SF 0.01 / seed 31 — observational, but exact: a
    regression that materialises a probe side or an aggregate input shows
    as tens of thousands of tuples, not as a slower wall clock."""

    @pytest.fixture(scope="class")
    def seed31_db(self) -> Database:
        return build_database(ExperimentConfig(scale_factor=0.01, seed=31))

    def analyzed(self, db, name):
        query = next(q for q in ALL_QUERIES if q.name == name)
        report = db.explain_analyze(query.sql)
        return report, scan_records(report)

    @staticmethod
    def selected(report) -> int:
        """Rows the filter over lineitem's scan passed."""
        (rows,) = [
            node.actual_rows for node in report.plans[-1].nodes
            if node.label == "Filter" and "l_shipdate" in node.detail
        ]
        return rows

    @pytest.mark.parametrize("name, selected", [("Q1", 59963), ("Q6", 1081)])
    def test_aggregates_materialise_nothing(self, seed31_db, name, selected):
        report, by_table = self.analyzed(seed31_db, name)
        assert by_table == {
            "lineitem": {
                "kind": "scan", "rows_scanned": 59963, "rows_materialised": 0,
            }
        }
        assert self.selected(report) == selected

    def test_probe_side_materialises_what_the_join_emits(self, seed31_db):
        report, by_table = self.analyzed(seed31_db, "Q3")
        lineitem = by_table["lineitem"]
        assert lineitem["rows_scanned"] == 59963
        assert self.selected(report) == 32739
        joins = [
            node
            for node in report.plans[-1].nodes
            if node.vectorized and node.vectorized["kind"] == "probe"
        ]
        top = next(j for j in joins if j.vectorized["rows_probed"] == 32739)
        assert top.actual_rows == top.vectorized["matches"] == 285
        # The probe side passes its matches on as row ids, and the
        # aggregate above reads their columns: neither builds a tuple.
        assert lineitem["rows_materialised"] == top.vectorized["rows_materialised"] == 0
        # A bare scan feeding a hash-join build hands on its row ids too.
        report, q10 = self.analyzed(seed31_db, "Q10")
        assert q10["nation"] == {
            "kind": "scan", "rows_scanned": 25, "rows_materialised": 0,
        }
        assert "scan: 25 rows scanned, 0 materialised" in report.render()


# ----------------------------------------------------------------------
# Engine integration: profile, plan cache, metrics, EXPLAIN ANALYZE
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_profile_fields_and_summary(self):
        db = _clustered_db()
        sql = "SELECT count(*) n FROM t WHERE k < 100"
        profile = db.execute(sql).profile
        assert profile.rows_folded == 100
        gone = {
            "leaf_pipelines", "columnar_pipelines", "columnar_keyed_pipelines",
            "vectorized_agg_pipelines", "vectorized_probe_pipelines",
        }
        assert not gone & {f.name for f in dataclasses.fields(profile)}
        assert "leaf pipelines" not in profile.summary()
        with row_path():
            row = db.execute(sql)
        assert row.profile.rows_folded == 0  # the row interpreter records none

    def test_keyed_pipelines_feed_joins_and_aggregates(self, two_table_db):
        # Both scans hand on row ids: the join reads its key columns, the
        # aggregate its group and argument columns, and no tuple is built.
        sql = (
            "SELECT r1.a, count(*) FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r2.c < 8 GROUP BY r1.a"
        )
        report = two_table_db.explain_analyze(sql)
        assert report.result.profile.join_rows_materialised == 0
        records = scan_records(report)
        assert set(records) == {"r1", "r2"}
        assert all(r["rows_materialised"] == 0 for r in records.values())
        with row_path():
            assert two_table_db.execute(sql).rows == report.result.rows

    def test_metrics_counters_recorded(self):
        registry = MetricsRegistry()
        db = Database(
            EngineConfig(batch_size=64),
            metrics=registry,
        )
        db.create_table("t", [("k", DataType.INTEGER)], key=["k"])
        db.load_rows("t", [(i,) for i in range(2000)])
        db.analyze()
        db.execute("SELECT count(*) n FROM t WHERE k < 64")
        snap = registry.snapshot()
        assert snap["vector.rows_folded"]["value"] == 64
        assert not [name for name in snap if name.startswith(("leaf.", "columnar."))]
        assert "vector.agg_pipelines" not in snap

    def test_explain_analyze_reports_zone_map_line(self):
        db = _clustered_db()
        report = db.explain_analyze("SELECT k FROM t WHERE k < 100")
        rendered = report.render()
        # The result reads the filter's 100 rows as tuples.
        assert "scan: 2000 rows scanned, 100 materialised" in rendered
        assert "leaf pipeline" not in rendered
        assert "zone maps" not in rendered

    def test_env_and_validation(self):
        # There is one executor: column kernels are its own choice, every
        # statement runs in one process, and the row interpreter is no
        # mode.  Any execution mode is a configuration error, and the
        # toggles — like the knobs no result told apart — are not fields
        # any more.
        db = _clustered_db()
        sql = "SELECT k FROM t WHERE k < 10"
        for mode in ("row", "batch", "columnar", "parallel"):
            with pytest.raises(ConfigError):
                db.execute(sql, execution_mode=mode)
        with pytest.raises(ConfigError):
            db.execute(sql, workers=2)
        for gone in (
            "zone_map_skipping",
            "vectorized_agg",
            "vectorized_probe",
            "columnar_parallel",
            "parallel_workers",
            "morsel_pages",
            "parallel_min_morsels",
            "parallel_stats",
            "parallel_joins",
            "parallel_preagg",
            "parallel_prefetch",
            "parallel_build",
            "parallel_spill",
            "parallel_sort",
            "zone_map_cost_mode",
            "session_memory_policy",
            "admission_queue_size",
            "admission_timeout_s",
            "feedback_q_error_threshold",
            "feedback_decay",
            "feedback_max_correction",
            "feedback_path",
            "feedback_enabled",
            "server_worker_mode",
            "execution_mode",
            "plan_cache_enabled",
        ):
            assert gone not in {f.name for f in dataclasses.fields(EngineConfig)}
            with pytest.raises(TypeError):
                EngineConfig(**{gone: None})
        # These names survive only as read-only class constants.
        assert EngineConfig().server_worker_mode == "thread"
        assert EngineConfig().execution_mode == "batch"
        assert EngineConfig().feedback_enabled is False
        with pytest.raises(ConfigError):
            EngineConfig(columnar_dictionary_max=0).validate()

    def test_row_mode_never_builds_stores(self):
        db = _clustered_db()
        with row_path():
            db.execute("SELECT k FROM t WHERE k < 10")
        assert db.catalog.table("t")._column_stores == {}
