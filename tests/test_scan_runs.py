"""A scan is one pass over whole stored columns.

The column store holds whole columns, so a scan charges its pages and
hands on one chunk of every row id, once.  Under test: every scan of the
paper queries reads every stored row of its table; a table striped page
by page stays bit-identical to the row path; and the multi-key aggregate
keeps each group's first row's key values.
"""

from __future__ import annotations

import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.workloads.tpcd import ALL_QUERIES

from .oracle import row_path, scan_records
from .test_columnar import dispatch, dispatch_rows

pytestmark = pytest.mark.hashseed

BATCH = 8


@pytest.fixture(scope="module")
def paper_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01, memory_pages=192))


class TestOnePassPerScan:
    @pytest.mark.parametrize("mode", [DynamicMode.OFF, DynamicMode.FULL])
    def test_every_column_scan_of_the_paper_queries_is_one_pass(
        self, paper_db, mode
    ):
        scans = 0
        for query in ALL_QUERIES:
            report = paper_db.explain_analyze(query.sql, mode=mode)
            for name, record in scan_records(report).items():
                if not name.startswith("__temp_"):  # dropped with its query
                    table = paper_db.table(name)
                    assert record["rows_scanned"] == table.row_count, query.name
                    scans += 1
        assert scans >= len(ALL_QUERIES)

    def test_groups_and_numeric_read_the_one_stored_column(self, paper_db):
        table = paper_db.table("lineitem")
        store = table.column_store(
            dictionary_max=paper_db.config.columnar_dictionary_max
        )
        column = table.schema.index_of("l_quantity")
        assert store.exact(column)[0] is store.array(column)
        assert len(store.array(column)) == table.row_count


# ----------------------------------------------------------------------
# Striped data
# ----------------------------------------------------------------------


def _striped_db() -> Database:
    """``t(k, v)`` at ``batch_size=8``, one page per row-scan batch, with
    ``v`` 0 on even pages and 1 on odd ones."""
    db = Database(EngineConfig(batch_size=BATCH))
    db.create_table("t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)])
    db.create_table("u", [("k", DataType.INTEGER), ("w", DataType.INTEGER)])
    per_page = db.catalog.table("t").rows_per_page
    assert per_page >= BATCH
    pages = 9
    db.load_rows("t", [(i, (i // per_page) % 2) for i in range(pages * per_page)])
    db.load_rows("u", [(i * 7, i % 5) for i in range(400)])
    db.analyze()
    return db


STRIPED_SQL = [
    "SELECT t.k, t.v FROM t WHERE t.v = 0 AND t.k > 3",
    "SELECT t.v, count(*) n, sum(t.k) s, min(t.k) lo FROM t"
    " WHERE t.v = 0 GROUP BY t.v",
    "SELECT t.k, u.w FROM t, u WHERE t.k = u.k AND t.v = 0",
]


class TestRunsSplitBySkips:
    """Data whose selected rows alternate page by page, as a range
    predicate's do when the table is clustered on another column."""

    @pytest.mark.parametrize("sql", STRIPED_SQL)
    def test_charge_mode_is_bit_identical_to_row_path(self, sql):
        db = _striped_db()
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        row, row_ctx = dispatch_rows(db, plan)
        col, col_ctx = dispatch(db, plan)
        assert repr(col.rows) == repr(row.rows)
        assert repr(col_ctx.clock.breakdown) == repr(row_ctx.clock.breakdown)
        assert col_ctx.buffer_pool.stats == row_ctx.buffer_pool.stats
        assert col_ctx.actual_rows == row_ctx.actual_rows
        scan_id = next(
            node.node_id for node in plan.walk()
            if getattr(node, "table_name", None) == "t"
        )
        record = col_ctx.vector.by_node[scan_id]
        assert record["rows_scanned"] == row_ctx.actual_rows[scan_id]


# ----------------------------------------------------------------------
# Multi-key aggregate keys come from each group's first row
# ----------------------------------------------------------------------


class TestMultiKeyGroupKeys:
    def test_group_key_is_the_groups_first_row(self):
        db = Database()
        db.create_table(
            "t",
            [("k", DataType.INTEGER), ("f", DataType.FLOAT), ("v", DataType.INTEGER)],
        )
        db.load_rows("t", [(1, 0.0, 1), (2, -0.0, 1), (1, -0.0, 1)])
        db.analyze()
        sql = "SELECT t.k, t.f, sum(t.v) s FROM t GROUP BY t.k, t.f"
        with row_path():
            row = db.execute(sql)
        batch = db.execute(sql)
        assert batch.profile.rows_folded == 3
        assert repr(row.rows) == "[(1, 0.0, 2), (2, -0.0, 1)]"
        assert repr(batch.rows) == repr(row.rows)
