"""Leaf pipelines make one kernel pass per run of page groups.

The column store holds whole columns and a page group is a slice of them,
so a leaf pipeline masks, materialises and hands over once per *run* — a
maximal stretch of consecutive groups the zone maps do not skip — instead
of once per group.  Under test: a scan with no skip is one pass on every
paper query; a table whose zone maps skip alternate groups splits into
runs and stays bit-identical to the row path; and the column-space
multi-key aggregate keeps each group's first row's key values.
"""

from __future__ import annotations

import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.workloads.tpcd import ALL_QUERIES

from .test_columnar import dispatch

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
            result = paper_db.execute(query.sql, mode=mode)
            for record in result.profile.leaf_pipelines.values():
                if record["kernel"] == "column":
                    assert record["passes"] == 1, (query.name, record)
                    scans += 1
        assert scans >= len(ALL_QUERIES)


    def test_groups_and_numeric_read_the_one_stored_column(self, paper_db):
        table = paper_db.table("lineitem")
        store = table.column_store(
            paper_db.config.batch_size, paper_db.config.columnar_dictionary_max
        )
        column = table.schema.index_of("l_quantity")
        assert store.exact(column)[0] is store.column(column)
        for group in store.groups:
            view = store.array(group, column)
            assert view.base is store.column(column)
            assert len(view) == group.row_count


# ----------------------------------------------------------------------
# Runs split by zone-map skips
# ----------------------------------------------------------------------


def _striped_db(**config) -> tuple[Database, int]:
    """``t(k, v)`` at ``batch_size=8``, one page per group, with ``v`` 0 on
    even pages and 1 on odd ones: ``v = 0`` skips every other group."""
    db = Database(EngineConfig(batch_size=BATCH, **config))
    db.create_table("t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)])
    db.create_table("u", [("k", DataType.INTEGER), ("w", DataType.INTEGER)])
    per_page = db.catalog.table("t").rows_per_page
    assert per_page >= BATCH
    pages = 9
    db.load_rows("t", [(i, (i // per_page) % 2) for i in range(pages * per_page)])
    db.load_rows("u", [(i * 7, i % 5) for i in range(400)])
    db.analyze()
    return db, pages


STRIPED_SQL = [
    "SELECT t.k, t.v FROM t WHERE t.v = 0 AND t.k > 3",
    "SELECT t.v, count(*) n, sum(t.k) s, min(t.k) lo FROM t"
    " WHERE t.v = 0 GROUP BY t.v",
    "SELECT t.k, u.w FROM t, u WHERE t.k = u.k AND t.v = 0",
]


class TestRunsSplitBySkips:
    @pytest.mark.parametrize("sql", STRIPED_SQL)
    def test_charge_mode_is_bit_identical_to_row_path(self, sql):
        db, pages = _striped_db()
        plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        row, row_ctx = dispatch(db, plan, "row")
        col, col_ctx = dispatch(db, plan, "batch")
        assert repr(col.rows) == repr(row.rows)
        assert repr(col_ctx.clock.breakdown) == repr(row_ctx.clock.breakdown)
        assert col_ctx.buffer_pool.stats == row_ctx.buffer_pool.stats
        assert col_ctx.actual_rows == row_ctx.actual_rows
        scan_id = next(
            scan_id for scan_id, record in col_ctx.columnar.leaf.items()
            if record["table"] == "t"
        )
        record = col_ctx.columnar.leaf[scan_id]
        assert record["kernel"] == "column"
        assert record["passes"] == (pages + 1) // 2  # the even pages
        assert record["rows_scanned"] == row_ctx.actual_rows[scan_id]
        per_scan = col_ctx.columnar.by_scan[scan_id]
        assert per_scan["groups_read"] == (pages + 1) // 2
        assert per_scan["groups_skipped"] == pages // 2

    def test_explain_and_trace_show_the_pass_count(self):
        db, pages = _striped_db(tracing=True)
        report = db.explain_analyze(STRIPED_SQL[0])
        assert f"materialised, {(pages + 1) // 2} passes" in report.render()
        spans = [
            event
            for event in report.result.profile.trace.to_chrome()["traceEvents"]
            if event.get("name", "").startswith("columnar-pipeline-")
            and "runs" in event.get("args", {})
        ]
        assert [event["args"]["runs"] for event in spans] == [(pages + 1) // 2]


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
        row = db.execute(sql, execution_mode="row")
        batch = db.execute(sql, execution_mode="batch")
        assert batch.profile.vectorized_agg_pipelines == 1
        assert repr(row.rows) == "[(1, 0.0, 2), (2, -0.0, 1)]"
        assert repr(batch.rows) == repr(row.rows)
