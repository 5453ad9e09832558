"""Scan observations and the mid-query switch under the batch path.

The module name is historical: there is no parallel executor (DESIGN.md
section 8).  What it tests stays: a filtered scan runs in column space on
the batch path and stays bit-identical to the row path, its scan counts
every row it read as an exact cardinality observation, and the running
example plan-switches in FULL mode on the batch path.
"""

from __future__ import annotations

import pytest

from repro import Database, DynamicMode
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)

from .oracle import scan_records
from .test_columnar import _clustered_db, assert_bit_identical, dispatch, dispatch_rows

FILTER_SQL = "SELECT k, v FROM t WHERE k < 1200"

SWITCH_PARAMS = {"value1": 80, "value2": 80}


@pytest.fixture(scope="module")
def switch_db() -> Database:
    """The running example sized so FULL mode plan-switches at the cut
    join."""
    db = Database()
    build_running_example(
        db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
    )
    return db


def plan_for(db: Database, sql: str):
    plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
    return plan


class TestColumnarMorsels:
    """One filtered scan, two executors: the batch executor runs it in
    column space, the row executor tuple by tuple."""

    def test_charge_mode_parity_vs_batch_and_serial(self):
        db = _clustered_db(rows=4000)
        plan = plan_for(db, FILTER_SQL)
        batch_result, batch_ctx = dispatch(db, plan)
        serial_result, serial_ctx = dispatch_rows(db, plan)
        (record,) = batch_ctx.vector.by_node.values()
        assert record["kind"] == "scan"
        assert serial_ctx.vector.by_node == {}
        assert_bit_identical(serial_result, serial_ctx, batch_result, batch_ctx)


# ----------------------------------------------------------------------
# Column scans as exact observations (EXPLAIN ANALYZE)
# ----------------------------------------------------------------------


class TestZoneMapObservations:
    def test_scan_actuals_include_skipped_rows(self):
        # A column scan's actual rows are every row it read, rows its
        # filter rejects included, so Q-error never reads a selective
        # filter as a cardinality miss.
        db = _clustered_db(rows=4000)
        report = db.explain_analyze(FILTER_SQL)
        scan = next(
            node
            for plan in report.plans
            for node in plan.nodes
            if node.vectorized and node.vectorized["kind"] == "scan"
        )
        table_rows = len(db.catalog.table("t").rows)
        assert scan.actual_rows == scan.vectorized["rows_scanned"] == table_rows
        assert scan.rows_q_error == pytest.approx(1.0, abs=0.05)
        # The result reads the filter's 1 200 rows as tuples.
        assert f"scan: {table_rows} rows scanned, 1200 materialised" in report.render()

    def test_by_scan_counts_rows_in_both_modes(self):
        # Both consumers: the result, which reads the filter's chunk as
        # tuples, and an aggregate, which reads its columns.
        db = _clustered_db(rows=4000)
        aggregate_sql = "SELECT count(*) n, sum(v) s FROM t WHERE k < 1200"
        for sql, built in ((FILTER_SQL, 1200), (aggregate_sql, 0)):
            report = db.explain_analyze(sql)
            assert scan_records(report) == {
                "t": {"kind": "scan", "rows_scanned": 4000, "rows_materialised": built}
            }
            (selected,) = [n.actual_rows for n in report.plans[-1].nodes if n.label == "Filter"]
            assert selected == 1200


# ----------------------------------------------------------------------
# Mid-query plan switch
# ----------------------------------------------------------------------


class TestSwitchInteraction:
    def test_serial_baseline_switches(self, switch_db):
        serial = switch_db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
        )
        assert serial.profile.plan_switches >= 1
