"""Zone-map observations and the mid-query switch under the batch path.

The module name is historical: there is no parallel executor (DESIGN.md
section 8).  What it tests stays: a leaf pipeline runs in column space on
the batch path and stays bit-identical to the row path, zone-map skips
count as exact cardinality observations, and the running example
plan-switches in FULL mode on the batch path.
"""

from __future__ import annotations

import pytest

from repro import Database, DynamicMode, EngineConfig
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)

from .test_columnar import _clustered_db, assert_bit_identical, dispatch, dispatch_rows

FILTER_SQL = "SELECT k, v FROM t WHERE k < 1200"

SWITCH_PARAMS = {"value1": 80, "value2": 80}


@pytest.fixture(scope="module")
def switch_db() -> Database:
    """The running example sized so FULL mode plan-switches at the cut
    join.  Feedback stays off so the switch repeats identically."""
    db = Database(EngineConfig(feedback_enabled=False))
    build_running_example(
        db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
    )
    return db


def plan_for(db: Database, sql: str):
    plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
    return plan


class TestColumnarMorsels:
    """One leaf pipeline, two executors: the batch executor runs it in
    column space (zone maps included), the row executor tuple by tuple."""

    def test_charge_mode_parity_vs_batch_and_serial(self):
        db = _clustered_db(rows=4000)
        plan = plan_for(db, FILTER_SQL)
        batch_result, batch_ctx = dispatch(db, plan)
        serial_result, serial_ctx = dispatch_rows(db, plan)
        assert batch_ctx.columnar.pipelines == 1
        assert batch_ctx.columnar.groups_skipped > 0
        assert serial_ctx.columnar.leaf == {}
        assert_bit_identical(serial_result, serial_ctx, batch_result, batch_ctx)


# ----------------------------------------------------------------------
# Zone-map skips as exact free observations (SCIA / EXPLAIN ANALYZE)
# ----------------------------------------------------------------------


class TestZoneMapObservations:
    def test_scan_actuals_include_skipped_rows(self):
        # A zone-map skip is an exact cardinality observation: the scan's
        # actual rows must count skipped groups, so Q-error never reads
        # pruning as a cardinality miss.
        db = _clustered_db(rows=4000)
        report = db.explain_analyze(FILTER_SQL)
        assert report.result.profile.zone_map_skips > 0
        scan = next(
            node
            for plan in report.plans
            for node in plan.nodes
            if node.zone_map is not None
        )
        assert scan.zone_map["rows_skipped"] > 0
        table_rows = len(db.catalog.table("t").rows)
        assert scan.actual_rows == table_rows
        assert scan.rows_q_error == pytest.approx(1.0, abs=0.05)
        assert f"{scan.zone_map['rows_skipped']} rows" in report.render()

    def test_by_scan_counts_rows_in_both_modes(self):
        # Both hand-off modes: survivors materialised as row batches, and
        # runs a vectorized aggregate consumes in column space.
        db = _clustered_db(rows=4000)
        aggregate_sql = "SELECT count(*) n, sum(v) s FROM t WHERE k < 1200"
        for sql, keyed in ((FILTER_SQL, 0), (aggregate_sql, 1)):
            __result, ctx = dispatch(db, plan_for(db, sql))
            assert ctx.columnar.keyed_pipelines == keyed
            (per_scan,) = ctx.columnar.by_scan.values()
            assert per_scan["rows_skipped"] > 0
            assert per_scan["rows_skipped"] == ctx.columnar.rows_skipped


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
