"""The batch path's mid-query switch.

The module name is historical: there is no parallel executor (DESIGN.md
section 8).  What it tests stays: on the running example in FULL mode the
batch executor switches plans at the cut join and runs the remainder over
the materialised temporary table.
"""

from __future__ import annotations

import pytest

from repro import Database, DynamicMode
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)

SWITCH_PARAMS = {"value1": 80, "value2": 80}


@pytest.fixture(scope="module")
def switch_db() -> Database:
    """The running example sized so FULL mode plan-switches at the cut join."""
    db = Database()
    build_running_example(
        db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
    )
    return db


class TestSwitchDuringParallelProbe:
    def test_serial_baseline_switches(self, switch_db):
        serial = switch_db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
        )
        assert serial.profile.plan_switches >= 1
        assert any("__temp" in sql for sql in serial.profile.remainder_sqls)
