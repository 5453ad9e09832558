"""Row-vs-batch execution parity suite.

The batch path's contract (see ``src/repro/executor/batch.py``) is that for
any plan it produces the same rows in the same order, the same cost-clock
charges (exactly, not approximately), the same buffer-pool behaviour and
the same observed statistics as the row path, which every test here
reaches through :func:`tests.oracle.row_path`.  These tests enforce that
contract across random multi-join queries, every dynamic mode, weird batch
sizes, LIMIT, empty inputs, and a query that performs a mid-query plan
switch.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from repro import Database, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.engine.results import QueryResult
from repro.errors import ConfigError
from repro.executor.dispatcher import Dispatcher
from repro.executor.runtime import RuntimeContext
from repro.optimizer.cost_model import CostModel
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)

from repro.workloads.tpcd import ALL_QUERIES

from .oracle import row_path
from .test_random_queries import build_random_db, random_query

ALL_MODES = (
    DynamicMode.OFF,
    DynamicMode.MEMORY_ONLY,
    DynamicMode.PLAN_ONLY,
    DynamicMode.FULL,
)


def assert_parity(row_result: QueryResult, batch_result: QueryResult) -> None:
    """Assert exact row, cost-clock, buffer and event parity.

    Rows compare by ``repr``: ``==`` would let a NumPy scalar pass for the
    Python number it equals, and the contract is bit-identical rows."""
    assert repr(row_result.rows) == repr(batch_result.rows)
    row_profile = row_result.profile
    batch_profile = batch_result.profile
    assert row_profile.breakdown == batch_profile.breakdown
    assert row_profile.total_cost == batch_profile.total_cost
    assert row_profile.buffer == batch_profile.buffer
    assert row_profile.plan_switches == batch_profile.plan_switches
    assert row_profile.memory_reallocations == batch_profile.memory_reallocations
    assert row_profile.collectors_inserted == batch_profile.collectors_inserted


def run_both(db: Database, sql: str, mode: DynamicMode, params=None):
    with row_path():
        row_result = db.execute(sql, params=params, mode=mode)
    batch_result = db.execute(sql, params=params, mode=mode)
    return row_result, batch_result


def parity_db(seed: int, tables: int = 3) -> Database:
    """Parity asserts bit-identical repeat executions on one engine; the
    cross-query feedback loop deliberately changes later runs, so pin it off
    regardless of a ``REPRO_FEEDBACK=1`` suite leg."""
    return build_random_db(
        seed, tables, config=EngineConfig(feedback_enabled=False)
    )


class TestRandomQueryParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_costs_and_events_match(self, seed):
        db = parity_db(seed)
        rng = random.Random(seed * 17 + 1)
        sql = random_query(rng)
        for mode in ALL_MODES:
            row_result, batch_result = run_both(db, sql, mode)
            assert_parity(row_result, batch_result)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_with_indexes(self, seed):
        db = parity_db(seed, tables=4)
        for i in range(1, 4):
            db.create_index(f"ix_t{i}", f"t{i}", f"t{i - 1}_k")
        rng = random.Random(seed + 41)
        sql = random_query(rng, tables=4)
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            row_result, batch_result = run_both(db, sql, mode)
            assert_parity(row_result, batch_result)

    def test_distinct_and_order_by(self):
        db = parity_db(3)
        sql = (
            "SELECT DISTINCT t0.v, t1.v FROM t0, t1 "
            "WHERE t1.t0_k = t0.k ORDER BY t0.v, t1.v"
        )
        for mode in ALL_MODES:
            row_result, batch_result = run_both(db, sql, mode)
            assert_parity(row_result, batch_result)

    def test_limit_keeps_early_termination_charges(self):
        db = parity_db(4)
        sql = "SELECT t0.v one FROM t0 WHERE t0.v < 12 LIMIT 5"
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            row_result, batch_result = run_both(db, sql, mode)
            assert len(batch_result.rows) <= 5
            assert_parity(row_result, batch_result)

    def test_empty_input(self):
        db = Database()
        from repro import DataType

        db.create_table("e", [("k", DataType.INTEGER), ("v", DataType.INTEGER)])
        db.analyze()
        for sql in (
            "SELECT v FROM e WHERE v < 3",
            "SELECT v, count(*) n FROM e GROUP BY v",
            "SELECT count(*) n FROM e",
        ):
            row_result, batch_result = run_both(db, sql, DynamicMode.FULL)
            assert_parity(row_result, batch_result)


class TestTpcdParity:
    """The seven paper queries in the Figure-10 configuration (SF 0.01,
    192 pages), with and without re-optimization: generated data must hold
    only Python scalars, or the row path's values print differently."""

    @pytest.fixture(scope="class")
    def fig10_db(self) -> Database:
        return build_database(ExperimentConfig(scale_factor=0.01, memory_pages=192))

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_rows_costs_and_events_match(self, fig10_db, query):
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            assert_parity(*run_both(fig10_db, query.sql, mode))


class TestBatchSizeInsensitivity:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 100_000])
    def test_any_batch_size_matches_row_path(self, batch_size):
        db = Database(EngineConfig(batch_size=batch_size))
        rng = random.Random(99)
        from repro import DataType

        db.create_table("t0", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"])
        db.create_table(
            "t1",
            [("k", DataType.INTEGER), ("t0_k", DataType.INTEGER), ("v", DataType.INTEGER)],
            key=["k"],
        )
        db.load_rows("t0", [(k, rng.randrange(10)) for k in range(200)])
        db.load_rows("t1", [(k, rng.randrange(200), rng.randrange(10)) for k in range(500)])
        db.analyze()
        sql = (
            "SELECT t0.v, count(*) n FROM t0, t1 "
            "WHERE t1.t0_k = t0.k AND t1.v < 7 GROUP BY t0.v"
        )
        row_result, batch_result = run_both(db, sql, DynamicMode.FULL)
        assert_parity(row_result, batch_result)


class TestObservedStatisticsParity:
    def _run_collect(self, db: Database, plan):
        config = db.config
        clock = CostClock(config.cost)
        pool = BufferPool(config.buffer_pool_pages, clock)
        ctx = RuntimeContext(
            catalog=db.catalog,
            config=config,
            clock=clock,
            buffer_pool=pool,
            temp_manager=TempTableManager(db.catalog, pool),
            cost_model=CostModel(config),
        )
        Dispatcher(ctx).run(plan)
        return ctx.observed

    def test_collectors_observe_identical_statistics(self):
        db = parity_db(6)
        sql = (
            "SELECT t0.v, count(*) n FROM t0, t1, t2 "
            "WHERE t1.t0_k = t0.k AND t2.t1_k = t1.k AND t0.v < 10 "
            "GROUP BY t0.v"
        )
        plan, scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
        assert scia is not None and scia.collector_points > 0
        with row_path():
            row_observed = self._run_collect(db, plan)
        batch_observed = self._run_collect(db, plan)
        assert set(row_observed) == set(batch_observed)
        assert row_observed, "expected at least one completed collector"
        for node_id, row_stats in row_observed.items():
            batch_stats = batch_observed[node_id]
            assert row_stats.row_count == batch_stats.row_count
            assert row_stats.row_bytes == batch_stats.row_bytes
            assert dict(row_stats.minmax) == dict(batch_stats.minmax)
            assert dict(row_stats.distincts) == dict(batch_stats.distincts)
            assert set(row_stats.histograms) == set(batch_stats.histograms)
            for column, row_hist in row_stats.histograms.items():
                batch_hist = batch_stats.histograms[column]
                assert row_hist.kind == batch_hist.kind
                assert row_hist.buckets == batch_hist.buckets


class TestPlanSwitchParity:
    @pytest.fixture(scope="class")
    def underestimate_db(self):
        # Cold-optimizer misestimates must repeat identically run to run.
        db = Database(EngineConfig(feedback_enabled=False))
        build_running_example(
            db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
        )
        return db

    PARAMS = {"value1": 80, "value2": 80}

    def test_mid_query_switch_is_identical(self, underestimate_db):
        row_result, batch_result = run_both(
            underestimate_db, RUNNING_EXAMPLE_SQL, DynamicMode.FULL, self.PARAMS
        )
        assert batch_result.profile.plan_switches >= 1
        assert_parity(row_result, batch_result)
        assert (
            row_result.profile.remainder_sqls == batch_result.profile.remainder_sqls
        )

    def test_switch_parity_in_plan_only_mode(self, underestimate_db):
        row_result, batch_result = run_both(
            underestimate_db, RUNNING_EXAMPLE_SQL, DynamicMode.PLAN_ONLY, self.PARAMS
        )
        assert batch_result.profile.plan_switches >= 1
        assert_parity(row_result, batch_result)


class TestConfigKnobs:
    def test_batch_is_the_default(self):
        assert EngineConfig().execution_mode == "batch"
        assert "execution_mode" not in {f.name for f in fields(EngineConfig)}

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig(batch_size=0).validate()
