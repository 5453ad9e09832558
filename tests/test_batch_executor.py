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
from repro.errors import ConfigError
from repro.executor.dispatcher import Dispatcher
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)

from repro.workloads.tpcd import ALL_QUERIES

from .oracle import assert_row_parity, row_path, runtime_context
from .test_random_queries import build_random_db, random_query

ALL_MODES = (
    DynamicMode.OFF,
    DynamicMode.MEMORY_ONLY,
    DynamicMode.PLAN_ONLY,
    DynamicMode.FULL,
)


class TestRandomQueryParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_costs_and_events_match(self, seed):
        db = build_random_db(seed)
        rng = random.Random(seed * 17 + 1)
        sql = random_query(rng)
        for mode in ALL_MODES:
            assert_row_parity(db, sql, mode)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_with_indexes(self, seed):
        db = build_random_db(seed, tables=4)
        for i in range(1, 4):
            db.create_index(f"ix_t{i}", f"t{i}", f"t{i - 1}_k")
        rng = random.Random(seed + 41)
        sql = random_query(rng, tables=4)
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            assert_row_parity(db, sql, mode)

    def test_distinct_and_order_by(self):
        db = build_random_db(3)
        sql = (
            "SELECT DISTINCT t0.v, t1.v FROM t0, t1 "
            "WHERE t1.t0_k = t0.k ORDER BY t0.v, t1.v"
        )
        for mode in ALL_MODES:
            assert_row_parity(db, sql, mode)

    def test_limit_keeps_early_termination_charges(self):
        db = build_random_db(4)
        for limit in (1, 5, 17, 10_000):
            sql = f"SELECT t0.v one FROM t0 WHERE t0.v < 12 LIMIT {limit}"
            for mode in (DynamicMode.OFF, DynamicMode.FULL):
                result = assert_row_parity(db, sql, mode)
                assert len(result.rows) <= limit

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
            assert_row_parity(db, sql, DynamicMode.FULL)


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
            assert_row_parity(fig10_db, query.sql, mode)


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
        assert_row_parity(db, sql, DynamicMode.FULL)


class TestObservedStatisticsParity:
    def _run_collect(self, db: Database, plan):
        ctx = runtime_context(db)
        Dispatcher(ctx).run(plan)
        return ctx.observed

    def test_collectors_observe_identical_statistics(self):
        db = build_random_db(6)
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
        db = Database()
        build_running_example(
            db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
        )
        return db

    PARAMS = {"value1": 80, "value2": 80}

    def test_mid_query_switch_is_identical(self, underestimate_db):
        result = assert_row_parity(
            underestimate_db, RUNNING_EXAMPLE_SQL, DynamicMode.FULL, self.PARAMS
        )
        assert result.profile.plan_switches >= 1

    def test_switch_parity_in_plan_only_mode(self, underestimate_db):
        result = assert_row_parity(
            underestimate_db, RUNNING_EXAMPLE_SQL, DynamicMode.PLAN_ONLY, self.PARAMS
        )
        assert result.profile.plan_switches >= 1


class TestConfigKnobs:
    def test_batch_is_the_default(self):
        assert EngineConfig().execution_mode == "batch"
        assert "execution_mode" not in {f.name for f in fields(EngineConfig)}

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig(batch_size=0).validate()
