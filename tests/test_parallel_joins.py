"""Probe-side parallel hash joins, worker pre-aggregation, prefetch.

The contract under test (DESIGN.md section 8, PR 4): extending the morsel
worker pool from leaf pipelines up to hash-join probe pipelines and
pre-aggregating pipelines changes *nothing observable* — byte-identical
result rows, bit-for-bit identical simulated ``CostBreakdown`` and buffer
statistics, and (in exact statistics mode) bit-identical observed
statistics, at any worker count, in both ``parallel_stats`` modes, and
across mid-query plan switches that fire while a probe pipeline is
parallel.  Plus the scheduler pieces the tentpole rides on: range-affine
morsel partitioning, the integer-only pre-aggregation gate, staging
windows, prefetch telemetry and plan-cache key specialization.
"""

from __future__ import annotations

import pytest

from repro import Database, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.engine.plan_cache import PlanCache
from repro.executor import parallel as parallel_mod
from repro.executor.dispatcher import Dispatcher
from repro.executor.iterators import _AggState
from repro.executor.memory import MemoryManager
from repro.executor.parallel import _group_morsels, _partition_morsels
from repro.executor.runtime import RuntimeContext
from repro.optimizer.cost_model import CostModel
from repro.plans.logical import AggFunc
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)
from repro.workloads.tpcd import ALL_QUERIES

#: TPC-D queries whose plans contain hash joins with leaf-extractable
#: probe children at sf 0.01 (verified by the telemetry assertions below).
JOIN_QUERIES = ("Q3", "Q7", "Q10")

#: An aggregate over integer columns only: every aggregate merges exactly,
#: so the whole pipeline pre-aggregates in the workers.
INT_AGG_SQL = (
    "SELECT l_linenumber, COUNT(*), MIN(l_orderkey), MAX(l_partkey), "
    "SUM(l_suppkey) FROM lineitem WHERE l_orderkey > 1000 "
    "GROUP BY l_linenumber"
)


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


@pytest.fixture(scope="module")
def switch_db() -> Database:
    """The running example sized so FULL mode plan-switches at the cut join.

    Feedback stays off: these tests need the cold optimizer's misestimate
    (and the resulting switch) to repeat identically across executions.
    """
    db = Database(EngineConfig(feedback_enabled=False))
    build_running_example(
        db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
    )
    return db


SWITCH_PARAMS = {"value1": 80, "value2": 80}


def dispatch(db: Database, plan, execution_mode: str, workers: int = 0, **knobs):
    """One dispatcher run on a fresh runtime context; returns (result, ctx)."""
    config = db.config.with_updates(
        execution_mode=execution_mode, parallel_workers=workers, **knobs
    )
    clock = CostClock(config.cost)
    pool = BufferPool(config.buffer_pool_pages, clock)
    ctx = RuntimeContext(
        catalog=db.catalog,
        config=config,
        clock=clock,
        buffer_pool=pool,
        temp_manager=TempTableManager(db.catalog, pool),
        cost_model=CostModel(config),
        memory_budget_pages=config.query_memory_pages,
    )
    try:
        result = Dispatcher(ctx).run(plan)
    finally:
        ctx.temp_manager.drop_all()
    return result, ctx


def assert_observed_equal(left: dict, right: dict) -> None:
    """Collector-output equality (histograms compared by kind + buckets)."""
    assert set(left) == set(right)
    for node_id, a in left.items():
        b = right[node_id]
        assert a.row_count == b.row_count
        assert dict(a.minmax) == dict(b.minmax)
        assert dict(a.distincts) == dict(b.distincts)
        assert set(a.histograms) == set(b.histograms)
        for column, ha in a.histograms.items():
            hb = b.histograms[column]
            assert ha.kind == hb.kind
            assert ha.buckets == hb.buckets


# ----------------------------------------------------------------------
# Probe-side parity
# ----------------------------------------------------------------------


class TestProbeSideParity:
    @pytest.mark.parametrize("query_name", JOIN_QUERIES)
    def test_exact_parity_vs_batch(self, tpcd_db, query_name):
        query = next(q for q in ALL_QUERIES if q.name == query_name)
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        for workers in (1, 2, 7):
            result, ctx = dispatch(tpcd_db, plan, "parallel", workers=workers)
            assert result.rows == batch_result.rows
            assert ctx.clock.breakdown == batch_ctx.clock.breakdown
            assert ctx.clock.now == batch_ctx.clock.now
            assert ctx.buffer_pool.stats == batch_ctx.buffer_pool.stats
            assert_observed_equal(ctx.observed, batch_ctx.observed)
            assert ctx.parallel.join_pipelines >= 1

    @pytest.mark.parametrize("query_name", JOIN_QUERIES)
    def test_merge_stats_schedule_independent(self, tpcd_db, query_name):
        query = next(q for q in ALL_QUERIES if q.name == query_name)
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        reference, ref_ctx = dispatch(
            tpcd_db, plan, "parallel", workers=1, parallel_stats="merge"
        )
        assert ref_ctx.parallel.join_pipelines >= 1
        for workers in (2, 7):
            result, ctx = dispatch(
                tpcd_db, plan, "parallel", workers=workers, parallel_stats="merge"
            )
            assert result.rows == reference.rows
            assert ctx.clock.breakdown == ref_ctx.clock.breakdown
            assert_observed_equal(ctx.observed, ref_ctx.observed)

    @pytest.mark.parametrize("query_name", JOIN_QUERIES)
    def test_merge_mode_rows_match_batch(self, tpcd_db, query_name):
        # Merge-mode histograms differ from serial (different sample), but
        # result rows never may.
        query = next(q for q in ALL_QUERIES if q.name == query_name)
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        batch_result, __ = dispatch(tpcd_db, plan, "batch")
        result, __ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_stats="merge"
        )
        assert result.rows == batch_result.rows

    def test_joins_toggle_restricts_to_leaf_pipelines(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_joins=False
        )
        assert ctx.parallel.join_pipelines == 0
        assert result.rows == batch_result.rows
        assert ctx.clock.breakdown == batch_ctx.clock.breakdown

    def test_probe_fallback_without_fork(self, tpcd_db, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_fork_available", lambda: False)
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        with pytest.warns(RuntimeWarning, match="fork"):
            result, ctx = dispatch(tpcd_db, plan, "parallel", workers=4)
        assert result.rows == batch_result.rows
        assert ctx.clock.breakdown == batch_ctx.clock.breakdown
        assert ctx.parallel.join_pipelines >= 1
        assert ctx.parallel.workers == 1


# ----------------------------------------------------------------------
# Mid-query plan switches inside a parallel probe pipeline
# ----------------------------------------------------------------------


class TestSwitchDuringParallelProbe:
    def test_serial_baseline_switches(self, switch_db):
        serial = switch_db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="batch",
        )
        assert serial.profile.plan_switches >= 1
        assert any("__temp" in sql for sql in serial.profile.remainder_sqls)

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_exact_mode_switch_parity(self, switch_db, workers):
        serial = switch_db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="batch",
        )
        par = switch_db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="parallel",
            workers=workers,
        )
        assert par.rows == serial.rows
        assert par.profile.plan_switches == serial.profile.plan_switches
        assert par.profile.total_cost == serial.profile.total_cost
        assert par.profile.breakdown == serial.profile.breakdown
        assert par.profile.remainder_sqls == serial.profile.remainder_sqls
        assert any("__temp" in sql for sql in par.profile.remainder_sqls)
        # The switch's cut join itself ran as a parallel probe pipeline.
        assert par.profile.parallel_join_pipelines >= 1

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_merge_mode_switch_rows_identical(self, workers):
        # A separate engine configured for merge statistics: the sampled
        # histograms differ from serial, so re-optimization decisions may
        # legitimately differ — but rows never may, and different worker
        # counts must agree with each other on everything (merge-mode
        # statistics are schedule-independent by construction).
        # Three executions of one SQL on one engine: pin the feedback loop
        # off so runs 2 and 3 replan exactly like run 1 (a feedback-corrected
        # plan would reorder float accumulation and change AVG bits).
        db = Database(
            EngineConfig(parallel_stats="merge", feedback_enabled=False)
        )
        build_running_example(
            db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
        )
        serial = db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="batch",
        )
        reference = db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="parallel",
            workers=1,
        )
        par = db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="parallel",
            workers=workers,
        )
        assert par.rows == serial.rows
        assert par.rows == reference.rows
        assert par.profile.plan_switches == reference.profile.plan_switches
        assert par.profile.total_cost == reference.profile.total_cost
        assert par.profile.breakdown == reference.profile.breakdown
        assert par.profile.parallel_join_pipelines >= 1


# ----------------------------------------------------------------------
# Worker-side pre-aggregation
# ----------------------------------------------------------------------


class TestPreAggregation:
    def test_integer_aggregates_preaggregate(self, tpcd_db):
        plan, __scia, __opt = tpcd_db.plan(INT_AGG_SQL, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        for workers in (1, 2, 7):
            result, ctx = dispatch(tpcd_db, plan, "parallel", workers=workers)
            assert result.rows == batch_result.rows
            assert ctx.clock.breakdown == batch_ctx.clock.breakdown
            assert ctx.buffer_pool.stats == batch_ctx.buffer_pool.stats
            assert ctx.parallel.preagg_pipelines == 1
            assert ctx.parallel.rows_preaggregated > 0
            assert ctx.parallel.groups_shipped >= len(result.rows)
            # Partials ship instead of rows: nothing row-shaped crosses.
            assert ctx.parallel.rows_shipped == 0

    def test_preagg_ships_fewer_rows_than_rows_path(self, tpcd_db):
        plan, __scia, __opt = tpcd_db.plan(INT_AGG_SQL, mode=DynamicMode.FULL)
        with_preagg, on_ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        without, off_ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_preagg=False
        )
        assert with_preagg.rows == without.rows
        assert on_ctx.clock.breakdown == off_ctx.clock.breakdown
        assert off_ctx.parallel.preagg_pipelines == 0
        assert off_ctx.parallel.rows_shipped > 0
        assert on_ctx.parallel.rows_shipped == 0
        assert on_ctx.parallel.groups_shipped < off_ctx.parallel.rows_shipped

    def test_scalar_aggregate_preaggregates(self, tpcd_db):
        sql = "SELECT COUNT(*), MAX(l_orderkey) FROM lineitem"
        plan, __scia, __opt = tpcd_db.plan(sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert result.rows == batch_result.rows
        assert ctx.clock.breakdown == batch_ctx.clock.breakdown
        assert ctx.parallel.preagg_pipelines == 1

    def test_empty_input_parity(self, tpcd_db):
        sql = "SELECT COUNT(*), MIN(l_orderkey) FROM lineitem WHERE l_orderkey < 0"
        plan, __scia, __opt = tpcd_db.plan(sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert result.rows == batch_result.rows
        assert result.rows[0][0] == 0
        assert ctx.clock.breakdown == batch_ctx.clock.breakdown

    def test_float_sum_preaggregates_as_value_runs(self, tpcd_db):
        sql = (
            "SELECT l_linenumber, SUM(l_extendedprice) FROM lineitem "
            "GROUP BY l_linenumber"
        )
        plan, __scia, __opt = tpcd_db.plan(sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert ctx.parallel.preagg_pipelines == 1
        # The lifted gate ships per-group value runs, never raw rows.
        assert ctx.parallel.rows_shipped == 0
        assert ctx.parallel.rows_preaggregated > 0
        assert ctx.vector.agg_pipelines == 1
        assert result.rows == batch_result.rows
        assert ctx.clock.breakdown == batch_ctx.clock.breakdown

    def test_avg_preaggregates_with_knob(self, tpcd_db):
        sql = "SELECT AVG(l_suppkey) FROM lineitem"
        plan, __scia, __opt = tpcd_db.plan(sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert ctx.parallel.preagg_pipelines == 1
        assert ctx.parallel.rows_shipped == 0
        assert result.rows == batch_result.rows
        assert ctx.clock.breakdown == batch_ctx.clock.breakdown

    def test_preagg_toggle_off(self, tpcd_db):
        plan, __scia, __opt = tpcd_db.plan(INT_AGG_SQL, mode=DynamicMode.FULL)
        __, ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_preagg=False
        )
        assert ctx.parallel.preagg_pipelines == 0

    def test_agg_state_merge_matches_serial_fold(self):
        values = [7, None, 3, 9, 1, None, 5, 2, 8]
        for func in (AggFunc.COUNT, AggFunc.SUM, AggFunc.MIN, AggFunc.MAX):
            serial = _AggState(func)
            serial.update_batch(values)
            left, right = _AggState(func), _AggState(func)
            left.update_batch(values[:4])
            right.update_batch(values[4:])
            left.merge(right)
            assert left.count == serial.count
            assert left.result() == serial.result()


# ----------------------------------------------------------------------
# Range-affine partitioning and staging windows
# ----------------------------------------------------------------------


class TestPartitioning:
    def _setup(self, pages: int, morsel_pages: int):
        groups = [(i, i + 1) for i in range(pages)]
        morsels = _group_morsels(groups, morsel_pages)
        return groups, morsels

    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_covers_all_morsels_contiguously(self, partitions):
        groups, morsels = self._setup(101, 4)
        bounds = _partition_morsels(morsels, groups, partitions)
        assert len(bounds) == partitions
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(morsels)
        for (__, prev_end), (start, __e) in zip(bounds, bounds[1:]):
            assert start == prev_end

    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_every_partition_nonempty(self, partitions):
        groups, morsels = self._setup(29, 4)
        bounds = _partition_morsels(morsels, groups, partitions)
        assert all(end > start for start, end in bounds)

    def test_balanced_by_pages(self):
        groups, morsels = self._setup(128, 4)
        bounds = _partition_morsels(morsels, groups, 4)
        pages = [
            groups[morsels[end - 1][1] - 1][1] - groups[morsels[start][0]][0]
            for start, end in bounds
        ]
        assert max(pages) - min(pages) <= 4  # within one morsel of even

    def test_deterministic(self):
        groups, morsels = self._setup(57, 4)
        assert _partition_morsels(morsels, groups, 3) == _partition_morsels(
            morsels, groups, 3
        )

    def test_staging_windows_bounds(self):
        windows = MemoryManager.staging_windows(1000, 4, 64, 4)
        assert len(windows) == 4
        assert all(1 <= w <= 4 for w in windows)
        # Zero free pages still grants one morsel per worker.
        assert MemoryManager.staging_windows(0, 3, 64, 4) == [1, 1, 1]
        # A huge budget is capped.
        assert MemoryManager.staging_windows(10**6, 2, 64, 4) == [4, 4]


# ----------------------------------------------------------------------
# Prefetch
# ----------------------------------------------------------------------


class TestPrefetch:
    def test_prefetch_off_counts_nothing(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        __, ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_prefetch=False
        )
        assert ctx.parallel.prefetched_morsels == 0

    def test_prefetch_toggle_parity(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        on_result, on_ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        off_result, off_ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_prefetch=False
        )
        assert on_result.rows == off_result.rows
        assert on_ctx.clock.breakdown == off_ctx.clock.breakdown
        assert_observed_equal(on_ctx.observed, off_ctx.observed)


# ----------------------------------------------------------------------
# Profile and plan-cache integration
# ----------------------------------------------------------------------


class TestProfileAndCache:
    def test_per_pipeline_wall_clock(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        par = tpcd_db.execute(
            query.sql, mode=DynamicMode.FULL, execution_mode="parallel", workers=2
        )
        profile = par.profile
        assert profile.parallel_pipelines >= 2
        assert profile.parallel_join_pipelines >= 1
        assert len(profile.pipeline_wall_s) == profile.parallel_pipelines
        for per_worker in profile.pipeline_wall_s.values():
            assert all(s >= 0.0 for s in per_worker.values())
        # The backwards-compatible aggregate sums across pipelines.
        total = sum(profile.worker_wall_s.values())
        per_pipeline = sum(
            s for pw in profile.pipeline_wall_s.values() for s in pw.values()
        )
        assert total == pytest.approx(per_pipeline)
        assert total > 0.0

    def test_execution_key_specialization(self):
        config = EngineConfig()
        assert PlanCache.execution_key(config, "batch", None) == "batch"
        assert PlanCache.execution_key(config, "row", 5) == "row"
        key = PlanCache.execution_key(config, "parallel", 3)
        assert key == "parallel/w3/j1/a1/b1/s1/p1"
        off = config.with_updates(parallel_joins=False, parallel_preagg=False)
        assert (
            PlanCache.execution_key(off, "parallel", 3)
            == "parallel/w3/j0/a0/b1/s1/p1"
        )
        plan_wide_off = config.with_updates(
            parallel_build=False, parallel_sort=False, parallel_spill=False
        )
        assert (
            PlanCache.execution_key(plan_wide_off, "parallel", 3)
            == "parallel/w3/j1/a1/b0/s0/p0"
        )
        # workers=None resolves from the config.
        sized = config.with_updates(parallel_workers=6)
        assert (
            PlanCache.execution_key(sized, "parallel", None)
            == "parallel/w6/j1/a1/b1/s1/p1"
        )

    def test_toggle_changes_cache_key(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q3")
        tpcd_db.execute(
            query.sql, mode=DynamicMode.FULL, execution_mode="parallel", workers=2
        )
        repeat = tpcd_db.execute(
            query.sql, mode=DynamicMode.FULL, execution_mode="parallel", workers=2
        )
        assert repeat.profile.plan_cache_hit


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------


class TestConfigKnobs:
    def test_defaults_on(self):
        config = EngineConfig()
        assert config.parallel_joins is True
        assert config.parallel_preagg is True
        assert config.parallel_prefetch is True

    @pytest.mark.parametrize(
        "env,attr",
        [
            ("REPRO_PARALLEL_JOINS", "parallel_joins"),
            ("REPRO_PARALLEL_PREAGG", "parallel_preagg"),
            ("REPRO_PARALLEL_PREFETCH", "parallel_prefetch"),
        ],
    )
    def test_env_defaults(self, monkeypatch, env, attr):
        monkeypatch.setenv(env, "0")
        assert getattr(EngineConfig(), attr) is False
        monkeypatch.setenv(env, "1")
        assert getattr(EngineConfig(), attr) is True

    def test_validation_rejects_non_bool(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="parallel_joins"):
            EngineConfig(parallel_joins="yes").validate()
