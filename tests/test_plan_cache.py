"""Plan cache, prepared statements and statistics-epoch invalidation."""

import json
import random
from contextlib import nullcontext

import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.errors import ConfigError
from repro.engine.plan_cache import (
    CachedPlan,
    PlanCache,
    parameter_signature,
)
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)
from .conftest import make_two_table_db
from .oracle import row_path

SQL = "SELECT r1.a, r2.c FROM r1, r2 WHERE r1.id = r2.r1_id AND r1.a < 40"
PARAM_SQL = (
    "SELECT r1.a, r2.c FROM r1, r2 WHERE r1.id = r2.r1_id AND r1.a < :cutoff"
)


class TestPlanCacheUnit:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for i in range(3):
            key = PlanCache.exact_key(f"q{i}", (), "full")
            cache.store(key, CachedPlan(query=None, plan=None, scia=None, epoch=0))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # q0 was evicted; q1 and q2 remain.
        assert PlanCache.exact_key("q0", (), "full") not in cache
        assert PlanCache.exact_key("q2", (), "full") in cache

    def test_hit_refreshes_lru_position(self):
        cache = PlanCache(capacity=2)
        k0 = PlanCache.exact_key("q0", (), "full")
        k1 = PlanCache.exact_key("q1", (), "full")
        cache.store(k0, CachedPlan(query=None, plan=None, scia=None, epoch=0))
        cache.store(k1, CachedPlan(query=None, plan=None, scia=None, epoch=0))
        assert cache.lookup(k0, 0)[0] is not None  # refresh q0
        cache.store(
            PlanCache.exact_key("q2", (), "full"),
            CachedPlan(query=None, plan=None, scia=None, epoch=0),
        )
        assert k0 in cache and k1 not in cache

    def test_zero_capacity_stores_nothing(self):
        cache = PlanCache(capacity=0)
        key = PlanCache.exact_key("q", (), "full")
        cache.store(key, CachedPlan(query=None, plan=None, scia=None, epoch=0))
        assert len(cache) == 0 and key not in cache
        assert cache.stats.stores == cache.stats.evictions == 0

    def test_epoch_mismatch_counts_invalidation(self):
        cache = PlanCache()
        key = PlanCache.exact_key("q", (), "full")
        cache.store(key, CachedPlan(query=None, plan=None, scia=None, epoch=3))
        assert cache.lookup(key, 4) == (None, "stale-epoch")
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        assert key not in cache

    def test_parameter_signature_distinguishes_types_and_values(self):
        assert parameter_signature({"v": 1}) != parameter_signature({"v": 2})
        assert parameter_signature({"v": 1}) != parameter_signature({"v": 1.0})
        assert parameter_signature({"a": 1, "b": 2}) == parameter_signature(
            {"b": 2, "a": 1}
        )
        assert parameter_signature(None) == parameter_signature({}) == ()

    def test_hit_rate(self):
        cache = PlanCache()
        key = PlanCache.exact_key("q", (), "full")
        assert cache.lookup(key, 0) == (None, "absent")
        entry = CachedPlan(query=None, plan=None, scia=None, epoch=0)
        cache.store(key, entry)
        assert cache.lookup(key, 0) == (entry, None)
        assert cache.stats.hit_rate == 0.5


class TestWarmExecution:
    def test_second_execution_hits_and_matches_cold(self):
        db = make_two_table_db()
        cold = db.execute(SQL)
        warm = db.execute(SQL)
        assert not cold.profile.plan_cache_hit
        assert warm.profile.plan_cache_hit
        assert warm.rows == cold.rows
        # Simulated profiles are identical warm or cold: the cost clock is
        # always charged one calibrated optimization.
        assert warm.profile.total_cost == cold.profile.total_cost
        assert (
            warm.profile.optimizer_invocations == cold.profile.optimizer_invocations
        )
        assert warm.profile.initial_estimated_cost == pytest.approx(
            cold.profile.initial_estimated_cost
        )

    def test_warm_hits_on_row_and_batch_modes(self):
        # The row oracle is no engine mode: it is served the entry the
        # default run stored, and runs it to the same rows and cost.
        db = make_two_table_db()
        cold = db.execute(SQL)
        with row_path():
            row = db.execute(SQL)
        warm = db.execute(SQL)
        assert not cold.profile.plan_cache_hit
        assert row.profile.plan_cache_hit and warm.profile.plan_cache_hit
        assert repr(row.rows) == repr(warm.rows) == repr(cold.rows)
        assert repr(row.profile.total_cost) == repr(cold.profile.total_cost)

    @pytest.mark.parametrize(
        "refused",
        [
            {"execution_mode": "row"},
            {"execution_mode": "batch"},
            {"execution_mode": "columnar"},
            {"execution_mode": "parallel"},
            {"workers": 1},
        ],
        ids=lambda refused: "=".join(map(str, *refused.items())),
    )
    def test_execution_mode_and_workers_are_refused_first(self, refused):
        # Refused before the statement is parsed (this one would not parse)
        # or looked up: the cache counts nothing.
        db = make_two_table_db()
        db.execute(SQL)
        before = db.plan_cache.stats.snapshot()
        with pytest.raises(ConfigError):
            db.execute("SELECT FROM WHERE", **refused)
        with pytest.raises(ConfigError):
            db.execute(SQL, **refused)
        assert db.plan_cache.stats.snapshot() == before

    def test_dynamic_mode_is_part_of_the_key(self):
        db = make_two_table_db()
        db.execute(SQL, mode=DynamicMode.FULL)
        off = db.execute(SQL, mode=DynamicMode.OFF)
        assert not off.profile.plan_cache_hit

    def test_parameter_values_are_part_of_the_key(self):
        db = make_two_table_db()
        first = db.execute(PARAM_SQL, params={"cutoff": 40})
        other = db.execute(PARAM_SQL, params={"cutoff": 10})
        assert not other.profile.plan_cache_hit
        assert len(other.rows) < len(first.rows)
        warm = db.execute(PARAM_SQL, params={"cutoff": 40})
        assert warm.profile.plan_cache_hit
        assert warm.rows == first.rows

    def test_disabled_cache_never_hits(self):
        db = Database(EngineConfig(plan_cache_size=0))
        rng = random.Random(0)
        db.create_table("t", [("id", DataType.INTEGER), ("a", DataType.INTEGER)], key=["id"])
        db.load_rows("t", [(i, rng.randrange(100)) for i in range(500)])
        db.analyze()
        db.execute("SELECT count(*) FROM t WHERE t.a < 10")
        again = db.execute("SELECT count(*) FROM t WHERE t.a < 10")
        assert not again.profile.plan_cache_hit
        assert len(db.plan_cache) == 0

    def test_plan_defaults_to_cold(self):
        db = make_two_table_db()
        db.plan(SQL)
        db.plan(SQL)
        assert db.plan_cache.stats.stores == 0
        assert db.plan_cache.stats.hits == 0

    def test_capacity_comes_from_config(self):
        db = Database(EngineConfig(plan_cache_size=1))
        assert db.plan_cache.capacity == 1


class TestMissReason:
    """A miss says why, on the profile of the statement that missed."""

    def test_absent_stale_epoch_and_hit(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        db = make_two_table_db(
            config=EngineConfig(
                feedback_enabled=False, slow_query_s=1e-9, slow_query_path=str(log)
            )
        )
        cold = db.execute(SQL).profile
        warm = db.execute(SQL).profile
        db.analyze("r1")
        stale = db.execute(SQL).profile
        assert (cold.plan_cache_hit, cold.plan_cache_miss) == (False, "absent")
        assert (warm.plan_cache_hit, warm.plan_cache_miss) == (True, None)
        assert (stale.plan_cache_hit, stale.plan_cache_miss) == (False, "stale-epoch")
        assert "cache=miss(absent)" in cold.summary()
        assert "cache=hit" in warm.summary()
        assert "cache=miss(stale-epoch)" in stale.summary()
        logged = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["plan_cache_miss"] for r in logged] == ["absent", None, "stale-epoch"]

    def test_feedback_poisoned_entry(self):
        from .test_feedback import JOIN_SQL, feedback_db

        db = feedback_db()
        first = db.execute(JOIN_SQL, mode=DynamicMode.OFF).profile
        second = db.execute(JOIN_SQL, mode=DynamicMode.OFF).profile
        assert first.plan_cache_miss == "absent"
        assert second.plan_cache_miss == "feedback"
        assert "cache=miss(feedback)" in second.summary()

    def test_cache_off_has_no_reason(self):
        db = make_two_table_db(config=EngineConfig(plan_cache_size=0))
        profile = db.execute(SQL).profile
        assert (profile.plan_cache_hit, profile.plan_cache_miss) == (False, None)
        assert profile.summary().count("cache=miss") == 1
        assert "cache=miss(" not in profile.summary()


class TestEpochInvalidation:
    def _warm(self, db):
        db.execute(SQL)
        warm = db.execute(SQL)
        assert warm.profile.plan_cache_hit

    def _switching_db(self) -> Database:
        """The running example at the size where FULL mode switches plans."""
        # Feedback off: the tests need the cold misestimate to switch.
        db = Database(EngineConfig(feedback_enabled=False))
        build_running_example(
            db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
        )
        return db

    def test_analyze_invalidates(self):
        db = make_two_table_db()
        self._warm(db)
        db.analyze()
        after = db.execute(SQL)
        assert not after.profile.plan_cache_hit
        assert db.plan_cache.stats.invalidations >= 1

    def test_load_rows_invalidates(self):
        db = make_two_table_db()
        self._warm(db)
        db.load_rows("r1", [(100_000, 1, 1)])
        after = db.execute(SQL)
        assert not after.profile.plan_cache_hit
        assert db.plan_cache.stats.invalidations >= 1

    def test_create_index_invalidates(self):
        db = make_two_table_db()
        self._warm(db)
        db.create_index("idx_r2_r1_id", "r2", "r1_id")
        after = db.execute(SQL)
        assert not after.profile.plan_cache_hit

    def test_drop_table_invalidates(self):
        db = make_two_table_db()
        self._warm(db)
        epoch = db.catalog.stats_epoch
        db.create_table("scratch", [("id", DataType.INTEGER)], key=["id"])
        db.drop_table("scratch")
        assert db.catalog.stats_epoch > epoch

    def test_set_stats_invalidates(self, two_table_db):
        db = two_table_db
        epoch = db.catalog.stats_epoch
        db.catalog.set_stats("r1", db.catalog.stats_for("r1"))
        assert db.catalog.stats_epoch > epoch

    def test_register_udf_clears_cache(self):
        db = make_two_table_db()
        self._warm(db)
        db.register_udf("double", lambda x: 2 * x)
        assert len(db.plan_cache) == 0

    def test_mid_query_reoptimization_keeps_epoch_and_cache(self):
        """A plan switch changes nothing the optimizer reads (the observed
        statistics reach only the running query's temp table), so it is not
        an invalidation event: the epoch stands, the switching statement is
        served warm — and switches again, identically — and every other
        cached entry survives."""
        db = self._switching_db()
        sql = RUNNING_EXAMPLE_SQL
        params = {"value1": 80, "value2": 80}
        other = "SELECT count(*) n FROM rel2 WHERE rel2.attr2a < 500"
        assert not db.execute(other).profile.plan_cache_hit
        epoch = db.catalog.stats_epoch
        first = db.execute(sql, params=params, mode=DynamicMode.FULL)
        assert first.profile.plan_switches >= 1
        assert not first.profile.plan_cache_hit
        assert db.catalog.stats_epoch == epoch
        second = db.execute(sql, params=params, mode=DynamicMode.FULL)
        assert second.profile.plan_cache_hit
        assert second.rows == first.rows
        assert repr(second.profile.total_cost) == repr(first.profile.total_cost)
        assert second.profile.plan_switches == first.profile.plan_switches
        assert (
            second.profile.memory_reallocations == first.profile.memory_reallocations
        )
        assert second.profile.remainder_sqls == first.profile.remainder_sqls
        assert db.execute(other).profile.plan_cache_hit
        assert db.plan_cache.stats.invalidations == 0

    def test_warm_switch_observes_what_the_cold_one_did(self):
        """Warm ≡ cold node for node through the switch: estimates, actual
        rows, simulated windows and every collector's observed statistics
        and work counts (EXPLAIN ANALYZE of the cached template's clone)."""
        db = self._switching_db()
        params = {"value1": 80, "value2": 80}

        def observed(report):
            return [
                (
                    plan.outcome, plan.materialized_rows, node.depth, node.label,
                    node.detail, repr(node.est_rows), repr(node.est_cost),
                    node.actual_rows, node.sim_window,
                    node.collector and (
                        node.collector.fired, node.collector.observed_rows,
                        node.collector.statistics, repr(node.collector.stats_cpu),
                        node.collector.work and (
                            node.collector.work.reservoir_draws,
                            node.collector.work.sketch_values_hashed,
                            node.collector.work.minmax_columns_tracked,
                        ),
                    ),
                )
                for plan in report.plans for node in plan.nodes
            ]

        cold = db.explain_analyze(RUNNING_EXAMPLE_SQL, params=params)
        warm = db.explain_analyze(RUNNING_EXAMPLE_SQL, params=params)
        assert not cold.profile.plan_cache_hit and warm.profile.plan_cache_hit
        assert len(warm.plans) == len(cold.plans) >= 2
        assert observed(warm) == observed(cold)
        assert repr(warm.profile.breakdown) == repr(cold.profile.breakdown)

    def test_temp_tables_do_not_bump_epoch(self, two_table_db, buffer_pool):
        from repro.storage.temp import TempTableManager

        db = two_table_db
        manager = TempTableManager(db.catalog, buffer_pool)
        epoch = db.catalog.stats_epoch
        table = manager.create_empty(db.table("r1").schema)
        manager.fill(table, [(1, 2, 3)])
        manager.drop(table.name)
        assert db.catalog.stats_epoch == epoch


class TestPreparedStatements:
    def test_prepared_results_identical_to_cold(self):
        for executor in (row_path, nullcontext):
            cold_db = make_two_table_db()
            prep_db = make_two_table_db()
            with executor():
                cold = cold_db.execute(SQL)
                stmt = prep_db.prepare(SQL)
                first = stmt.execute()
                second = stmt.execute()
            assert first.rows == cold.rows
            assert second.rows == cold.rows
            assert first.profile.total_cost == cold.profile.total_cost
            assert second.profile.total_cost == cold.profile.total_cost
            assert second.profile.plan_cache_hit

    def test_parametric_prepared_shares_scenarios_across_bindings(self):
        db = make_two_table_db()
        stmt = db.prepare(PARAM_SQL)
        first = stmt.execute({"cutoff": 40})
        assert first.profile.parametric_plan_count >= 1
        stores_after_first = db.plan_cache.stats.stores
        second = stmt.execute({"cutoff": 10})
        third = stmt.execute({"cutoff": 90})
        # One cached scenario set serves every binding: no further stores.
        assert db.plan_cache.stats.stores == stores_after_first
        assert second.profile.plan_cache_hit
        assert third.profile.plan_cache_hit
        assert stmt.executions == 3

    def test_parametric_prepared_matches_cold_parametric(self):
        for cutoff in (10, 40, 90):
            cold_db = make_two_table_db()
            prep_db = make_two_table_db()
            cold = cold_db.execute(
                PARAM_SQL, params={"cutoff": cutoff}, parametric=True
            )
            stmt = prep_db.prepare(PARAM_SQL)
            stmt.execute({"cutoff": 40})  # populate the scenario cache
            warm = stmt.execute({"cutoff": cutoff})
            assert warm.rows == cold.rows
            assert warm.profile.parametric_choice == cold.profile.parametric_choice

    def test_prepared_explain_matches_database_explain(self):
        db = make_two_table_db()
        stmt = db.prepare(SQL)
        assert stmt.execute().rows == db.execute(SQL).rows
        assert stmt.explain() == db.explain(SQL)

    def test_prepared_parse_error_raises_at_prepare_time(self):
        db = make_two_table_db()
        with pytest.raises(Exception):
            db.prepare("SELEC nope")

    def test_phase_breakdown_populated(self):
        db = make_two_table_db()
        cold = db.execute(SQL)
        warm = db.execute(SQL)
        assert cold.profile.phases.optimize_s > 0
        assert cold.profile.phases.execute_s > 0
        assert warm.profile.phases.total_s > 0
        assert "cache=hit" in warm.profile.summary()
        assert "cache=miss" in cold.profile.summary()
