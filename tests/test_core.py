"""Tests for the Dynamic Re-Optimization core: inaccuracy, SCIA, triggers,
remainder construction and the collector runtime."""

import pytest

from repro import Database, DataType, EngineConfig
from repro.config import ReoptimizationParameters
from repro.core.inaccuracy import InaccuracyAnalysis, InaccuracyPotential
from repro.core.modes import DynamicMode
from repro.core.remainder import build_remainder, temp_column_name, temp_table_stats
from repro.core.scia import enumerate_candidates, insert_collectors
from repro.core.triggers import accept_new_plan, should_consider_reoptimization
from repro.executor.collector import ObservedStatistics, RuntimeCollector
from repro.plans.physical import (
    CollectorSpec,
    HashJoinNode,
    StatsCollectorNode,
)
from repro.plans.printer import collector_nodes
from repro.stats.histogram import HistogramKind

from .conftest import make_two_table_db


class TestModes:
    def test_off_collects_nothing(self):
        assert not DynamicMode.OFF.collects_statistics
        assert not DynamicMode.OFF.allows_memory_reallocation
        assert not DynamicMode.OFF.allows_plan_modification

    def test_full_allows_everything(self):
        assert DynamicMode.FULL.collects_statistics
        assert DynamicMode.FULL.allows_memory_reallocation
        assert DynamicMode.FULL.allows_plan_modification

    def test_isolation_modes(self):
        assert DynamicMode.MEMORY_ONLY.allows_memory_reallocation
        assert not DynamicMode.MEMORY_ONLY.allows_plan_modification
        assert DynamicMode.PLAN_ONLY.allows_plan_modification
        assert not DynamicMode.PLAN_ONLY.allows_memory_reallocation


class TestTriggers:
    PARAMS = ReoptimizationParameters(mu=0.05, theta1=0.05, theta2=0.2)

    def test_equation_1_blocks_cheap_queries(self):
        decision = should_consider_reoptimization(
            t_cur_optimizer=100, t_cur_improved=120, t_opt_estimated=50,
            params=self.PARAMS,
        )
        assert not decision.consider
        assert "equation 1" in decision.reason

    def test_equation_2_blocks_small_drift(self):
        decision = should_consider_reoptimization(
            t_cur_optimizer=1000, t_cur_improved=1100, t_opt_estimated=1,
            params=self.PARAMS,
        )
        assert not decision.consider
        assert "equation 2" in decision.reason

    def test_gates_pass_for_large_drift(self):
        decision = should_consider_reoptimization(
            t_cur_optimizer=1000, t_cur_improved=5000, t_opt_estimated=10,
            params=self.PARAMS,
        )
        assert decision.consider

    def test_overestimates_never_trigger(self):
        # Improved < optimizer estimate: plan is cheaper than believed.
        decision = should_consider_reoptimization(
            t_cur_optimizer=1000, t_cur_improved=400, t_opt_estimated=1,
            params=self.PARAMS,
        )
        assert not decision.consider

    def test_boundary_theta2(self):
        exactly = should_consider_reoptimization(
            t_cur_optimizer=1000, t_cur_improved=1200, t_opt_estimated=1,
            params=self.PARAMS,
        )
        assert not exactly.consider  # drift == theta2 is not enough
        above = should_consider_reoptimization(
            t_cur_optimizer=1000, t_cur_improved=1201, t_opt_estimated=1,
            params=self.PARAMS,
        )
        assert above.consider

    def test_zero_remaining(self):
        decision = should_consider_reoptimization(
            t_cur_optimizer=100, t_cur_improved=0, t_opt_estimated=1,
            params=self.PARAMS,
        )
        assert not decision.consider

    def test_accept_new_plan(self):
        assert accept_new_plan(99, 100)
        assert not accept_new_plan(100, 100)
        assert not accept_new_plan(150, 100)


class TestInaccuracyRules:
    def _plan(self, db, sql, params=None):
        plan, __, __opt = db.plan(sql, params=params, mode=DynamicMode.OFF)
        return plan

    def test_serial_histogram_is_low(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        plan = self._plan(db, "SELECT a FROM r1 WHERE a < 10")
        analysis = InaccuracyAnalysis(plan, db.catalog)
        filt = plan.children[0]
        assert analysis.output_level(filt) is InaccuracyPotential.LOW

    def test_equi_width_histogram_is_medium(self):
        db = make_two_table_db(histogram_kind=HistogramKind.EQUI_WIDTH)
        plan = self._plan(db, "SELECT a FROM r1 WHERE a < 10")
        analysis = InaccuracyAnalysis(plan, db.catalog)
        filt = plan.children[0]
        assert analysis.output_level(filt) is InaccuracyPotential.MEDIUM

    def test_no_histogram_is_high(self):
        db = make_two_table_db(histogram_kind=None)
        plan = self._plan(db, "SELECT a FROM r1 WHERE a < 10")
        analysis = InaccuracyAnalysis(plan, db.catalog)
        filt = plan.children[0]
        assert analysis.output_level(filt) is InaccuracyPotential.HIGH

    def test_multi_attribute_selection_bumps_one_level(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        plan = self._plan(db, "SELECT a FROM r1 WHERE a < 10 AND b < 20")
        analysis = InaccuracyAnalysis(plan, db.catalog)
        filt = plan.children[0]
        assert analysis.output_level(filt) is InaccuracyPotential.MEDIUM

    def test_parameter_predicate_is_high(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        plan = self._plan(db, "SELECT a FROM r1 WHERE a < :v", params={"v": 10})
        analysis = InaccuracyAnalysis(plan, db.catalog)
        filt = plan.children[0]
        assert analysis.output_level(filt) is InaccuracyPotential.HIGH

    def test_udf_predicate_is_high(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        db.register_udf("f", lambda x: x)
        plan = self._plan(db, "SELECT a FROM r1 WHERE f(a) < 10")
        analysis = InaccuracyAnalysis(plan, db.catalog)
        filt = plan.children[0]
        assert analysis.output_level(filt) is InaccuracyPotential.HIGH

    def test_update_activity_bumps_level(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        db.catalog.set_stats("r1", db.catalog.stats_for("r1").mark_updated())
        plan = self._plan(db, "SELECT a FROM r1 WHERE a < 10")
        analysis = InaccuracyAnalysis(plan, db.catalog)
        filt = plan.children[0]
        assert analysis.output_level(filt) is InaccuracyPotential.MEDIUM

    def test_key_join_preserves_level(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        plan = self._plan(
            db, "SELECT r1.a one FROM r1, r2 WHERE r1.id = r2.r1_id"
        )
        analysis = InaccuracyAnalysis(plan, db.catalog)
        join = next(n for n in plan.walk() if isinstance(n, HashJoinNode))
        assert analysis.output_level(join) is InaccuracyPotential.LOW

    def test_non_key_join_bumps_level(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        plan = self._plan(db, "SELECT r1.a one FROM r1, r2 WHERE r1.a = r2.c")
        analysis = InaccuracyAnalysis(plan, db.catalog)
        join = next(n for n in plan.walk() if isinstance(n, HashJoinNode))
        assert analysis.output_level(join) is InaccuracyPotential.MEDIUM

    def test_distinct_low_on_base_high_on_intermediate(self):
        db = make_two_table_db(histogram_kind=HistogramKind.MAXDIFF)
        plan = self._plan(
            db,
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 WHERE r1.id = r2.r1_id GROUP BY r1.a",
        )
        analysis = InaccuracyAnalysis(plan, db.catalog)
        join = next(n for n in plan.walk() if isinstance(n, HashJoinNode))
        scan = next(n for n in plan.walk() if getattr(n, "table_name", "") == "r1")
        assert analysis.distinct_level(scan, ("r1.a",)) is InaccuracyPotential.LOW
        assert analysis.distinct_level(join, ("r1.a",)) is InaccuracyPotential.HIGH

    def test_bumped_saturates(self):
        assert InaccuracyPotential.HIGH.bumped() is InaccuracyPotential.HIGH
        assert InaccuracyPotential.LOW.bumped() is InaccuracyPotential.MEDIUM


class TestScia:
    def _join_plan(self, db, sql, params=None):
        plan, __, optimizer = db.plan(sql, params=params, mode=DynamicMode.OFF)
        return plan, optimizer

    def test_collectors_inserted_below_blocking_edges(self):
        db = make_two_table_db()
        plan, optimizer = self._join_plan(
            db, "SELECT r1.a, sum(r2.c) s FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a < 50 GROUP BY r1.a"
        )
        result = insert_collectors(plan, db.catalog, db.config)
        optimizer.annotator().annotate(plan)
        collectors = collector_nodes(plan)
        assert collectors, "expected at least one collector"
        # Every collector's parent must be a blocking operator.
        for node in plan.walk():
            for child in node.children:
                if isinstance(child, StatsCollectorNode):
                    assert node.is_blocking

    def test_no_collectors_for_simple_queries(self):
        db = make_two_table_db()
        plan, __ = self._join_plan(db, "SELECT a, sum(b) s FROM r1 GROUP BY a")
        result = insert_collectors(plan, db.catalog, db.config)
        assert result.collector_points == 0
        assert collector_nodes(plan) == []

    def test_bare_scan_edges_skipped(self):
        db = make_two_table_db()
        plan, __ = self._join_plan(
            db, "SELECT r1.a one FROM r1, r2 WHERE r1.id = r2.r1_id"
        )
        candidates, points = enumerate_candidates(plan, db.catalog, db.config)
        for parent, child_index in points:
            child = parent.children[child_index]
            assert child.label not in ("SeqScan", "IndexScan")

    def test_candidates_target_later_predicates(self):
        db = make_two_table_db(histogram_kind=None)
        plan, __ = self._join_plan(
            db,
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a < 50 GROUP BY r1.a",
        )
        candidates, __pts = enumerate_candidates(plan, db.catalog, db.config)
        kinds = {c.kind for c in candidates}
        assert "histogram" in kinds
        assert "distinct" in kinds
        hist_cols = {c.columns[0] for c in candidates if c.kind == "histogram"}
        # The join key of the *later* join must be a candidate.
        assert any(col.endswith(".id") or col.endswith("r1_id") for col in hist_cols)

    def test_budget_prunes_least_effective(self):
        db = make_two_table_db(histogram_kind=None)
        sql = (
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a < 50 GROUP BY r1.a"
        )
        plan, __ = self._join_plan(db, sql)
        tight = db.config.with_updates(
            reopt=ReoptimizationParameters(mu=1e-9)
        )
        result = insert_collectors(plan, db.catalog, tight)
        assert result.kept == []
        assert result.collector_points >= 1  # bare collectors remain

        plan2, __ = self._join_plan(db, sql)
        generous = db.config.with_updates(reopt=ReoptimizationParameters(mu=1.0))
        result2 = insert_collectors(plan2, db.catalog, generous)
        assert len(result2.kept) > 0
        assert result2.dropped == []

    def test_kept_cost_within_budget(self):
        db = make_two_table_db(histogram_kind=None)
        plan, __ = self._join_plan(
            db,
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a < 50 GROUP BY r1.a",
        )
        result = insert_collectors(plan, db.catalog, db.config)
        assert result.kept_cost <= result.budget + 1e-9

    def test_effectiveness_ordering_prefers_high_potential(self):
        db = make_two_table_db(histogram_kind=None)  # everything HIGH
        plan, __ = self._join_plan(
            db,
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a < 50 GROUP BY r1.a",
        )
        candidates, __pts = enumerate_candidates(plan, db.catalog, db.config)
        ordered = sorted(candidates, key=lambda c: c.effectiveness_key, reverse=True)
        assert ordered[0].potential.value >= ordered[-1].potential.value


    def test_minmax_columns_are_those_still_read_above(self):
        """A collector tracks min/max on what an ancestor still reads — here a
        block-NL predicate column and a GROUP BY column, both invisible to
        the histogram-candidate rule — and on nothing else."""
        from repro.core.scia import _columns_used_by, _live_columns

        db = make_two_table_db(r1_rows=300, r2_rows=600)
        plan, __, __ = db.plan(
            "SELECT r1.a, count(*) n FROM r1, r2 "
            "WHERE r1.b < r2.c AND r1.a < 50 AND r2.c > 2 "
            "GROUP BY r1.a ORDER BY r1.a",
            mode=DynamicMode.FULL,
        )
        by_label = {node.label: node for node in plan.walk()}
        assert _columns_used_by(by_label["BlockNLJoin"]) == frozenset()
        assert _live_columns(by_label["BlockNLJoin"]) == {"r1.b", "r2.c"}
        assert _live_columns(by_label["HashAggregate"]) == {"r1.a"}
        assert _live_columns(by_label["Sort"]) == {"a"}
        (collector,) = collector_nodes(plan)
        assert collector.child.schema.names == ("r1.id", "r1.a", "r1.b")
        assert collector.spec.minmax_columns == ("r1.a", "r1.b")
        result = db.execute(
            "SELECT r1.a, count(*) n FROM r1, r2 "
            "WHERE r1.b < r2.c AND r1.a < 50 AND r2.c > 2 "
            "GROUP BY r1.a ORDER BY r1.a",
            mode=DynamicMode.FULL,
        )
        assert result.profile.minmax_columns_tracked == 2

    def test_scia_specs_track_minmax_on_every_histogram_column(self):
        db = make_two_table_db()
        plan, __ = self._join_plan(
            db, "SELECT r1.a, sum(r2.c) s FROM r1, r2 "
            "WHERE r1.id = r2.r1_id AND r1.a < 50 GROUP BY r1.a"
        )
        insert_collectors(plan, db.catalog, db.config)
        for node in collector_nodes(plan):
            assert set(node.spec.histogram_columns) <= set(node.spec.minmax_columns)


class TestRuntimeCollector:
    def _collector(self, spec, schema):
        from repro.plans.physical import SeqScanNode

        scan = SeqScanNode("t", "t", schema)
        node = StatsCollectorNode(scan, spec)
        return RuntimeCollector(node, schema, EngineConfig())

    def test_cardinality_and_minmax(self):
        from repro.storage import Column, Schema

        schema = Schema([Column("t.a", DataType.INTEGER), Column("t.s", DataType.STRING)])
        collector = self._collector(CollectorSpec(), schema)
        for i in range(100):
            collector.observe((i, "x"))
        observed = collector.finalize()
        assert observed.row_count == 100
        assert observed.minmax["t.a"] == (0.0, 99.0)
        assert "t.s" not in observed.minmax

    def test_minmax_only_on_the_spec_columns(self):
        from repro.storage import Column, Schema

        schema = Schema([Column(f"t.{c}", DataType.INTEGER) for c in "abc"])
        collector = self._collector(
            CollectorSpec(histogram_columns=("t.b",), minmax_columns=("t.a", "t.s")),
            schema,
        )
        collector.observe_batch([(i, -i, 7) for i in range(10)])
        observed = collector.finalize()
        # The named column, plus the histogram column (its observed range
        # overrides the sample's); the unread ``t.c`` is not tracked.
        assert observed.minmax == {"t.a": (0.0, 9.0), "t.b": (-9.0, 0.0)}
        assert observed.work.minmax_columns_tracked == 2

    def test_histogram_collection(self):
        from repro.storage import Column, Schema

        schema = Schema([Column("t.a", DataType.INTEGER)])
        collector = self._collector(
            CollectorSpec(histogram_columns=("t.a",)), schema
        )
        for i in range(5000):
            collector.observe((i % 100,))
        observed = collector.finalize()
        hist = observed.histograms["t.a"]
        assert hist.total_count == pytest.approx(5000, rel=0.01)
        assert hist.selectivity_range(None, 49) == pytest.approx(0.5, abs=0.12)

    def test_distinct_collection(self):
        from repro.storage import Column, Schema

        schema = Schema([Column("t.a", DataType.INTEGER), Column("t.b", DataType.INTEGER)])
        collector = self._collector(
            CollectorSpec(distinct_column_sets=(("t.a",), ("t.a", "t.b"))), schema
        )
        for i in range(2000):
            collector.observe((i % 50, i % 7))
        observed = collector.finalize()
        assert observed.distincts[("t.a",)] == pytest.approx(50, rel=0.5)
        assert observed.distincts[("t.a", "t.b")] <= 2000

    def test_merge_into_profile_overrides_counts(self):
        from repro.stats.estimator import RelProfile
        from repro.stats.table_stats import ColumnStats

        estimated = RelProfile(
            rows=1000.0,
            row_bytes=20.0,
            columns={
                "t.a": ColumnStats(
                    name="t.a", dtype=DataType.INTEGER, count=1000, distinct=100
                )
            },
            aliases=frozenset({"t"}),
        )
        observed = ObservedStatistics(
            node_id=1, row_count=250, row_bytes=20.0,
            minmax={"t.a": (0.0, 49.0)},
        )
        profile = observed.merge_into_profile(estimated)
        assert profile.rows == 250
        assert profile.column("t.a").max_value == 49.0
        assert profile.column("t.a").observed

    def test_merge_without_estimate(self):
        observed = ObservedStatistics(
            node_id=1, row_count=10, row_bytes=8.0, minmax={"t.x": (1.0, 2.0)}
        )
        profile = observed.merge_into_profile(None)
        assert profile.rows == 10
        assert profile.column("t.x") is not None


class TestRemainder:
    def _three_table_db(self):
        import random

        db = Database()
        rng = random.Random(9)
        db.create_table(
            "a", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"]
        )
        db.load_rows("a", [(i, rng.randrange(10)) for i in range(200)])
        db.create_table(
            "b", [("k", DataType.INTEGER), ("a_k", DataType.INTEGER),
                  ("w", DataType.INTEGER)], key=["k"],
        )
        db.load_rows("b", [(i, rng.randrange(200), rng.randrange(5)) for i in range(600)])
        db.create_table(
            "c", [("k", DataType.INTEGER), ("x", DataType.INTEGER)], key=["k"]
        )
        db.load_rows("c", [(i, rng.randrange(3)) for i in range(100)])
        db.analyze()
        return db

    def test_temp_column_name(self):
        assert temp_column_name("r1.join3") == "r1__join3"

    def test_build_remainder_structure(self):
        db = self._three_table_db()
        query = db.bind_sql(
            "SELECT a.v, sum(c.x) s FROM a, b, c "
            "WHERE a.k = b.a_k AND b.w = c.k AND a.v < 5 GROUP BY a.v"
        )
        plan, __, __opt = db.plan(
            "SELECT a.v, sum(c.x) s FROM a, b, c "
            "WHERE a.k = b.a_k AND b.w = c.k AND a.v < 5 GROUP BY a.v",
            mode=DynamicMode.OFF,
        )
        join_ab = next(
            n for n in plan.walk()
            if n.is_blocking and n.base_aliases == frozenset({"a", "b"})
        )
        remainder = build_remainder(query, join_ab, "__temp_9")
        assert remainder.cut_aliases == frozenset({"a", "b"})
        rel_names = [r.table_name for r in remainder.query.relations]
        assert rel_names[0] == "__temp_9"
        assert "c" in rel_names and "a" not in rel_names
        # The a.v<5 selection was applied inside the cut; only the b-c join
        # predicate remains (renamed on the cut side).
        assert len(remainder.query.predicates) == 1
        pred_cols = remainder.query.predicates[0].columns()
        assert "__temp_9.b__w" in pred_cols and "c.k" in pred_cols
        # Output and group-by renamed.
        assert remainder.query.group_by == ("__temp_9.a__v",)

    def test_remainder_sql_round_trips(self):
        db = self._three_table_db()
        sql = (
            "SELECT a.v, sum(c.x) s FROM a, b, c "
            "WHERE a.k = b.a_k AND b.w = c.k AND a.v < 5 GROUP BY a.v"
        )
        query = db.bind_sql(sql)
        plan, __, __opt = db.plan(sql, mode=DynamicMode.OFF)
        join_ab = next(
            n for n in plan.walk()
            if n.is_blocking and n.base_aliases == frozenset({"a", "b"})
        )
        remainder = build_remainder(query, join_ab, "__temp_7")
        # Register the temp table so the remainder SQL binds.
        db.catalog.create_table("__temp_7", remainder.temp_schema)
        rebound = db.bind_sql(remainder.query.sql())
        assert len(rebound.relations) == len(remainder.query.relations)
        assert len(rebound.predicates) == len(remainder.query.predicates)

    def test_temp_table_stats_carries_columns(self):
        db = self._three_table_db()
        sql = (
            "SELECT a.v one, c.x two FROM a, b, c "
            "WHERE a.k = b.a_k AND b.w = c.k"
        )
        query = db.bind_sql(sql)
        plan, __, __opt = db.plan(sql, mode=DynamicMode.OFF)
        join_ab = next(
            n for n in plan.walk()
            if n.is_blocking and n.base_aliases == frozenset({"a", "b"})
        )
        remainder = build_remainder(query, join_ab, "__tmp")
        stats = temp_table_stats(
            "__tmp", join_ab.est.profile, remainder.temp_schema, 4096
        )
        assert stats.row_count >= 1
        assert stats.column("b__w") is not None
