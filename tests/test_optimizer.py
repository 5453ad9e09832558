"""Tests for the cost model, access paths, join enumeration and annotation."""

import math
import random

import pytest

from repro import Database, DataType, EngineConfig
from repro.core.modes import DynamicMode
from repro.core.parametric import plug_parameters
from repro.errors import ConfigError
from repro.optimizer import (
    CostModel,
    OperatorCost,
    Optimizer,
    OptimizerCalibration,
    calibrate_unit,
    pages_for,
)
from repro.optimizer.access_paths import access_path_candidates
from repro.plans.physical import (
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexNLJoinNode,
    IndexScanNode,
    LimitNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
)

from .conftest import make_two_table_db
from .exhaustive_dp import ExhaustiveJoinEnumerator

pytestmark = pytest.mark.hashseed


class TestOperatorCost:
    def test_total_units(self, config):
        cost = OperatorCost(seq_read_pages=10, rand_read_pages=2, write_pages=4,
                            cpu_units=1.0, stats_cpu_units=0.5)
        total = cost.total_units(config.cost)
        assert total == pytest.approx(10 * 1.0 + 2 * 4.0 + 4 * 1.5 + 1.5)

    def test_hash_join_is_build_plus_probe(self, cost_model):
        for memory in (10, 100):  # spilling, and not
            build = cost_model.hash_join_build(1000, 50, memory)
            probe = cost_model.hash_join_probe(50, 5000, 200, 3000, memory)
            whole = cost_model.hash_join(1000, 50, 5000, 200, 3000, memory)
            assert whole == tuple(a + b for a, b in zip(build, probe))


class TestPagesFor:
    def test_zero_rows(self):
        assert pages_for(0, 100, 4096) == 0.0

    def test_minimum_one_page(self):
        assert pages_for(1, 10, 4096) == 1.0

    def test_scaling(self):
        assert pages_for(1000, 41, 4096) == math.ceil(1000 / (4096 // 41))


class TestCostModelFormulas:
    def test_seq_scan(self, cost_model):
        cost = cost_model.seq_scan(pages=100, rows=5000)
        assert cost.seq_read_pages == 100
        assert cost.cpu_units == pytest.approx(5000 * cost_model.params.cpu_per_tuple)

    def test_index_scan_clustered_vs_unclustered(self, cost_model):
        clustered = cost_model.index_scan(2, 100, 500, True, 50, 200)
        unclustered = cost_model.index_scan(2, 100, 500, False, 50, 200)
        assert clustered.total_units(cost_model.params) < unclustered.total_units(
            cost_model.params
        )

    def test_hash_join_no_spill_when_memory_sufficient(self, cost_model):
        minimum, maximum = cost_model.hash_join_memory(50)
        assert cost_model.hash_join_spill_fraction(50, maximum) == 0.0
        assert cost_model.hash_join_spill_fraction(50, minimum) > 0.3

    def test_hash_join_memory_bounds(self, cost_model):
        minimum, maximum = cost_model.hash_join_memory(100)
        assert minimum >= math.sqrt(100)
        assert maximum >= 100

    def test_hash_join_spill_io_grows_as_memory_shrinks(self, cost_model):
        full = cost_model.hash_join(1000, 50, 5000, 200, 3000, memory_pages=100)
        tight = cost_model.hash_join(1000, 50, 5000, 200, 3000, memory_pages=10)
        assert tight.total_units(cost_model.params) > full.total_units(cost_model.params)
        assert tight.write_pages > 0

    def test_sort_in_memory_vs_external(self, cost_model):
        in_memory = cost_model.sort(1000, 50, memory_pages=100)
        external = cost_model.sort(1000, 50, memory_pages=10)
        assert in_memory.seq_read_pages == 0
        assert external.seq_read_pages == 50 and external.write_pages == 50

    def test_aggregate_spill(self, cost_model):
        fits = cost_model.aggregate(1000, 100, group_pages=10, memory_pages=50)
        spills = cost_model.aggregate(1000, 100, group_pages=10, memory_pages=3)
        assert fits.write_pages == 0
        assert spills.write_pages > 0

    def test_block_nl_join_rescans(self, cost_model):
        one_block = cost_model.block_nl_join(100, 10, 100, 20, memory_pages=50)
        many_blocks = cost_model.block_nl_join(100, 10, 100, 20, memory_pages=3)
        assert many_blocks.seq_read_pages > one_block.seq_read_pages

    def test_collector_cost_scales_with_statistics(self, cost_model):
        bare = cost_model.collector(1000, 0)
        loaded = cost_model.collector(1000, 3)
        assert loaded.stats_cpu_units > bare.stats_cpu_units
        assert bare.stats_cpu_units > 0

    def test_materialize(self, cost_model):
        assert cost_model.materialize(10).write_pages == 10


class TestCalibration:
    def test_estimated_units_grow_with_joins(self):
        cal = OptimizerCalibration()
        assert cal.estimated_units(6) > cal.estimated_units(3) > cal.estimated_units(1)

    def test_calibrate_unit_fits_measurements(self):
        # Synthetic measurements consistent with unit=0.25 at 2000 units/s.
        probe = OptimizerCalibration(unit=0.25)
        samples = [
            (n, probe.estimated_units(n) / 2000.0) for n in (2, 3, 4, 5)
        ]
        fitted = calibrate_unit(samples, cost_units_per_second=2000.0)
        assert fitted.unit == pytest.approx(0.25, rel=1e-6)

    def test_calibrate_requires_samples(self):
        with pytest.raises(ConfigError):
            calibrate_unit([], 2000.0)
        with pytest.raises(ConfigError):
            calibrate_unit([(0, 1.0)], 2000.0)

    def test_invalid_unit(self):
        with pytest.raises(ConfigError):
            OptimizerCalibration(unit=0.0)


class TestAccessPathSelection:
    def test_index_chosen_for_selective_predicate(self):
        db = make_two_table_db()
        db.create_index("ix_r1_id", "r1", "id")
        plan, __, __opt = db.plan("SELECT id one FROM r1 WHERE id = 3", mode=DynamicMode.OFF)
        scans = [n for n in plan.walk() if isinstance(n, IndexScanNode)]
        assert scans, "expected an index scan for a selective equality"
        assert scans[0].low == 3 and scans[0].high == 3
        assert scans[0].est.rows == 1

    @pytest.mark.parametrize("where, params", [("r1.a = 3", None), ("r1.a = :p", {"p": 3})])
    def test_equality_bounds_an_index_scan_once(self, where, params):
        """``=`` sets both ends of the key range but is one predicate: the
        index scan estimates what the filter over a sequential scan does
        (19 of 2 000 rows for a constant, the default selectivity for a host
        variable), not the square of its selectivity."""
        db = make_two_table_db()
        db.create_index("ix_r1_a", "r1", "a")
        query = db.bind_sql(f"SELECT r1.id one FROM r1 WHERE {where}", params)
        relation = query.relations[0]
        predicates = query.selection_predicates(relation.alias)
        annotator = Optimizer(db.catalog, db.config, db.estimator).annotator()
        scan, index_scan = access_path_candidates(relation, predicates, db.catalog)
        assert isinstance(scan, FilterNode) and isinstance(index_scan, IndexScanNode)
        assert list(index_scan.bound_predicates) == predicates
        for node in (scan, index_scan):
            annotator.annotate(node)
        assert index_scan.est.rows == scan.est.rows == (19 if params is None else 200)
        if params is not None:
            # A new binding re-derives the key range through the same rule.
            plugged = plug_parameters(index_scan, {"p": 7})
            assert len(plugged.bound_predicates) == 1
            assert plugged.low == plugged.high == 7

    def test_seq_scan_for_unselective_predicate(self):
        db = make_two_table_db()
        db.create_index("ix_r1_a", "r1", "a")
        plan, __, __opt = db.plan("SELECT id one FROM r1 WHERE a >= 0", mode=DynamicMode.OFF)
        assert any(isinstance(n, SeqScanNode) for n in plan.walk())
        assert not any(isinstance(n, IndexScanNode) for n in plan.walk())

    def test_range_bounds_combined(self):
        db = make_two_table_db(r1_rows=20_000)
        db.create_index("ix_r1_a", "r1", "a", clustered=True)
        plan, __, __opt = db.plan(
            "SELECT id one FROM r1 WHERE a >= 10 AND a < 12", mode=DynamicMode.OFF
        )
        scans = [n for n in plan.walk() if isinstance(n, IndexScanNode)]
        assert scans
        assert scans[0].low == 10 and scans[0].high == 12
        assert scans[0].low_inclusive and not scans[0].high_inclusive

    def test_residual_predicates_filtered_above_index(self):
        db = make_two_table_db()
        db.create_index("ix_r1_id", "r1", "id")
        plan, __, __opt = db.plan(
            "SELECT id one FROM r1 WHERE id = 3 AND b < 10", mode=DynamicMode.OFF
        )
        filters = [n for n in plan.walk() if isinstance(n, FilterNode)]
        index_scans = [n for n in plan.walk() if isinstance(n, IndexScanNode)]
        assert index_scans and filters and len(filters[0].predicates) == 1


class TestJoinEnumeration:
    def test_single_table_plan(self):
        db = make_two_table_db()
        plan, __, __opt = db.plan("SELECT a FROM r1", mode=DynamicMode.OFF)
        assert isinstance(plan, ProjectNode)
        assert isinstance(plan.child, SeqScanNode)

    def test_two_table_hash_join_builds_on_smaller(self):
        db = make_two_table_db(r1_rows=500, r2_rows=20_000)
        plan, __, __opt = db.plan(
            "SELECT r1.a FROM r1, r2 WHERE r1.id = r2.r1_id", mode=DynamicMode.OFF
        )
        joins = [n for n in plan.walk() if isinstance(n, HashJoinNode)]
        assert joins
        build_rows = joins[0].build.est.rows
        probe_rows = joins[0].probe.est.rows
        assert build_rows < probe_rows

    def test_index_nl_join_when_outer_tiny(self):
        db = make_two_table_db(r1_rows=40_000, r2_rows=40_000)
        db.create_index("ix_r2_r1id", "r2", "r1_id", clustered=True)
        plan, __, __opt = db.plan(
            "SELECT r2.c FROM r1, r2 WHERE r1.id = r2.r1_id AND r1.a = 7 AND r1.b = 3",
            mode=DynamicMode.OFF,
        )
        assert any(isinstance(n, IndexNLJoinNode) for n in plan.walk())

    def test_cross_join_falls_back_to_block_nl(self):
        db = make_two_table_db(r1_rows=50, r2_rows=50)
        plan, __, __opt = db.plan("SELECT r1.a FROM r1, r2", mode=DynamicMode.OFF)
        from repro.plans.physical import BlockNLJoinNode

        assert any(isinstance(n, BlockNLJoinNode) for n in plan.walk())

    def test_three_way_join_covers_all_relations(self):
        db = Database()
        rng = random.Random(5)
        for name in ("x", "y", "z"):
            db.create_table(
                name, [("k", DataType.INTEGER), (f"{name}v", DataType.INTEGER)], key=["k"]
            )
            db.load_rows(name, [(i, rng.randrange(20)) for i in range(300)])
        db.analyze()
        plan, __, __opt = db.plan(
            "SELECT x.xv FROM x, y, z WHERE x.k = y.k AND y.k = z.k",
            mode=DynamicMode.OFF,
        )
        assert plan.base_aliases == frozenset({"x", "y", "z"})

    def test_sort_and_limit_on_top(self):
        db = make_two_table_db()
        plan, __, __opt = db.plan(
            "SELECT a, sum(b) s FROM r1 GROUP BY a ORDER BY s LIMIT 3",
            mode=DynamicMode.OFF,
        )
        assert isinstance(plan, LimitNode)
        assert isinstance(plan.child, SortNode)
        assert isinstance(plan.child.child, HashAggregateNode)

    def test_invocation_counter(self):
        db = make_two_table_db()
        __, __s, optimizer = db.plan("SELECT a FROM r1", mode=DynamicMode.OFF)
        assert optimizer.invocations == 1

    def test_q8_work_counters(self):
        """Exact, hardware-independent counts of what planning Q8 costs.

        Deriving every column of every candidate's profile took 69 319
        ``_scale_column`` calls for this statement; derivation on first
        read took about 1 400, and far fewer now that the enumerator
        annotates only candidates whose cost bound can still win.  The
        pins keep an eager or exhaustive loop from creeping back in
        unnoticed on a box too noisy to time it.
        """
        from repro.bench import ExperimentConfig, build_database
        from repro.workloads.tpcd import query_by_name

        db = build_database(ExperimentConfig(scale_factor=0.02, seed=31))
        sql = query_by_name("Q8").sql
        __, __s, optimizer = db.plan(sql, mode=DynamicMode.OFF)
        assert optimizer.subsets_enumerated == 2**8 - 1 - 8  # eight relations
        # Every candidate is accounted for, and at most a quarter of them
        # is annotated: costing all 2 216 is the exhaustive loop again.
        reference = ExhaustiveJoinEnumerator(
            db.bind_sql(sql), db.catalog, optimizer.annotator()
        )
        reference.best_join_plan()
        generated = optimizer.candidates_costed + optimizer.candidates_pruned
        assert generated == reference.candidates_costed == 2216
        assert optimizer.subsets_enumerated <= optimizer.candidates_costed <= generated // 4

        names = (
            "optimizer.subsets_enumerated",
            "optimizer.candidates_costed",
            "optimizer.candidates_pruned",
            "stats.column_stats_derived",
        )
        before = db.metrics_snapshot()
        profile = db.execute(sql, mode=DynamicMode.FULL).profile
        after = db.metrics_snapshot()
        assert 0 < profile.column_stats_derived <= 2000
        assert profile.optimizer_subsets_enumerated >= optimizer.subsets_enumerated
        recorded = [
            after[name]["value"] - before.get(name, {"value": 0.0})["value"]
            for name in names
        ]
        assert recorded == [
            profile.optimizer_subsets_enumerated,
            profile.optimizer_candidates_costed,
            profile.optimizer_candidates_pruned,
            profile.column_stats_derived,
        ]

    def test_figure10_work_counts_are_exact(self):
        """The enumerator's exact work on the switching queries, cold, OFF,
        in the Figure-10 configuration.  A last-bit change in a candidate's
        bound moves pruning before it moves a plan, so these move first:
        ``(subsets_enumerated, candidates_costed, candidates_pruned,
        column_stats_derived)``."""
        from repro.bench import ExperimentConfig, build_database
        from repro.workloads.tpcd import query_by_name

        db = build_database(ExperimentConfig(scale_factor=0.01, memory_pages=192, seed=31))
        pins = {
            "Q8": (247, 334, 1882, 286),
            "Q5": (57, 98, 324, 94),
            "Q7": (57, 90, 320, 111),
        }
        for name, pinned in pins.items():
            profile = db.execute(query_by_name(name).sql, mode=DynamicMode.OFF).profile
            assert not profile.plan_cache_hit
            counts = (
                profile.optimizer_subsets_enumerated,
                profile.optimizer_candidates_costed,
                profile.optimizer_candidates_pruned,
                profile.column_stats_derived,
            )
            assert counts == pinned, name


class TestAnnotation:
    def test_every_node_annotated(self):
        db = make_two_table_db()
        plan, __, __opt = db.plan(
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 WHERE r1.id = r2.r1_id GROUP BY r1.a",
            mode=DynamicMode.OFF,
        )
        for node in plan.walk():
            assert node.est.total_cost > 0
            assert node.est.rows >= 0

    def test_total_cost_is_cumulative(self):
        db = make_two_table_db()
        plan, __, __opt = db.plan(
            "SELECT r1.a one FROM r1, r2 WHERE r1.id = r2.r1_id", mode=DynamicMode.OFF
        )
        for node in plan.walk():
            children_total = sum(c.est.total_cost for c in node.children)
            assert node.est.total_cost == pytest.approx(
                node.est.op_cost + children_total
            )

    def test_memory_demands_only_on_blocking_ops(self):
        db = make_two_table_db()
        plan, __, __opt = db.plan(
            "SELECT r1.a, sum(r2.c) s FROM r1, r2 WHERE r1.id = r2.r1_id GROUP BY r1.a",
            mode=DynamicMode.OFF,
        )
        for node in plan.walk():
            if isinstance(node, (SeqScanNode, FilterNode, ProjectNode)):
                assert node.est.max_memory_pages == 0
            if isinstance(node, (HashJoinNode, HashAggregateNode)):
                assert node.est.max_memory_pages >= node.est.min_memory_pages > 0

    def test_allocation_changes_costs(self):
        db = make_two_table_db(r1_rows=20_000, r2_rows=40_000)
        plan, __, optimizer = db.plan(
            "SELECT r1.a one, r2.c two FROM r1, r2 WHERE r1.id = r2.r1_id",
            mode=DynamicMode.OFF,
        )
        join = next(n for n in plan.walk() if isinstance(n, HashJoinNode))
        generous = plan.est.total_cost
        optimizer.annotator(allocation={join.node_id: join.est.min_memory_pages}).annotate(plan)
        assert plan.est.total_cost > generous

    def test_profile_override_replaces_estimates(self):
        from repro.stats.estimator import RelProfile

        db = make_two_table_db()
        plan, __, optimizer = db.plan("SELECT a FROM r1 WHERE a < 50", mode=DynamicMode.OFF)
        filt = next(n for n in plan.walk() if isinstance(n, FilterNode))
        override = RelProfile(rows=7.0, row_bytes=20.0, aliases=frozenset({"r1"}))
        optimizer.annotator(profile_overrides={filt.node_id: override}).annotate(plan)
        assert filt.est.rows == 7.0
        assert plan.est.rows <= 7.0
