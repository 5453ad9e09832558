"""Plan-wide parallelism: build sides, partitioned spill, loser-tree sort.

The contract under test (DESIGN.md section 10, PR 7): extending the morsel
worker pool from probe pipelines to hash-join *build* sides and ORDER BY
sorts — with partitioned spill relieving the staging windows — changes
*nothing observable*: byte-identical result rows, bit-for-bit
identical simulated ``CostBreakdown``, clock and buffer statistics, and (in
exact statistics mode) bit-identical observed statistics, at any worker
count, in both ``parallel_stats`` modes, and across mid-query plan switches
that fire while a build or sort pipeline is parallel.  Plus the pure pieces
the tentpole rides on: the loser tree's stable-merge tie-break, the spill
round-trip, ``MemoryManager.spill_windows`` arbitration, and the new
telemetry/plan-cache surfaces.
"""

from __future__ import annotations

import pickle
import random
from operator import itemgetter

import pytest

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.executor.dispatcher import Dispatcher
from repro.executor import loser_tree as loser_tree_mod
from repro.executor.loser_tree import LoserTree, merge_runs, row_comparator
from repro.executor.memory import MemoryManager
from repro.executor.parallel import _MorselResult, _Partition, _SpillMarker
from repro.executor.runtime import RuntimeContext
from repro.optimizer.cost_model import CostModel
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.workloads.synthetic import SyntheticConfig, build_running_example
from repro.workloads.tpcd import ALL_QUERIES

WORKER_COUNTS = (1, 2, 7)

#: A TPC-D join whose build side (customer) is leaf-extractable; with
#: ``morsel_pages=4`` its 21 pages split into enough morsels to fan out.
BUILD_QUERY = "Q3"
BUILD_KNOBS = {"morsel_pages": 4}

#: ORDER BY over a leaf-extractable chain (filter over a base scan) — the
#: shape the parallel sort handles; sorts over joins/aggregates stay serial.
SORT_SQL = (
    "SELECT l_orderkey, l_extendedprice FROM lineitem "
    "WHERE l_quantity > 10 ORDER BY l_extendedprice DESC, l_orderkey"
)

#: The running example reshaped to ORDER BY: FULL mode still mis-estimates
#: the correlated predicates and switches at the cut join, so the switch
#: fires while build pipelines are parallel and the remainder re-sorts.
SORT_SWITCH_SQL = (
    "SELECT rel1.id, rel1.groupattr FROM rel1, rel2, rel3 "
    "WHERE rel1.selectattr1 < :value1 AND rel1.selectattr2 < :value2 "
    "AND rel1.joinattr2 = rel2.joinattr2 AND rel1.joinattr3 = rel3.joinattr3 "
    "ORDER BY rel1.groupattr DESC, rel1.id"
)

RUNNING_EXAMPLE_SQL = (
    "SELECT avg(rel1.selectattr1), avg(rel1.selectattr2), rel1.groupattr "
    "FROM rel1, rel2, rel3 "
    "WHERE rel1.selectattr1 < :value1 AND rel1.selectattr2 < :value2 "
    "AND rel1.joinattr2 = rel2.joinattr2 "
    "AND rel1.joinattr3 = rel3.joinattr3 "
    "GROUP BY rel1.groupattr"
)

SWITCH_PARAMS = {"value1": 80, "value2": 80}


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


@pytest.fixture(scope="module")
def switch_db() -> Database:
    """The running example sized so FULL mode plan-switches at the cut
    join, with morsels small enough that build sides fan out too.
    Feedback stays off so the switch repeats identically across tests."""
    db = Database(EngineConfig(morsel_pages=16, feedback_enabled=False))
    build_running_example(
        db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
    )
    return db


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


def assert_bit_identical(left, left_ctx, right, right_ctx) -> None:
    """The full cross-mode parity contract for one dispatched plan."""
    assert left.rows == right.rows
    assert left_ctx.clock.breakdown == right_ctx.clock.breakdown
    assert left_ctx.clock.now == right_ctx.clock.now
    assert left_ctx.buffer_pool.stats == right_ctx.buffer_pool.stats
    assert_observed_equal(left_ctx.observed, right_ctx.observed)


def plan_for(db: Database, name_or_sql: str):
    query = next((q for q in ALL_QUERIES if q.name == name_or_sql), None)
    sql = query.sql if query is not None else name_or_sql
    plan, __scia, __opt = db.plan(sql, mode=DynamicMode.FULL)
    return plan


# ----------------------------------------------------------------------
# Loser tree: merge == serial stable sort, by construction and by test
# ----------------------------------------------------------------------


def serial_sort(rows, keys):
    """The serial sort's exact algorithm: one stable pass per key,
    applied last-key-first."""
    out = list(rows)
    for position, ascending in reversed(keys):
        out.sort(key=itemgetter(position), reverse=not ascending)
    return out


def contiguous_runs(rows, pieces, keys):
    """Split into ``pieces`` contiguous runs and sort each the way a
    worker sorts its morsel range (identical multi-pass algorithm)."""
    bounds = [round(i * len(rows) / pieces) for i in range(pieces + 1)]
    runs = []
    for lo, hi in zip(bounds, bounds[1:]):
        runs.append(serial_sort(rows[lo:hi], keys))
    return runs


class TestLoserTree:
    KEYS = ((1, True), (0, False))

    def _rows(self, seed, n=500, dup_domain=7):
        rng = random.Random(seed)
        # Heavy duplication in both key columns plus a unique tag so
        # stability violations are visible in the output.
        return [
            (rng.randrange(dup_domain), rng.randrange(dup_domain), i)
            for i in range(n)
        ]

    @pytest.mark.parametrize("pieces", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_matches_serial_stable_sort(self, pieces, seed):
        rows = self._rows(seed)
        runs = contiguous_runs(rows, pieces, self.KEYS)
        merged = merge_runs(runs, row_comparator(self.KEYS))
        assert merged == serial_sort(rows, self.KEYS)

    def test_all_duplicate_keys_preserve_stream_order(self):
        rows = [(1, 1, i) for i in range(100)]
        for pieces in WORKER_COUNTS:
            runs = contiguous_runs(rows, pieces, self.KEYS)
            assert merge_runs(runs, row_comparator(self.KEYS)) == rows

    @pytest.mark.parametrize("pieces", WORKER_COUNTS)
    def test_uneven_and_empty_runs(self, pieces):
        rows = self._rows(3, n=17)
        runs = contiguous_runs(rows, pieces, self.KEYS) + [[]]
        merged = merge_runs(runs, row_comparator(self.KEYS))
        assert merged == serial_sort(rows, self.KEYS)

    def test_single_run_short_circuits(self):
        rows = self._rows(4, n=20)
        run = serial_sort(rows, self.KEYS)
        assert merge_runs([run], row_comparator(self.KEYS)) == run
        assert merge_runs([], row_comparator(self.KEYS)) == []

    def test_nulls_raise_type_error_like_serial_sort(self):
        # The serial sort raises TypeError comparing None with int; the
        # merge must not silently invent an order for rows the serial
        # path rejects.
        keys = ((0, True),)
        with pytest.raises(TypeError):
            serial_sort([(None,), (1,)], keys)
        with pytest.raises(TypeError):
            merge_runs([[(None,)], [(1,)]], row_comparator(keys))

    def test_totalising_comparator_orders_nulls(self):
        # A caller that *wants* NULLS FIRST can supply a totalising
        # comparator; the tree only consults ``before``.
        def before(a, b):
            ka = (a[0] is not None, a[0] if a[0] is not None else 0)
            kb = (b[0] is not None, b[0] if b[0] is not None else 0)
            return ka < kb

        runs = [[(None,), (2,)], [(1,), (3,)]]
        assert merge_runs(runs, before) == [(None,), (1,), (2,), (3,)]

    def test_tree_pops_in_order_with_random_run_shapes(self):
        rng = random.Random(9)
        values = sorted(rng.randrange(50) for _ in range(200))
        runs = []
        remaining = list(values)
        while remaining:
            take = min(len(remaining), rng.randrange(1, 40))
            runs.append([(v,) for v in sorted(remaining[:take])])
            remaining = remaining[take:]
        tree = LoserTree(runs, lambda a, b: a[0] < b[0])
        out = [tree.pop()[0] for _ in values]
        assert out == values
        assert tree.pop() is loser_tree_mod._EXHAUSTED


# ----------------------------------------------------------------------
# Parallel build sides
# ----------------------------------------------------------------------


class TestParallelBuild:
    def test_exact_parity_vs_batch(self, tpcd_db):
        plan = plan_for(tpcd_db, BUILD_QUERY)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch", **BUILD_KNOBS)
        for workers in WORKER_COUNTS:
            result, ctx = dispatch(
                tpcd_db, plan, "parallel", workers=workers, **BUILD_KNOBS
            )
            assert ctx.parallel.build_pipelines >= 1
            assert_bit_identical(result, ctx, batch_result, batch_ctx)

    def test_merge_stats_schedule_independent(self, tpcd_db):
        plan = plan_for(tpcd_db, BUILD_QUERY)
        reference, ref_ctx = dispatch(
            tpcd_db, plan, "parallel", workers=1, parallel_stats="merge",
            **BUILD_KNOBS,
        )
        assert ref_ctx.parallel.build_pipelines >= 1
        for workers in (2, 7):
            result, ctx = dispatch(
                tpcd_db, plan, "parallel", workers=workers,
                parallel_stats="merge", **BUILD_KNOBS,
            )
            assert result.rows == reference.rows
            assert ctx.clock.breakdown == ref_ctx.clock.breakdown
            assert_observed_equal(ctx.observed, ref_ctx.observed)

    def test_build_toggle_restricts_to_probe_and_leaf(self, tpcd_db):
        plan = plan_for(tpcd_db, BUILD_QUERY)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch", **BUILD_KNOBS)
        result, ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_build=False,
            **BUILD_KNOBS,
        )
        assert ctx.parallel.build_pipelines == 0
        assert_bit_identical(result, ctx, batch_result, batch_ctx)

    def test_small_build_sides_stay_serial(self, tpcd_db):
        # At default morsel geometry Q3's build scans are below the
        # fan-out floor; the gate declines and everything still matches.
        plan = plan_for(tpcd_db, BUILD_QUERY)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert ctx.parallel.build_pipelines == 0
        assert ctx.parallel.join_pipelines >= 1
        assert_bit_identical(result, ctx, batch_result, batch_ctx)


# ----------------------------------------------------------------------
# Parallel sort
# ----------------------------------------------------------------------


class TestParallelSort:
    def test_exact_parity_vs_batch(self, tpcd_db):
        plan = plan_for(tpcd_db, SORT_SQL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        for workers in WORKER_COUNTS:
            result, ctx = dispatch(tpcd_db, plan, "parallel", workers=workers)
            assert ctx.parallel.sort_pipelines >= 1
            assert ctx.parallel.sort_runs_merged >= 2
            assert_bit_identical(result, ctx, batch_result, batch_ctx)

    def test_merge_stats_schedule_independent(self, tpcd_db):
        plan = plan_for(tpcd_db, SORT_SQL)
        reference, ref_ctx = dispatch(
            tpcd_db, plan, "parallel", workers=1, parallel_stats="merge"
        )
        assert ref_ctx.parallel.sort_pipelines >= 1
        for workers in (2, 7):
            result, ctx = dispatch(
                tpcd_db, plan, "parallel", workers=workers, parallel_stats="merge"
            )
            assert result.rows == reference.rows
            assert ctx.clock.breakdown == ref_ctx.clock.breakdown
            assert_observed_equal(ctx.observed, ref_ctx.observed)

    def test_sort_toggle_off_stays_serial(self, tpcd_db):
        plan = plan_for(tpcd_db, SORT_SQL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_sort=False
        )
        assert ctx.parallel.sort_pipelines == 0
        assert ctx.parallel.sort_runs_merged == 0
        assert_bit_identical(result, ctx, batch_result, batch_ctx)

    def test_sort_over_aggregate_stays_serial(self, tpcd_db):
        # TPC-D Q1's ORDER BY sits over a hash aggregate — not a
        # leaf-extractable chain, so the gate declines by design.
        plan = plan_for(tpcd_db, "Q1")
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert ctx.parallel.sort_pipelines == 0
        assert_bit_identical(result, ctx, batch_result, batch_ctx)


# ----------------------------------------------------------------------
# Partitioned spill
# ----------------------------------------------------------------------


class TestPartitionedSpill:
    def test_spill_round_trip_is_byte_identical(self, tmp_path):
        # The transport invariant the parity claims rest on: a spilled
        # result read back through its marker is the result that was
        # written, byte for byte, at any offset in the partition file.
        results = [
            _MorselResult(
                index=i,
                batches=[[(i, j) for j in range(4)]],
                counts=[(4, 4)],
                partial=None,
                replay=None,
                groups_out=None,
                shipped_rows=4,
                elapsed=0.0,
                pid=0,
            )
            for i in range(3)
        ]
        path = tmp_path / "part-0.spill"
        markers = []
        offset = 0
        with open(path, "wb") as handle:
            for result in results:
                payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                handle.write(payload)
                markers.append(_SpillMarker(0, result.index, offset, len(payload)))
                offset += len(payload)
        partition = _Partition(
            0, 0, 3, process=None, conn=None, sem=None, spill_path=str(path)
        )
        try:
            # Resolve out of write order: the merge loop may reach a
            # marker before or after the read-ahead resolved neighbours.
            for marker in (markers[2], markers[0], markers[1]):
                resolved = partition._resolve_spill(marker)
                assert resolved.spilled is True
                assert resolved.index == marker.index
                assert resolved.batches == results[marker.index].batches
                assert resolved.counts == results[marker.index].counts
        finally:
            partition._spill_file.close()

    def test_spill_windows_split_and_floor_at_zero(self):
        # Unlike staging windows there is no one-morsel floor: a starved
        # partition keeps its payloads on disk until the merge point.
        assert MemoryManager.spill_windows(64, 2, 8, 8) == [4, 4]
        assert MemoryManager.spill_windows(65, 2, 8, 8) == [4, 4]
        assert MemoryManager.spill_windows(0, 3, 8, 8) == [0, 0, 0]
        assert MemoryManager.spill_windows(-5, 2, 8, 8) == [0, 0]
        assert MemoryManager.spill_windows(10_000, 2, 8, 3) == [3, 3]

    def test_spill_toggle_off_never_spills(self, tpcd_db):
        plan = plan_for(tpcd_db, "Q1")
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(
            tpcd_db, plan, "parallel", workers=2, parallel_spill=False
        )
        assert ctx.parallel.rows_spilled == 0
        assert ctx.parallel.morsels_spilled == 0
        assert ctx.parallel.partitions_spilled == 0
        assert_bit_identical(result, ctx, batch_result, batch_ctx)

    @pytest.mark.parametrize("workers", (2, 7))
    def test_spill_on_parity_under_pressure(self, tpcd_db, workers):
        # A tight memory budget shrinks the staging windows so workers
        # overrun them; whether (and which) morsels spill is scheduling-
        # dependent, so the assertion is the one that matters: parity.
        plan = plan_for(tpcd_db, "Q1")
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        result, ctx = dispatch(tpcd_db, plan, "parallel", workers=workers)
        spill_counters = (
            ctx.parallel.rows_spilled,
            ctx.parallel.morsels_spilled,
            ctx.parallel.partitions_spilled,
        )
        assert all(count >= 0 for count in spill_counters)
        if ctx.parallel.morsels_spilled:
            assert ctx.parallel.partitions_spilled >= 1
            # Q1 pre-aggregates (value-run shipping covers its float
            # SUM/AVG), so spilled results hold group partials, not rows.
            if ctx.parallel.rows_shipped:
                assert ctx.parallel.rows_spilled > 0
        assert_bit_identical(result, ctx, batch_result, batch_ctx)


# ----------------------------------------------------------------------
# Columnar kernels inside morsels
# ----------------------------------------------------------------------

FILTER_SQL = "SELECT k, v FROM t WHERE k < 1200"


def _clustered_db(rows=4000) -> Database:
    db = Database(EngineConfig(batch_size=64, morsel_pages=2))
    db.create_table(
        "t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"]
    )
    db.load_rows("t", [(i, i % 17) for i in range(rows)])
    db.analyze()
    return db


class TestColumnarMorsels:
    """One leaf pipeline, two executors' kernels: the batch executor runs it
    in column space (zone maps included), the parallel executor fans it out
    as row morsels — columnar morsels, the mix of the two, are gone."""

    numpy = pytest.importorskip("numpy")

    def test_charge_mode_parity_vs_batch_and_serial(self):
        db = _clustered_db()
        plan = plan_for(db, FILTER_SQL)
        batch_result, batch_ctx = dispatch(db, plan, "batch")
        serial_result, serial_ctx = dispatch(db, plan, "row")
        assert batch_ctx.columnar.pipelines == 1
        assert batch_ctx.columnar.groups_skipped > 0
        assert serial_ctx.columnar.leaf == {}
        assert_bit_identical(serial_result, serial_ctx, batch_result, batch_ctx)
        for workers in WORKER_COUNTS:
            result, ctx = dispatch(db, plan, "parallel", workers=workers)
            # Row morsels, never the column kernels: no pipeline in column
            # space, no zone map consulted, and a recorded reason if the
            # pipeline stayed serial.
            assert ctx.parallel.pipelines >= 1
            assert ctx.columnar.pipelines == 0
            assert ctx.columnar.groups_skipped == 0
            for record in ctx.columnar.leaf.values():
                assert record["kernel"] == "row"
                assert record["reason"] == "parallel execution mode"
            assert_bit_identical(result, ctx, batch_result, batch_ctx)


# ----------------------------------------------------------------------
# Zone-map skips as exact free observations (SCIA / EXPLAIN ANALYZE)
# ----------------------------------------------------------------------


class TestZoneMapObservations:
    numpy = pytest.importorskip("numpy")

    @pytest.mark.parametrize("cost_mode", ("charge", "free"))
    def test_scan_actuals_include_skipped_rows(self, cost_mode):
        # A zone-map skip is an exact cardinality observation: the scan's
        # actual rows must count skipped groups in both cost modes, so
        # Q-error never reads pruning as a cardinality miss.
        db = _clustered_db()
        db.config = db.config.with_updates(zone_map_cost_mode=cost_mode)
        report = db.explain_analyze(FILTER_SQL, execution_mode="batch")
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
        db = _clustered_db()
        plan = plan_for(db, FILTER_SQL)
        __result, charge_ctx = dispatch(db, plan, "batch")
        __result, free_ctx = dispatch(
            db, plan, "batch", zone_map_cost_mode="free"
        )
        for ctx in (charge_ctx, free_ctx):
            (per_scan,) = ctx.columnar.by_scan.values()
            assert per_scan["rows_skipped"] > 0
            assert per_scan["rows_skipped"] == ctx.columnar.rows_skipped


# ----------------------------------------------------------------------
# Mid-query plan switches while build/sort pipelines are parallel
# ----------------------------------------------------------------------


class TestSwitchInteraction:
    def test_serial_baseline_switches(self, switch_db):
        serial = switch_db.execute(
            RUNNING_EXAMPLE_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="batch",
        )
        assert serial.profile.plan_switches >= 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_switch_with_parallel_build_parity(self, switch_db, workers):
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
        assert par.profile.plan_switches == serial.profile.plan_switches >= 1
        assert par.profile.parallel_build_pipelines >= 1
        assert par.rows == serial.rows
        assert par.profile.total_cost == serial.profile.total_cost
        assert par.profile.breakdown == serial.profile.breakdown
        assert par.profile.buffer == serial.profile.buffer

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_switch_with_order_by_remainder_parity(self, switch_db, workers):
        serial = switch_db.execute(
            SORT_SWITCH_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="batch",
        )
        assert serial.profile.plan_switches >= 1
        par = switch_db.execute(
            SORT_SWITCH_SQL,
            params=SWITCH_PARAMS,
            mode=DynamicMode.FULL,
            execution_mode="parallel",
            workers=workers,
        )
        assert par.profile.plan_switches == serial.profile.plan_switches
        assert par.rows == serial.rows
        assert par.profile.total_cost == serial.profile.total_cost
        assert par.profile.breakdown == serial.profile.breakdown
        assert par.profile.buffer == serial.profile.buffer

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_reopt_during_parallel_sort_parity(self, switch_db, workers):
        # A single-table ORDER BY whose chain carries a collector: any
        # re-optimization decision taken while the sort pipeline is
        # parallel must match the serial run event for event.
        sql = (
            "SELECT id, groupattr FROM rel1 WHERE selectattr1 < :value1 "
            "ORDER BY groupattr DESC, id"
        )
        serial = switch_db.execute(
            sql, params={"value1": 80}, mode=DynamicMode.FULL,
            execution_mode="batch",
        )
        par = switch_db.execute(
            sql, params={"value1": 80}, mode=DynamicMode.FULL,
            execution_mode="parallel", workers=workers,
        )
        assert par.profile.parallel_sort_pipelines >= 1
        assert par.rows == serial.rows
        assert par.profile.total_cost == serial.profile.total_cost
        assert par.profile.breakdown == serial.profile.breakdown
        assert par.profile.plan_switches == serial.profile.plan_switches
        assert len(par.profile.events) == len(serial.profile.events)


# ----------------------------------------------------------------------
# Telemetry, metrics and the plan-cache key
# ----------------------------------------------------------------------


class TestTelemetrySurfaces:
    def test_profile_and_metrics_record_new_counters(self, tpcd_db):
        db = Database(EngineConfig(morsel_pages=4))
        db.create_table(
            "s", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], key=["k"]
        )
        db.load_rows("s", [(i, (i * 7) % 101) for i in range(4000)])
        db.analyze()
        result = db.execute(
            "SELECT k, v FROM s WHERE v > 3 ORDER BY v, k",
            execution_mode="parallel",
            workers=2,
        )
        profile = result.profile
        assert profile.parallel_sort_pipelines >= 1
        assert profile.sort_runs_merged >= 2
        snapshot = db.metrics_snapshot()
        assert snapshot["parallel.sort_pipelines"]["value"] >= 1
        assert snapshot["parallel.sort_runs_merged"]["value"] >= 2
        for name in (
            "parallel.build_pipelines",
            "parallel.rows_spilled",
            "parallel.morsels_spilled",
            "parallel.partitions_spilled",
        ):
            assert snapshot[name]["type"] == "counter"
        summary = profile.summary()
        assert "sort runs merged=" in summary
        assert "spilled=" in summary

    def test_explain_analyze_surfaces_sort_and_spill_counters(self, tpcd_db):
        report = tpcd_db.explain_analyze(
            SORT_SQL, execution_mode="parallel", workers=2
        )
        text = report.render()
        assert "sort runs merged=" in text
        assert "spilled=" in text
        assert report.result.profile.parallel_sort_pipelines >= 1
