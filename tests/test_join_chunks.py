"""Row-id chunks through the joins: kernels, composition, parity, cut points.

The three join operators of ``executor/batch.py`` emit
:class:`~repro.executor.chunk.Chunk` — index vectors over the row lists they
read — and build tuples only for row-oriented consumers.  Held here:

* the kernels against nested-loop oracles (``ProbeIndex``,
  ``Index.lookup_many``): the matching pairs *and their emission order*;
* chunk composition: a join of joins is the concatenation of the source
  tuples, a column read through the index vectors is that column of the
  built rows, value for value and type for type;
* the default executor against the row oracle (``tests.oracle.row_path``) with each join
  kind forced, residual predicates, a collector above every join and LIMIT
  above joins: rows in order, the clock to the last bit, every observed
  statistic;
* a forced switch at each cut point (hash-join build end, block-NL inner)
  spools the row path's temp rows and charges its writes, holding the
  cut's chunk without building a tuple of it.

Hand mutations of ``src/`` that each fail a test named here (applied one at
a time, then reverted):

* the stable argsort that orders ``ProbeIndex``'s build rows
  (``group_layout``) made unstable —
  ``TestProbeIndexKernel::test_duplicate_keys_keep_build_order``;
* build-major emission (matches grouped by build row, not probe row) —
  ``TestProbeIndexKernel::test_pairs_and_order_match_nested_loops``;
* the sampler offered only the rows it ends up reading
  (``offer(len(offsets))``-style) —
  ``TestForcedJoinKinds::test_collector_above_every_join``;
* the hash-join probe charge moved out of its ``finally`` —
  ``TestCutPoints::test_switch_below_a_probing_join_charges_its_probe``;
* ``commit_memory`` moved after the build loop —
  ``TestCutPoints::test_grant_commits_on_the_first_build_batch``;
* the spool building the cut's tuples, or a chunk slice off by one row —
  ``TestCutPoints::test_forced_switch_spools_the_row_paths_temp_rows``
  and ``TestMaterialisationPins::test_full_switch_builds_no_tuple_at_the_cut``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.executor import batch as batch_executor
from repro.executor.agg_kernels import ProbeIndex
from repro.executor.chunk import Chunk, as_chunk, typed
from repro.executor.dispatcher import Dispatcher
from repro.executor.runtime import PlanSwitchDirective, RuntimeContext
from repro.optimizer import dp
from repro.optimizer.annotate import PlanAnnotator
from repro.optimizer.cost_model import CostModel
from repro.plans.logical import (
    AggFunc,
    AggregateExpr,
    ColumnExpr,
    CompareOp,
    Comparison,
    ConstExpr,
    OutputColumn,
    output_schema,
)
from repro.plans.physical import (
    BlockNLJoinNode,
    CollectorSpec,
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexNLJoinNode,
    LimitNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
    StatsCollectorNode,
)
from repro.storage.index import build_index
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

from .oracle import (
    assert_row_parity,
    observed_view,
    row_path,
    runtime_context,
    scan_records,
)
from .test_random_queries import build_random_db
from .test_vector_agg import index_pairs, serial_pairs

pytestmark = pytest.mark.hashseed

JOIN_NODES = (HashJoinNode, IndexNLJoinNode, BlockNLJoinNode)

# ----------------------------------------------------------------------
# Kernels against nested-loop oracles
# ----------------------------------------------------------------------

#: Key domains: plain ints (and DATE ordinals, which are ints), floats that
#: equal ints, strings, NULL, bools, ints beyond int64.
KEY_DOMAINS = {
    "int": st.integers(min_value=-3, max_value=6),
    "date": st.integers(min_value=728_000, max_value=728_006),
    "sparse": st.sampled_from([0, 7, 10**12, -(10**12), 2**62]),
    "float": st.sampled_from([0.0, 1.0, 2.5, -1.0, 3.0]),
    "string": st.sampled_from(["a", "b", "c", ""]),
    "mixed": st.sampled_from([0, 1, 1.0, True, None, "a", 2**70, 2**70 + 1, -1]),
}


@st.composite
def key_sides(draw):
    """Build- and probe-side key columns: 1-3 columns, each from one key
    domain on both sides, either side possibly empty."""
    domains = draw(st.lists(st.sampled_from(sorted(KEY_DOMAINS)), min_size=1, max_size=3))
    build_rows = draw(st.integers(min_value=0, max_value=40))
    probe_rows = draw(st.integers(min_value=0, max_value=40))
    build = [
        draw(st.lists(KEY_DOMAINS[d], min_size=build_rows, max_size=build_rows))
        for d in domains
    ]
    probe = [
        draw(st.lists(KEY_DOMAINS[d], min_size=probe_rows, max_size=probe_rows))
        for d in domains
    ]
    return build, probe


def keys_of(columns: list[list]) -> list:
    """Row keys as the serial hash join extracts them: the scalar for one
    column, the tuple for several."""
    return columns[0] if len(columns) == 1 else list(zip(*columns))


class TestProbeIndexKernel:
    @given(sides=key_sides())
    @settings(max_examples=300, deadline=None)
    def test_pairs_and_order_match_nested_loops(self, sides):
        build, probe = sides
        index = ProbeIndex([typed(column) for column in build])
        got = index_pairs(index, [typed(column) for column in probe])
        assert got == serial_pairs(keys_of(build), keys_of(probe))

    def test_duplicate_keys_keep_build_order(self):
        # Runs long enough that an unstable sort reorders equal keys.
        rng = random.Random(7)
        build = [rng.randrange(10) for __ in range(5_000)]
        probe = [rng.randrange(12) for __ in range(50)]
        index = ProbeIndex([typed(build)])
        assert index_pairs(index, [typed(probe)]) == serial_pairs(build, probe)
        two = [build, [k % 3 for k in build]]
        index = ProbeIndex([typed(column) for column in two])
        probes = [probe, [k % 3 for k in probe]]
        assert index_pairs(index, [typed(c) for c in probes]) == serial_pairs(
            keys_of(two), keys_of(probes)
        )

    @given(
        keys=st.lists(KEY_DOMAINS["sparse"] | KEY_DOMAINS["int"], max_size=40),
        lookups=st.lists(
            KEY_DOMAINS["sparse"] | KEY_DOMAINS["int"] | st.just(1.0) | st.just(True),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_lookup_many_is_lookup_eq_per_key(self, keys, lookups):
        table = Table("t", Schema([Column("k", DataType.INTEGER)]), 4096)
        table.append_rows([(k,) for k in keys])
        index = build_index("ix", table, "k")
        counts, row_ids = index.lookup_many(typed(lookups))
        expect = [index.lookup_eq(key) for key in lookups]
        assert counts.tolist() == [len(ids) for ids in expect]
        assert row_ids.tolist() == [i for ids in expect for i in ids]

    def test_lookup_many_over_non_integer_index_keys(self):
        table = Table("t", Schema([Column("k", DataType.STRING)]), 4096)
        table.append_rows([(k,) for k in "banana"])
        index = build_index("ix", table, "k")
        counts, row_ids = index.lookup_many(typed(["a", "z", "n", "a"]))
        assert counts.tolist() == [3, 0, 2, 3]
        assert row_ids.tolist() == [1, 3, 5, 2, 4, 1, 3, 5]
        # Appended rows are seen after a rebuild, which drops the arrays.
        ints = Table("u", Schema([Column("k", DataType.INTEGER)]), 4096)
        ints.append_rows([(3,), (1,)])
        index = build_index("iu", ints, "k")
        assert index.lookup_many(typed([1, 2, 3]))[1].tolist() == [1, 0]
        ints.append_rows([(2,)])
        index.rebuild()
        assert index.lookup_many(typed([1, 2, 3]))[1].tolist() == [1, 2, 0]


# ----------------------------------------------------------------------
# Chunk composition
# ----------------------------------------------------------------------

CELLS = st.sampled_from([0, 1, -5, 2**70, 1.5, -0.0, True, None, "x", "yy"])


@st.composite
def row_lists(draw, min_rows=1):
    width = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(*[CELLS] * width), min_size=min_rows, max_size=12
        )
    )
    return rows, width


def heap_of(rows, width) -> Chunk:
    """``rows`` as a base table's heap, read through its column store
    (all-int columns as int64, the others as objects)."""
    columns = [Column(f"c{i}", DataType.INTEGER) for i in range(width)]
    table = Table("h", Schema(columns), 4096)
    table.append_rows(rows)
    return as_chunk(table.rows, width, heap=table.column_store())


def ids_into(draw, rows, length):
    return np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(rows) - 1),
                min_size=length, max_size=length,
            )
        ),
        dtype=np.int64,
    )


def assert_reads_as(chunk: Chunk, expect: list[tuple]) -> None:
    """``chunk`` is ``expect``: as rows, and column by column through the
    index vectors, value for value and type for type."""
    assert len(chunk) == len(expect)
    for position in range(len(chunk.columns)):
        want = [row[position] for row in expect]
        for got in (chunk.column(position).tolist(), chunk.values(position)):
            assert got == want or all(
                g is w or g == w for g, w in zip(got, want)
            )
            assert [type(v) for v in got] == [type(v) for v in want]
        if expect:
            at = [len(expect) - 1, 0]
            assert chunk.values(position, at) == [want[-1], want[0]]
    assert chunk.rows() == expect
    assert list(chunk) == expect and chunk[:2].rows() == expect[:2]


class TestChunkComposition:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_join_of_joins_concatenates_source_tuples(self, data):
        (a, wa), (b, wb), (c, wc) = (data.draw(row_lists()) for __ in range(3))
        n1 = data.draw(st.integers(min_value=0, max_value=15))
        ia, ib = ids_into(data.draw, a, n1), ids_into(data.draw, b, n1)
        stats = {"rows_materialised": 0}
        ab = Chunk.join(as_chunk(a, wa), ia, as_chunk(b, wb), ib, stats)
        pairs = [a[i] + b[j] for i, j in zip(ia.tolist(), ib.tolist())]
        assert_reads_as(ab, pairs)
        assert stats["rows_materialised"] == len(pairs)
        if not pairs:
            return
        n2 = data.draw(st.integers(min_value=0, max_value=15))
        iab, ic = ids_into(data.draw, pairs, n2), ids_into(data.draw, c, n2)
        # A heap source reads the same through its column store.
        heap = heap_of(c, wc)
        abc = Chunk.join(ab, iab, heap, ic, stats)
        triples = [pairs[i] + c[j] for i, j in zip(iab.tolist(), ic.tolist())]
        assert len(abc.sources) == 3  # index vectors compose, chunks never nest
        assert_reads_as(abc, triples)
        keep = ids_into(data.draw, triples, 3) if triples else np.zeros(0, np.int64)
        assert_reads_as(abc.take(keep), [triples[i] for i in keep.tolist()])

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_concat_appends_batches(self, data):
        (shared, ws), (__, wp) = data.draw(row_lists()), data.draw(row_lists())
        left = as_chunk(shared, ws)
        batches, expect = [], []
        for __ in range(data.draw(st.integers(min_value=0, max_value=4))):
            rows = data.draw(
                st.lists(st.tuples(*[CELLS] * wp), min_size=1, max_size=6)
            )
            n = data.draw(st.integers(min_value=1, max_value=8))
            il, ir = ids_into(data.draw, shared, n), ids_into(data.draw, rows, n)
            batches.append(Chunk.join(left, il, as_chunk(rows, wp), ir))
            expect += [shared[i] + rows[j] for i, j in zip(il.tolist(), ir.tolist())]
        whole = Chunk.concat(batches, ws + wp)
        assert_reads_as(whole, expect)
        if len(batches) > 1:
            assert whole.sources[0] is left.sources[0]  # shared: kept, not copied
        # Row lists concatenate as the row list they are.
        lists = [list(batch) for batch in batches]
        flat = Chunk.concat(lists, ws + wp)
        assert flat.ids == [None] and flat.rows() == expect

    def test_wrapping_a_row_list_touches_no_row(self):
        rows = [(i, str(i)) for i in range(5)]
        chunk = as_chunk(rows, 2)
        assert chunk.rows() is rows and as_chunk(chunk, 2) is chunk
        taken = chunk.take(np.asarray([4, 0, 4]))
        assert taken.sources == chunk.sources  # re-indexed, nothing copied
        assert taken.ids[0].tolist() == [4, 0, 4]
        assert taken.rows() == [rows[4], rows[0], rows[4]]
        assert all(got is want for got, want in zip(taken.rows(), [rows[4], rows[0]]))

    def test_slice_of_a_built_chunk_runs_the_mask_residual(self):
        db = Database()
        for name in ("a", "b"):
            db.create_table(name, [("k", DataType.INTEGER), ("x", DataType.INTEGER)])
            db.load_rows(name, [(i % 3, i) for i in range(12)])
        db.analyze()
        sql = "SELECT a.k k, b.x x FROM a, b WHERE a.k = b.k AND a.x < b.x"
        with forced_joins(HashJoinNode):
            plan, __s, __o = db.plan(sql, mode=DynamicMode.OFF)
        join = next(n for n in plan.walk() if isinstance(n, HashJoinNode))
        residual = batch_executor._batch_kernel(join.residual, join.schema)
        left, right = (db.table(side.table_name).rows for side in join.children)
        pairs = [(i, j) for i in range(12) for j in range(12) if i % 3 == j % 3]
        stats = {"rows_materialised": 0}
        chunk = Chunk.join(
            as_chunk(left, 2), np.asarray([i for i, __ in pairs]),
            as_chunk(right, 2), np.asarray([j for __, j in pairs]), stats,
        )
        rows = chunk.rows()
        part = chunk[5:]
        assert type(part) is Chunk and part.rows() == rows[5:]
        assert stats["rows_materialised"] == len(pairs)  # built once
        ax, bx = (join.schema.index_of(c) for c in ("a.x", "b.x"))
        assert residual(part).rows() == [r for r in rows[5:] if r[ax] < r[bx]]


# ----------------------------------------------------------------------
# The default executor against the row path, join kind by join kind
# ----------------------------------------------------------------------


@contextmanager
def forced_joins(kind: type):
    """Every join the enumerator builds is a ``kind``.  A block-NL join takes
    its equi-keys as predicates; an index-NL join needs the index to exist
    (the hash join stands in where it does not)."""
    real = dp.JoinEnumerator._join_candidates

    def only(self, group):
        candidates = real(self, group)
        wanted = [c for c in candidates if c[1].func is kind]
        if wanted or kind is not BlockNLJoinNode:
            return wanted or candidates
        (__, i, __), (left, keys, residual, __) = group
        right = self._leaf(self.aliases[i])
        cost = self.annotator.block_nl_join_cost(left.est, right.est)[2]
        predicates = residual + [dp._equality(*pair) for pair, __ in keys]
        bound = cost.total_units(self.annotator.cost_model.params)
        bound += left.est.total_cost + right.est.total_cost
        return [((bound, i, 0), partial(BlockNLJoinNode, left, right, predicates))]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp.JoinEnumerator, "_join_candidates", only)
        yield


def chunk_db(seed: int, tables: int = 3, **config) -> Database:
    """``build_random_db`` with an index on every join column, small batches
    (several per table) and a reservoir the tables overflow."""
    db = build_random_db(
        seed,
        tables,
        EngineConfig(batch_size=16, reservoir_sample_size=8, **config),
    )
    for i in range(tables):
        db.create_index(f"ix_t{i}_k", f"t{i}", "k")
        if i:
            db.create_index(f"ix_t{i}_fk", f"t{i}", f"t{i - 1}_k")
    return db


def chunk_query(rng: random.Random, tables: int = 3) -> str:
    """A chain join with filters, residual (non-equi, cross-table)
    predicates, and a top that is a projection, an aggregate, an ORDER BY
    under a LIMIT, or a bare LIMIT."""
    conjuncts = [f"t{i}.t{i - 1}_k = t{i - 1}.k" for i in range(1, tables)]
    for i in range(1, tables):
        if rng.random() < 0.6:
            op = rng.choice(["<", "<=", ">", "<>"])
            conjuncts.append(f"t{i}.v {op} t{i - 1}.v + {rng.randrange(4)}")
    for i in range(tables):
        if rng.random() < 0.4:
            conjuncts.append(f"t{i}.v {rng.choice(['<', '>=', '<>'])} {rng.randrange(15)}")
    frm = ", ".join(f"t{i}" for i in range(tables))
    where = " AND ".join(conjuncts)
    last = f"t{tables - 1}"
    top = rng.randrange(4)
    if top == 0:
        return f"SELECT t0.v a, {last}.k b, {last}.v + 1 c FROM {frm} WHERE {where}"
    if top == 1:
        return (
            f"SELECT t0.v g, count(*) n, sum({last}.v) s FROM {frm} "
            f"WHERE {where} GROUP BY t0.v"
        )
    if top == 2:
        return (
            f"SELECT t0.k a, {last}.k b FROM {frm} WHERE {where} "
            f"ORDER BY t0.k, {last}.k LIMIT {rng.randrange(1, 30)}"
        )
    return f"SELECT t0.k a, {last}.k b FROM {frm} WHERE {where} LIMIT {rng.randrange(1, 30)}"


def with_collectors(db: Database, plan, optimizer):
    """``plan`` with a statistics collector above every join — histograms
    on two columns, a distinct count on a column pair — re-annotated."""

    def wrap(node):
        node.children = tuple(wrap(child) for child in node.children)
        if not isinstance(node, JOIN_NODES):
            return node
        names = [column.name for column in node.schema.columns]
        spec = CollectorSpec(
            histogram_columns=(names[0], names[-1]),
            distinct_column_sets=((names[1],), (names[0], names[-2])),
        )
        return StatsCollectorNode(node, spec)

    plan = wrap(plan)
    return PlanAnnotator(db.catalog, optimizer.estimator, optimizer.cost_model).annotate(plan)


#: The two paths a plan runs on: the row oracle and the default executor.
PATHS = {"row": row_path, "batch": nullcontext}


def run_plan(db: Database, plan, path: str, allocation=None, setup=None):
    """Drive ``plan`` to completion on one of :data:`PATHS`; everything the
    parity contract covers, plus the context for a closer look."""
    ctx = runtime_context(db, allocation=dict(allocation or {}))
    clock, pool = ctx.clock, ctx.buffer_pool
    if setup is not None:
        setup(ctx)
    try:
        with PATHS[path]():
            outcome = Dispatcher(ctx).run(plan)
    finally:
        ctx.temp_manager.drop_all()
    observed = {node_id: observed_view(stats) for node_id, stats in ctx.observed.items()}
    measured = (
        repr(outcome.rows), repr((clock.now, clock.breakdown)), clock.breakdown.snapshot(),
        pool.stats,
        ctx.actual_rows, sorted(ctx.completed), observed,
    )
    return measured, outcome, ctx


def assert_paths_agree(db: Database, plan, **kwargs):
    row, __, __c = run_plan(db, plan, "row", **kwargs)
    batch, outcome, ctx = run_plan(db, plan, "batch", **kwargs)
    for got, want in zip(batch, row):
        assert got == want
    return outcome, ctx


class TestForcedJoinKinds:
    @pytest.mark.parametrize("kind", JOIN_NODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_collector_above_every_join(self, kind, seed):
        db = chunk_db(seed)
        rng = random.Random(seed * 13 + 2)
        for __ in range(3):
            sql = chunk_query(rng)
            with forced_joins(kind):
                plan, __s, optimizer = db.plan(sql, mode=DynamicMode.OFF)
            joins = [n for n in plan.walk() if isinstance(n, JOIN_NODES)]
            assert joins and all(type(n) is kind for n in joins), sql
            plan = with_collectors(db, plan, optimizer)
            __, ctx = assert_paths_agree(db, plan)
            if not any(n.label == "Limit" for n in plan.walk()):
                # Every collector drained, and read its chunks by column.
                assert len(ctx.observed) == len(joins)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_engine_paths_agree_in_every_mode(self, seed):
        db = chunk_db(seed % 50, tables=4)
        rng = random.Random(seed)
        sql = chunk_query(rng, tables=4)
        kind = rng.choice(JOIN_NODES)
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            with forced_joins(kind):
                with row_path():
                    row = db.execute(sql, mode=mode)
                db.plan_cache.clear()
                batch = db.execute(sql, mode=mode)
                db.plan_cache.clear()
            assert repr(batch.rows) == repr(row.rows), (seed, sql)
            assert repr(batch.profile.breakdown) == repr(row.profile.breakdown)
            for field in (
                "plan_explanations", "buffer", "plan_switches",
                "memory_reallocations", "collectors_inserted", "remainder_sqls",
            ):
                assert getattr(batch.profile, field) == getattr(row.profile, field)
            assert repr(batch.profile.total_cost) == repr(row.profile.total_cost)

    def test_udf_residual_filters_built_rows(self):
        db = chunk_db(4)
        db.register_udf("half", lambda v: v // 2)
        sql = (
            "SELECT t0.k a, t1.k b FROM t0, t1 "
            "WHERE t1.t0_k = t0.k AND half(t1.v) <= t0.v"
        )
        plan, __s, __o = db.plan(sql, mode=DynamicMode.OFF)
        __, ctx = assert_paths_agree(db, plan)
        (record,) = [r for r in ctx.vector.by_node.values() if r["kind"] == "probe"]
        # The UDF needs whole rows: every match was built to be filtered.
        assert record["rows_materialised"] >= record["matches"] > 0

    def test_arithmetic_residual_computes_in_python_ints(self):
        # 3 037 000 500 squared is just past 2**63: an int64 kernel wraps it
        # negative, Python's ints do not.
        db = Database(EngineConfig(batch_size=16))
        for name in ("a", "b"):
            db.create_table(name, [("k", DataType.INTEGER), ("x", DataType.INTEGER)])
            db.load_rows(name, [(i % 7, 3_037_000_500 + i) for i in range(40)])
        db.analyze()
        sql = "SELECT a.k k, b.x x FROM a, b WHERE a.k = b.k AND a.x * b.x > 0"
        for kind in JOIN_NODES[:1] + JOIN_NODES[2:]:  # no index: hash, block-NL
            with forced_joins(kind):
                plan, __s, __o = db.plan(sql, mode=DynamicMode.OFF)
            outcome, __ = assert_paths_agree(db, plan)
            assert len(outcome.rows) > 200

    def test_collector_observes_mixed_batches_in_stream_order(self, monkeypatch):
        # Chunks are observed a batch's worth at a time; a row list arriving
        # in between must not overtake the chunks held before it.
        from repro.executor import batch as batch_module

        db = chunk_db(3)
        child = scan(db, "t0")
        names = [c.name for c in child.schema.columns]
        spec = CollectorSpec(histogram_columns=(names[0], names[-1]))
        node = annotated(db, StatsCollectorNode(child, spec))
        rows, width = db.table("t0").rows, len(names)
        assert len(rows) > 30
        mixed = [
            as_chunk(rows[:5], width), rows[5:12],
            as_chunk(rows[12:20], width), as_chunk(rows[20:], width),
        ]
        real = batch_module.execute_node_batches

        def stream(plan_node, ctx):
            return iter(mixed) if plan_node is node.child else real(plan_node, ctx)

        want = run_plan(db, node, "row")[0]
        monkeypatch.setattr(batch_module, "execute_node_batches", stream)
        got = run_plan(db, node, "batch")[0]
        assert got[0] == want[0] and got[-1] == want[-1]  # rows, observed


def below_limit(plan) -> list[type]:
    """Node types from LIMIT's child down to the first node that is not a
    projection, filter or collector."""
    node = next(n for n in plan.walk() if isinstance(n, LimitNode)).child
    chain = [type(node)]
    while isinstance(node, (ProjectNode, FilterNode, StatsCollectorNode)):
        node = node.child
        chain.append(type(node))
    return chain


def fan_out_limit(rows: list) -> int | None:
    """A limit whose row is the first of a run of rows sharing ``t0.k``:
    with t0 the outer, one outer row's fan-out, cut after its first match."""
    for i in range(len(rows) - 1):
        if rows[i][0] == rows[i + 1][0]:
            return i + 1
    return None


#: The limits each shape runs at, by name: the small ones, one page's rows
#: and one past it, one inside an index-NL outer row's fan-out, one inside
#: a block-NL block, and one above the result size.
LIMITS = {
    "1": lambda rows, page: 1,
    "5": lambda rows, page: 5,
    "page": lambda rows, page: page,
    "page+1": lambda rows, page: page + 1,
    "fan-out": lambda rows, page: fan_out_limit(rows) or 2,
    "in-block": lambda rows, page: len(rows) // 2 + 1,
    "above": lambda rows, page: len(rows) + 3,
}


@pytest.mark.hashseed
class TestStreamingLimit:
    """A LIMIT over a streaming subtree runs it batched and stops it with
    one rule: every operator down its spine settles its counters at the
    limit row, and no scan reads a page past the stop row's.  Each shape
    runs under OFF and FULL at every limit of :data:`LIMITS` against the
    row oracle: rows, the clock to the last bit, the buffer pool, every
    collector's observed statistics and which nodes completed."""

    def assert_matches_oracle(self, db, sql, limit, kind=None) -> list[type]:
        forced = forced_joins(kind) if kind is not None else nullcontext()
        chains = []
        with forced:
            full = db.execute(sql, mode=DynamicMode.OFF).rows
            page = db.table("t0").rows_per_page
            count = LIMITS[limit](full, page)
            sql = f"{sql} LIMIT {count}"
            for mode in (DynamicMode.OFF, DynamicMode.FULL):
                plan, __s, __o = db.plan(sql, mode=mode)
                chains.append(below_limit(plan))
                result = assert_row_parity(db, sql, mode)
                assert len(result.rows) == min(count, len(full)), (mode, sql)
        db.plan_cache.clear()
        for chain in chains:
            # The subtree streams: no blocking operator tops it.
            assert chain[0] not in (HashAggregateNode, SortNode), chains
        return chains[0]

    @pytest.mark.parametrize("kind", JOIN_NODES, ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("seed", range(3))
    def test_limit_over_each_join(self, kind, seed):
        # Over a hash join the probe side streams; over an index-NL or a
        # block-NL join the outer does.  The filter on t0 makes it an
        # index-NL join's outer, fanning out over t1's foreign keys.
        db = chunk_db(seed, tables=2)
        sql = "SELECT t0.k a, t1.k b FROM t0, t1 WHERE t1.t0_k = t0.k AND t0.v < 8"
        for limit in LIMITS:
            assert self.assert_matches_oracle(db, sql, limit, kind)[-1] is kind
        if kind is IndexNLJoinNode:
            with forced_joins(kind):
                rows = db.execute(sql, mode=DynamicMode.OFF).rows
            assert fan_out_limit(rows) is not None

    def test_limit_inside_a_block_that_ends_mid_page(self):
        # A one-page block over a filtered outer: the block fills, and is
        # joined, part-way through an outer page, so the filter below
        # stops where the block stopped taking rows.
        rng = random.Random(5)
        db = Database(EngineConfig(batch_size=16, query_memory_pages=3))
        columns = [("k", DataType.INTEGER), ("v", DataType.INTEGER)]
        for name in ("a", "b"):
            db.create_table(name, columns, key=["k"])
        db.load_rows("a", [(k, rng.randrange(15)) for k in range(1500)])
        db.load_rows("b", [(k, k) for k in range(6)])
        db.analyze()
        assert db.table("a").page_count > 3
        sql = "SELECT a.k x, b.k y FROM a, b WHERE a.v = b.v AND a.v < 9"
        with forced_joins(BlockNLJoinNode):
            full = db.execute(sql, mode=DynamicMode.OFF).rows
            for limit in (1, 50, len(full) // 2, len(full) + 1):
                query = f"{sql} LIMIT {limit}"
                plan, __s, __o = db.plan(query, mode=DynamicMode.OFF)
                assert below_limit(plan)[-1] is BlockNLJoinNode
                for mode in (DynamicMode.OFF, DynamicMode.FULL):
                    assert_row_parity(db, query, mode)

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_over_a_computed_projection(self, seed):
        db = chunk_db(seed, tables=1)
        sql = "SELECT t0.k a, t0.v + 1 c FROM t0 WHERE t0.v < 12"
        for limit in ("1", "5", "page", "page+1", "above"):
            chain = self.assert_matches_oracle(db, sql, limit)
            assert chain[0] is ProjectNode and chain[-1] is SeqScanNode

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_over_having(self, seed):
        db = chunk_db(seed, tables=2)
        sql = (
            "SELECT t1.k g, count(*) n FROM t0, t1 WHERE t1.t0_k = t0.k "
            "GROUP BY t1.k HAVING count(*) > 0"
        )
        for limit in ("1", "5", "above"):
            chain = self.assert_matches_oracle(db, sql, limit)
            assert chain[:2] == [FilterNode, HashAggregateNode]

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_over_distinct(self, seed):
        db = chunk_db(seed, tables=2)
        sql = "SELECT DISTINCT t0.v a, t1.v b FROM t0, t1 WHERE t1.t0_k = t0.k"
        for limit in ("1", "5", "page+1", "above"):
            assert self.assert_matches_oracle(db, sql, limit)[0] is DistinctNode


class TestErrorsPastTheLimit:
    """An expression that raises on a row past the limit row, inside the
    batch that holds the limit row, raises on neither path: a batch hands
    on the rows before the raising one and raises only when pulled again.
    Without the LIMIT both paths raise the same exception."""

    def run(self, db, sql):
        outcomes = []
        for path in (row_path, nullcontext):
            with path():
                try:
                    result = db.execute(sql, mode=DynamicMode.OFF)
                except Exception as error:  # noqa: BLE001 - the type is compared
                    outcomes.append(type(error))
                else:
                    rows, breakdown = result.rows, result.profile.breakdown
                    outcomes.append((len(rows), repr(rows), repr(breakdown)))
            db.plan_cache.clear()
        return outcomes

    def first_raising(self, db, fails) -> int:
        """The position of the first row of t0 ``fails``, which must fall
        inside the first batch, past a few rows."""
        rows = db.table("t0").rows
        position = next(i for i, row in enumerate(rows) if fails(row))
        assert 1 < position < db.config.batch_size - 1, position
        return position

    def assert_limit_hides_the_error(self, db, sql, position, error):
        row, batch = self.run(db, f"{sql} LIMIT {position}")
        assert row == batch
        assert row[0] == position
        assert self.run(db, sql) == [error, error]

    def test_computed_projection(self):
        db = chunk_db(0, tables=1)
        v = db.table("t0").schema.index_of("v")
        x = db.table("t0").rows[6][v]
        position = self.first_raising(db, lambda row: row[v] == x)
        sql = f"SELECT t0.k a, 100 / (t0.v - {x}) c FROM t0"
        self.assert_limit_hides_the_error(db, sql, position, ZeroDivisionError)

    def test_udf_filter(self):
        db = chunk_db(0, tables=1)
        v = db.table("t0").schema.index_of("v")
        x = db.table("t0").rows[6][v]

        def check(value):
            if value == x:
                raise ValueError("past the limit")
            return 1

        db.register_udf("check", check)
        position = self.first_raising(db, lambda row: row[v] == x)
        sql = "SELECT t0.k a FROM t0 WHERE check(t0.v) > 0"
        self.assert_limit_hides_the_error(db, sql, position, ValueError)


class TestUdfCallsUnderALimit:
    """On a LIMIT's spine a UDF runs once per row, in row order, as a filter
    and as each join's residual.  The row path's calls are a prefix of the
    batch path's (the stop batch runs on past the limit row, up to its own
    end), and no row is called twice — so a stateful UDF, a sampling filter
    that passes every third call, gives the same rows and clock on both
    paths.  The UDF's argument names its row: the table key, or a pair's."""

    def assert_called_once_per_row(self, db, sql, calls, kind=None):
        for limit in (1, 5, 17, 40):
            outcomes, called = [], []
            for path in (row_path, nullcontext):
                calls.clear()
                forced = forced_joins(kind) if kind is not None else nullcontext()
                with forced, path():
                    result = db.execute(f"{sql} LIMIT {limit}", mode=DynamicMode.OFF)
                outcomes.append((repr(result.rows), repr(result.profile.breakdown)))
                called.append(list(calls))
                db.plan_cache.clear()
            row, batch = called
            assert outcomes[0] == outcomes[1], (limit, kind)
            assert len(row) > limit and batch[: len(row)] == row, (limit, kind)
            assert len(set(batch)) == len(batch), (limit, kind)

    def sampling_db(self, tables: int):
        db = chunk_db(0, tables=tables)
        calls: list = []

        def sample(value):
            calls.append(value)
            return len(calls) % 3 == 0

        db.register_udf("sample", sample)
        return db, calls

    def test_filter(self):
        db, calls = self.sampling_db(1)
        sql = "SELECT t0.k a FROM t0 WHERE sample(t0.k) > 0"
        self.assert_called_once_per_row(db, sql, calls)

    @pytest.mark.parametrize("kind", JOIN_NODES, ids=lambda kind: kind.__name__)
    def test_join_residual(self, kind):
        db, calls = self.sampling_db(2)
        sql = (
            "SELECT t0.k a, t1.k b FROM t0, t1 "
            "WHERE t1.t0_k = t0.k AND sample(t1.k * 100000 + t0.k) > 0"
        )
        self.assert_called_once_per_row(db, sql, calls, kind)


# ----------------------------------------------------------------------
# Cut points: the switch spool, and the charges around it
# ----------------------------------------------------------------------


def scan(db: Database, name: str) -> SeqScanNode:
    table = db.table(name)
    return SeqScanNode(name, name, table.schema.qualify(name))


def annotated(db: Database, plan):
    __, __s, optimizer = db.plan("SELECT t0.k a FROM t0", mode=DynamicMode.OFF)
    return PlanAnnotator(db.catalog, optimizer.estimator, optimizer.cost_model).annotate(plan)


def switch_at(db: Database, cut, log: list):
    """A context set-up arming a switch at ``cut``: spool its output, then
    scan the spool.  ``log`` receives the temp table."""

    def setup(ctx: RuntimeContext) -> None:
        temp = ctx.temp_manager.create_empty(cut.schema)
        remainder = annotated(db, SeqScanNode(temp.name, temp.name, temp.schema))
        ctx.request_switch(
            PlanSwitchDirective(
                cut_node_id=cut.node_id, temp_table=temp, new_plan=remainder,
                new_allocation={}, remainder_sql="(forced)",
            )
        )
        log.append(temp)

    return setup


class TestCutPoints:
    def cut_plans(self, db: Database):
        """A hash join and a block-NL join, each over a join of its own, so
        the cut's output is a chunk over three sources."""
        inner_hash = HashJoinNode(scan(db, "t0"), scan(db, "t1"), [("t0.k", "t1.t0_k")])
        hash_cut = HashJoinNode(inner_hash, scan(db, "t2"), [("t1.k", "t2.t1_k")])
        inner_nl = HashJoinNode(scan(db, "t0"), scan(db, "t1"), [("t0.k", "t1.t0_k")])
        (predicate,) = db.bind_sql(
            "SELECT t2.k a FROM t1, t2 WHERE t2.t1_k = t1.k"
        ).predicates
        block_cut = BlockNLJoinNode(inner_nl, scan(db, "t2"), [predicate])
        return annotated(db, hash_cut), annotated(db, block_cut)

    @pytest.mark.parametrize("which", [0, 1])
    def test_forced_switch_spools_the_row_paths_temp_rows(self, which):
        db = chunk_db(9)
        cut = self.cut_plans(db)[which]
        spools = []
        results = []
        for mode in PATHS:
            log: list = []
            measured, outcome, ctx = run_plan(
                db, cut, mode, setup=switch_at(db, cut, log)
            )
            (event,) = outcome.switch_events
            spools.append((list(log[0].rows), log[0].page_count, event.materialized_rows))
            results.append(measured[:4])
            assert ctx.switches == 1
            if mode == "batch":
                (record,) = [
                    r for node_id, r in ctx.vector.by_node.items()
                    if node_id == cut.node_id
                ]
                # The batch spool holds the cut's chunk and built none of
                # its tuples; the ones read above are the temp table's.
                assert record["rows_materialised"] == 0 < len(log[0].rows)
        assert spools[0] == spools[1]
        assert results[0] == results[1]  # rows, clock, breakdown (writes), buffer
        assert results[1][2].write > 0

    def test_switch_below_a_probing_join_charges_its_probe(self):
        # The cut sits in the *probe* subtree of a spilling hash join: the
        # switch unwinds through that join's probe loop, whose ``finally``
        # still owes the re-read of its spilled build side.
        db = chunk_db(11)
        cut = HashJoinNode(scan(db, "t1"), scan(db, "t2"), [("t1.k", "t2.t1_k")])
        top = annotated(
            db, HashJoinNode(scan(db, "t0"), cut, [("t0.k", "t1.t0_k")])
        )
        grants = {top.node_id: 1}
        costs = []
        for mode in PATHS:
            measured, __, __c = run_plan(
                db, top, mode, allocation=grants, setup=switch_at(db, cut, [])
            )
            costs.append(measured[1:4])
        assert costs[0] == costs[1]
        # ... and the owed charge is not nothing.
        unswitched, __, __c = run_plan(db, top, "batch", allocation=grants)
        model = CostModel(db.config)
        build_pages = db.table("t0").page_count
        assert model.hash_join_probe(build_pages, 0, 0, 0, 1).seq_read_pages > 0
        assert unswitched[1] != costs[1][0]

    def test_grant_commits_on_the_first_build_batch(self):
        # A collector inside the build subtree completes when the build
        # stream ends — by then the join has seen its first build batch and
        # its grant must already be pinned (paper section 2.3), or a
        # re-allocation triggered by that very collector could move it.
        db = chunk_db(12)
        names = [c.name for c in scan(db, "t0").schema.columns]
        collector = StatsCollectorNode(
            scan(db, "t0"), CollectorSpec(histogram_columns=(names[0],))
        )
        join = annotated(
            db, HashJoinNode(collector, scan(db, "t1"), [("t0.k", "t1.t0_k")])
        )

        class Watcher:
            def __init__(self):
                self.committed_at_completion = None

            def on_collector_complete(self, node, observed):
                self.committed_at_completion = join.node_id in self.ctx.memory_committed

        seen = []
        for mode in PATHS:
            watcher = Watcher()

            def setup(ctx, watcher=watcher):
                watcher.ctx = ctx
                ctx.controller = watcher

            run_plan(db, join, mode, setup=setup)
            seen.append(watcher.committed_at_completion)
        assert seen == [True, True]


# ----------------------------------------------------------------------
# What was not built: the Figure-10 configuration's exact counts
# ----------------------------------------------------------------------


class TestMaterialisationPins:
    """SF 0.01 / 192 pages / seed 31.  Observational, but exact: a join
    that goes back to emitting tuples shows as tens of thousands of them."""

    @pytest.fixture(scope="class")
    def fig10_db(self) -> Database:
        from repro.bench import ExperimentConfig, build_database

        return build_database(
            ExperimentConfig(scale_factor=0.01, memory_pages=192, seed=31)
        )

    def analyzed(self, db: Database, name: str, mode: DynamicMode):
        from repro.workloads.tpcd import query_by_name

        report = db.explain_analyze(query_by_name(name).sql, mode=mode)
        joins = [
            node
            for plan in report.plans
            for node in plan.nodes
            if node.vectorized and node.vectorized["kind"] == "probe"
        ]
        return report, joins

    def test_q8_off_builds_what_the_aggregate_reads(self, fig10_db):
        report, joins = self.analyzed(fig10_db, "Q8", DynamicMode.OFF)
        profile = report.result.profile
        assert len(joins) == 7  # hash, index-NL and block-NL alike
        assert {j.vectorized["matches"] for j in joins} >= {91_620, 22_755, 3_246}
        # 91 620 + 22 755 + 4 551 + 4 x 3 246 tuples before row-id chunks,
        # and 447 while the aggregate read its input as rows.
        assert profile.join_matches == sum(j.vectorized["matches"] for j in joins)
        assert profile.join_rows_materialised == 0
        assert "join: 22755 rows probed, 91620 matches, 0 materialised" in report.render()
        assert "joins: matches=" in profile.summary()
        # Every scan hands on row ids, whatever its size: supplier (100
        # rows) and n2 (25) probe the 3 246-row chunk by key column and
        # pass their matches on, building none.
        scans = scan_records(report)
        assert {"supplier", "nation"} <= set(scans)
        assert all(r["rows_materialised"] == 0 for r in scans.values())

    def test_q8_full_spools_the_survivors_only(self, fig10_db):
        report, joins = self.analyzed(fig10_db, "Q8", DynamicMode.FULL)
        profile = report.result.profile
        assert profile.plan_switches == 1
        wide = next(j for j in joins if j.vectorized["matches"] == 91_620)
        # The collector above it observed all 91 620 rows by column ...
        assert profile.collector_rows_observed >= 91_620
        assert wide.vectorized["rows_materialised"] == 0
        # ... and the cut spooled exactly its 3 246 survivors, as the
        # chunk they already were: no tuple built at the cut.
        (cut,) = [
            j for j in report.plans[0].nodes
            if j.vectorized and j.vectorized.get("matches") == 3_246
        ]
        assert cut.vectorized["rows_materialised"] == 0
        assert "after materializing 3246 rows" in report.render()

    @pytest.mark.parametrize("name", ["Q5", "Q7", "Q8"])
    def test_full_switch_builds_no_tuple_at_the_cut(self, fig10_db, name):
        report, __ = self.analyzed(fig10_db, name, DynamicMode.FULL)
        switched = report.plans[0]
        assert switched.outcome == "switched"
        # The cut join's output went to the temp table as the chunk it was.
        (cut,) = [
            j for j in switched.nodes
            if j.vectorized and j.vectorized.get("matches") == switched.materialized_rows
        ]
        assert cut.vectorized["rows_materialised"] == 0
        # ... and the remainder's scan of it yields that chunk.
        (temp,) = [
            record for table, record in scan_records(report).items()
            if table.startswith("__temp_")
        ]
        assert temp["rows_scanned"] == switched.materialized_rows
        assert temp["rows_materialised"] == 0

    def test_q5_off_and_the_registry(self, fig10_db):
        before = fig10_db.metrics_snapshot().get("join.rows_materialised", {"value": 0})
        report, __ = self.analyzed(fig10_db, "Q5", DynamicMode.OFF)
        profile = report.result.profile
        assert profile.join_matches > 50_000
        assert profile.join_rows_materialised <= 3_000
        after = fig10_db.metrics_snapshot()["join.rows_materialised"]["value"]
        assert after - before["value"] == profile.join_rows_materialised


# ----------------------------------------------------------------------
# Every operator without a column kernel, between operators with one
# ----------------------------------------------------------------------


BATCH_SIZES = [1, 2, None]


class TestFormerFallbacks:
    """Each shape once ended a column-space leaf pipeline and sent what
    lay above it to the row kernels; now only the operator without a
    kernel reads tuples.  Held to the row path at batch sizes 1, 2 and the
    default, under OFF and FULL — for the hand-built plans, FULL is a
    statistics collector over the bottom filter, where SCIA places one."""

    def db(self, batch_size):
        config = EngineConfig() if batch_size is None else EngineConfig(batch_size=batch_size)
        db = build_random_db(5, 3, config)
        db.register_udf("half", lambda v: v // 2)
        return db

    @staticmethod
    def predicates(db, where: str):
        return db.bind_sql(f"SELECT t1.k a FROM t0, t1 WHERE {where}").predicates

    @staticmethod
    def collected(node, mode):
        if mode is DynamicMode.OFF:
            return node
        names = [column.name for column in node.schema.columns]
        return StatsCollectorNode(node, CollectorSpec(histogram_columns=(names[0],)))

    @pytest.mark.parametrize("mode", [DynamicMode.OFF, DynamicMode.FULL])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_udf_conjunct_above_a_mask_filter(self, batch_size, mode):
        db = self.db(batch_size)
        mask = FilterNode(scan(db, "t1"), self.predicates(db, "t1.v < 9 AND t1.k > 2"))
        udf = FilterNode(self.collected(mask, mode), self.predicates(db, "half(t1.k) > 3"))
        __, ctx = assert_paths_agree(db, annotated(db, udf))
        (record,) = ctx.vector.by_node.values()
        # The UDF reads the mask filter's survivors as tuples, no more.
        assert 0 < record["rows_materialised"] == ctx.actual_rows[mask.node_id]
        assert record["rows_materialised"] < record["rows_scanned"]

    @pytest.mark.parametrize("mode", [DynamicMode.OFF, DynamicMode.FULL])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_computed_projection_between_two_filters(self, batch_size, mode):
        db = self.db(batch_size)
        below = FilterNode(scan(db, "t1"), self.predicates(db, "t1.v < 9"))
        (plus,) = [
            item.expr for item in db.bind_sql("SELECT t1.v + 1 c FROM t1").output
        ]
        output = [OutputColumn("a", ColumnExpr("t1.k")), OutputColumn("c", plus)]
        child = self.collected(below, mode)
        project = ProjectNode(child, output, output_schema(output, child.schema))
        # ``c`` is typed FLOAT and holds ints: its mask compares them exactly.
        above = FilterNode(project, [Comparison(CompareOp.GT, ColumnExpr("c"), ConstExpr(4))])
        outcome, __ = assert_paths_agree(db, annotated(db, above))
        assert outcome.rows and all(c > 4 for __, c in outcome.rows)

    @pytest.mark.parametrize("mode", [DynamicMode.OFF, DynamicMode.FULL])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_filter_over_a_switchs_held_chunk(self, batch_size, mode):
        db = self.db(batch_size)
        cut = annotated(
            db, HashJoinNode(scan(db, "t0"), scan(db, "t1"), [("t0.k", "t1.t0_k")])
        )
        predicates = self.predicates(db, "t1.v < 9 AND t0.v <> t1.v")
        outcomes = []
        for path in PATHS:
            def setup(ctx: RuntimeContext) -> None:
                temp = ctx.temp_manager.create_empty(cut.schema)
                held = SeqScanNode(temp.name, temp.name, temp.schema)
                remainder = FilterNode(self.collected(held, mode), predicates)
                ctx.request_switch(
                    PlanSwitchDirective(
                        cut_node_id=cut.node_id, temp_table=temp,
                        new_plan=annotated(db, remainder), new_allocation={},
                        remainder_sql="(forced)",
                    )
                )

            measured, outcome, ctx = run_plan(db, cut, path, setup=setup)
            assert ctx.switches == 1 and outcome.rows
            outcomes.append((measured[:4], list(measured[6].values())))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("mode", [DynamicMode.OFF, DynamicMode.FULL])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_filter_over_a_session_temp_table(self, batch_size, mode):
        db = self.db(batch_size)
        session = db.create_session("scratch")
        try:
            session.create_temp_table("hot", [("h_k", DataType.INTEGER), ("h_v", DataType.INTEGER)])
            session.load_rows("hot", [(k, k % 11) for k in range(0, 90, 3)])
            session.analyze("hot")
            for sql in (
                "SELECT hot.h_k a FROM hot WHERE hot.h_v < 6 AND hot.h_k > 9",
                "SELECT hot.h_k a, t1.v b FROM hot, t1 "
                "WHERE hot.h_k = t1.k AND hot.h_v <> t1.v",
            ):
                assert assert_row_parity(session, sql, mode).rows
        finally:
            session.close()

    @pytest.mark.parametrize("mode", [DynamicMode.OFF, DynamicMode.FULL])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_aggregate_with_a_computed_argument_over_a_join(self, batch_size, mode):
        db = self.db(batch_size)
        sql = (
            "SELECT t1.v g, sum(t0.v + t1.k) s, count(*) n, min(half(t0.k)) m "
            "FROM t0, t1 WHERE t1.t0_k = t0.k GROUP BY t1.v"
        )
        assert assert_row_parity(db, sql, mode).rows

    @pytest.mark.parametrize("mode", [DynamicMode.OFF, DynamicMode.FULL])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_aggregate_over_a_row_list(self, batch_size, mode):
        db = self.db(batch_size)
        output = [OutputColumn("g", ColumnExpr("t1.v")), OutputColumn("f", ColumnExpr("t1.t0_k"))]
        project = ProjectNode(scan(db, "t1"), output, output_schema(output, scan(db, "t1").schema))
        distinct = self.collected(DistinctNode(project), mode)
        items = [
            OutputColumn("g", ColumnExpr("g")),
            OutputColumn("n", AggregateExpr(AggFunc.COUNT)),
            OutputColumn("s", AggregateExpr(AggFunc.SUM, ColumnExpr("f"))),
            OutputColumn("x", AggregateExpr(AggFunc.MAX, ColumnExpr("f"))),
        ]
        top = HashAggregateNode(distinct, ["g"], items, output_schema(items, distinct.schema))
        outcome, __ = assert_paths_agree(db, annotated(db, top))
        assert outcome.rows
