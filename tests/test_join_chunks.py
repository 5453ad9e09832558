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
from repro.executor.agg_kernels import ProbeIndex
from repro.executor.chunk import Chunk, as_chunk, typed
from repro.executor.dispatcher import Dispatcher
from repro.executor.runtime import PlanSwitchDirective, RuntimeContext
from repro.optimizer import dp
from repro.optimizer.annotate import annotate_plan
from repro.optimizer.cost_model import CostModel
from repro.plans.physical import (
    BlockNLJoinNode,
    CollectorSpec,
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
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.storage.index import build_index
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

from .oracle import row_path
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
    return as_chunk(table.rows, width, heap=table.column_store(4))


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
    assert list(chunk) == expect and chunk[:2] == expect[:2]


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


# ----------------------------------------------------------------------
# The default executor against the row path, join kind by join kind
# ----------------------------------------------------------------------


@contextmanager
def forced_joins(kind: type):
    """Every join the enumerator builds is a ``kind``.  A block-NL join takes
    its equi-keys as predicates; an index-NL join needs the index to exist
    (the hash join stands in where it does not)."""
    real = dp.JoinEnumerator._join_candidates

    def only(self, left, left_mask, new_index):
        candidates = real(self, left, left_mask, new_index)
        wanted = [c for c in candidates if c[1].func is kind]
        if wanted or kind is not BlockNLJoinNode:
            return wanted or candidates
        relation = self.query.relations[new_index]
        key_pairs, residual = self._classify_predicates(left_mask, 1 << new_index)
        right = self._leaf(relation.alias)
        cost = self.annotator.block_nl_join_cost(left.est, right.est)[2]
        predicates = residual + [dp._equality(*pair) for pair in key_pairs]
        bound = cost.total_units(self.annotator.cost_model.params)
        bound += left.est.total_cost + right.est.total_cost
        return [(bound, partial(BlockNLJoinNode, left, right, predicates), True)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp.JoinEnumerator, "_join_candidates", only)
        yield


def chunk_db(seed: int, tables: int = 3, **config) -> Database:
    """``build_random_db`` with an index on every join column, small batches
    (several per table) and a reservoir the tables overflow."""
    db = build_random_db(
        seed,
        tables,
        EngineConfig(
            batch_size=16, reservoir_sample_size=8, feedback_enabled=False, **config
        ),
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
    return annotate_plan(plan, db.catalog, optimizer.estimator, optimizer.cost_model)


#: The two paths a plan runs on: the row oracle and the default executor.
PATHS = {"row": row_path, "batch": nullcontext}


def run_plan(db: Database, plan, path: str, allocation=None, setup=None):
    """Drive ``plan`` to completion on one of :data:`PATHS`; everything the
    parity contract covers, plus the context for a closer look."""
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
        allocation=dict(allocation or {}),
    )
    if setup is not None:
        setup(ctx)
    try:
        with PATHS[path]():
            outcome = Dispatcher(ctx).run(plan)
    finally:
        ctx.temp_manager.drop_all()
    observed = {
        node_id: (
            stats.row_count, stats.row_bytes, dict(stats.minmax), dict(stats.distincts),
            {name: (h.kind, h.buckets) for name, h in stats.histograms.items()},
        )
        for node_id, stats in ctx.observed.items()
    }
    measured = (
        outcome.rows, repr(clock.now), clock.breakdown.snapshot(), pool.stats,
        ctx.actual_rows, observed,
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
            assert batch.rows == row.rows, (seed, sql)
            for field in (
                "plan_explanations", "breakdown", "buffer", "plan_switches",
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
        (record,) = ctx.vector.by_node.values()
        # The UDF needs whole rows: every match was built to be filtered.
        assert record["rows_materialised"] >= record["matches"] > 0

    def test_arithmetic_residual_computes_in_python_ints(self):
        # 3 037 000 500 squared is just past 2**63: an int64 kernel wraps it
        # negative, Python's ints do not.
        db = Database(EngineConfig(batch_size=16, feedback_enabled=False))
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
        assert got[0] == want[0] and got[5] == want[5]


def below_limit(plan) -> list[type]:
    """Node types from LIMIT's child down to the first node that is not a
    projection, filter or collector."""
    node = next(n for n in plan.walk() if isinstance(n, LimitNode)).child
    chain = [type(node)]
    while isinstance(node, (ProjectNode, FilterNode, StatsCollectorNode)):
        node = node.child
        chain.append(type(node))
    return chain


class TestStreamingLimit:
    """A LIMIT over a streaming subtree is the row interpreter's one caller
    in the engine: the batch LIMIT drains that subtree row by row, so every
    upstream charge stops at exactly the limit row.  Each shape runs under
    OFF and FULL against the row oracle."""

    LIMIT = 5

    def assert_matches_oracle(self, db, sql, kind=None) -> list[type]:
        chains = []
        forced = forced_joins(kind) if kind is not None else nullcontext()
        with forced:
            for mode in (DynamicMode.OFF, DynamicMode.FULL):
                plan, __s, __o = db.plan(sql, mode=mode)
                chains.append(below_limit(plan))
                with row_path():
                    row = db.execute(sql, mode=mode)
                default = db.execute(sql, mode=mode)
                assert len(default.rows) == self.LIMIT, (mode, sql)
                assert repr(default.rows) == repr(row.rows), (mode, sql)
                assert default.profile.breakdown == row.profile.breakdown, (mode, sql)
                assert repr(default.profile.total_cost) == repr(row.profile.total_cost)
                assert default.profile.buffer == row.profile.buffer, (mode, sql)
        db.plan_cache.clear()
        for chain in chains:
            # Not the blocking-child shortcut: the subtree streams.
            assert chain[0] not in (HashAggregateNode, SortNode), chains
        return chains[0]

    @pytest.mark.parametrize("kind", JOIN_NODES, ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("seed", range(3))
    def test_limit_over_each_join(self, kind, seed):
        # Over a hash join the probe side streams; over an index-NL or a
        # block-NL join the outer does.
        db = chunk_db(seed, tables=2)
        sql = f"SELECT t0.v a, t1.k b FROM t0, t1 WHERE t1.t0_k = t0.k LIMIT {self.LIMIT}"
        assert self.assert_matches_oracle(db, sql, kind)[-1] is kind

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_over_a_computed_projection(self, seed):
        db = chunk_db(seed, tables=1)
        sql = f"SELECT t0.k a, t0.v + 1 c FROM t0 WHERE t0.v < 12 LIMIT {self.LIMIT}"
        chain = self.assert_matches_oracle(db, sql)
        assert chain[0] is ProjectNode and chain[-1] is SeqScanNode

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_over_having(self, seed):
        db = chunk_db(seed, tables=2)
        sql = (
            "SELECT t1.k g, count(*) n FROM t0, t1 WHERE t1.t0_k = t0.k "
            f"GROUP BY t1.k HAVING count(*) > 0 LIMIT {self.LIMIT}"
        )
        chain = self.assert_matches_oracle(db, sql)
        assert chain[:2] == [FilterNode, HashAggregateNode]


# ----------------------------------------------------------------------
# Cut points: the switch spool, and the charges around it
# ----------------------------------------------------------------------


def scan(db: Database, name: str) -> SeqScanNode:
    table = db.table(name)
    return SeqScanNode(name, name, table.schema.qualify(name))


def annotated(db: Database, plan):
    __, __s, optimizer = db.plan("SELECT t0.k a FROM t0", mode=DynamicMode.OFF)
    return annotate_plan(plan, db.catalog, optimizer.estimator, optimizer.cost_model)


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
        # The late probe runs wherever it qualifies, whatever the sizes:
        # supplier (100 rows) and n2 (25) probe the 3 246-row chunk by key
        # column and pass their matches on as row ids, building none.
        late = {
            record["table"]: record["rows_materialised"]
            for record in profile.leaf_pipelines.values()
            if record["kernel"] == "column" and record["reason"] is None
            and record["table"] in ("supplier", "nation")
        }
        assert late == {"supplier": 0, "nation": 0}

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
        # ... and the remainder's scan of it yields slices of that chunk.
        (temp,) = [
            record for record in report.profile.leaf_pipelines.values()
            if record["table"].startswith("__temp_")
        ]
        assert temp["reason"] == "temporary table"
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
