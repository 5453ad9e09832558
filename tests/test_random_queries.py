"""Randomized query testing against the brute-force oracle.

Generates random schemas, data and multi-join queries and checks that the
engine — under every dynamic mode — returns exactly what the naive
cross-product evaluator returns.  This is the strongest end-to-end
correctness net in the suite: it exercises the optimizer's plan choices,
every join algorithm, the collectors, and the mid-query switch machinery
at once.

The second half holds the default executor's column-space leaf pipelines
to the row path (:func:`tests.oracle.row_path`) on tables of several
page groups whose columns change encoding while queries run: rows, plans
and every simulated quantity must agree exactly.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench.harness import rows_equivalent
from repro.executor import batch, columnar, iterators

from . import reference_collector
from .oracle import evaluate, row_path

pytestmark = pytest.mark.hashseed


def build_random_db(seed: int, tables: int = 3, config=None) -> Database:
    """A chain-joinable database: t0(k, v), t1(k, t0_k, v), t2(k, t1_k, v)."""
    db = Database(config)
    rng = random.Random(seed)
    sizes = [rng.randrange(20, 80) for __ in range(tables)]
    for i in range(tables):
        columns = [("k", DataType.INTEGER)]
        if i > 0:
            columns.append((f"t{i - 1}_k", DataType.INTEGER))
        columns.append(("v", DataType.INTEGER))
        db.create_table(f"t{i}", columns, key=["k"])
        rows = []
        for k in range(sizes[i]):
            row = [k]
            if i > 0:
                row.append(rng.randrange(sizes[i - 1]))
            row.append(rng.randrange(15))
            rows.append(tuple(row))
        db.load_rows(f"t{i}", rows)
    db.analyze()
    return db


def random_query(rng: random.Random, tables: int = 3) -> str:
    """A random chain-join query with random filters and optional group-by."""
    joins = " AND ".join(
        f"t{i}.t{i - 1}_k = t{i - 1}.k" for i in range(1, tables)
    )
    filters = []
    for i in range(tables):
        if rng.random() < 0.6:
            op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
            filters.append(f"t{i}.v {op} {rng.randrange(15)}")
    where = " AND ".join(filter(None, [joins] + filters))
    if rng.random() < 0.5:
        sql = (
            f"SELECT t0.v, count(*) n, sum(t{tables - 1}.v) s "
            f"FROM {', '.join(f't{i}' for i in range(tables))} "
            f"WHERE {where} GROUP BY t0.v"
        )
    else:
        sql = (
            f"SELECT t0.v, t{tables - 1}.v "
            f"FROM {', '.join(f't{i}' for i in range(tables))} "
            f"WHERE {where}"
        )
    return sql


def random_join_graph_query(rng: random.Random, tables: int = 3) -> str:
    """Join graphs ``random_query`` never draws (planned, not executed: a
    missing edge makes the answer a cross product).

    Each chain edge is an equi-join, a non-equi comparison or absent (a
    FROM list in disconnected pieces: cartesian-only subsets); a table may
    appear a second time under another alias, which gives the enumerator
    candidates of exactly equal cost to break by FROM order.
    """
    relations = [f"t{i}" for i in range(tables)]
    conjuncts = []
    for i in range(1, tables):
        edge = rng.choice(["equi", "equi", "non-equi", "none"])
        if edge == "equi":
            conjuncts.append(f"t{i}.t{i - 1}_k = t{i - 1}.k")
        elif edge == "non-equi":
            conjuncts.append(f"t{i}.v {rng.choice(['<', '<=', '>', '<>'])} t{i - 1}.v")
    if rng.random() < 0.6:
        i = rng.randrange(tables)
        relations.insert(rng.randrange(len(relations) + 1), f"t{i} u{i}")
        edge = rng.choice(["equi", "non-equi", "none"])
        if edge == "equi":
            conjuncts.append(f"u{i}.k = t{i}.k")
        elif edge == "non-equi":
            conjuncts.append(f"u{i}.v < t{rng.randrange(tables)}.v")
    for i in range(tables):
        if rng.random() < 0.4:
            conjuncts.append(f"t{i}.v {rng.choice(['<', '>=', '='])} {rng.randrange(15)}")
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT t0.v a, t{tables - 1}.k b FROM {', '.join(relations)}{where}"


def assert_collectors_agree(seed: int, sql: str, tables: int = 3, indexes: bool = False):
    """FULL with the previous collector swapped in == FULL with today's.

    The reservoir is shrunk to 16 values so these small tables overflow it
    and every histogram depends on the sampler's draws.
    """
    runs = []
    for collector in (reference_collector.RuntimeCollector, None):
        db = build_random_db(seed, tables, EngineConfig(reservoir_sample_size=16))
        if indexes:
            for i in range(1, tables):
                db.create_index(f"ix_t{i}", f"t{i}", f"t{i - 1}_k")
        with pytest.MonkeyPatch.context() as patch:
            if collector is not None:
                for module in (batch, columnar, iterators):
                    patch.setattr(module, "RuntimeCollector", collector)
            profile = (result := db.execute(sql, mode=DynamicMode.FULL)).profile
        if collector is not None:
            # The previous collector reports no work counters: proof it ran.
            assert profile.minmax_columns_tracked == 0
        runs.append((
            profile.plan_explanations, repr(profile.total_cost),
            profile.plan_switches, profile.memory_reallocations, result.rows,
        ))
    assert runs[0] == runs[1], (seed, sql)


class TestRandomizedQueries:
    @pytest.mark.parametrize("seed", range(12))
    def test_engine_matches_oracle(self, seed):
        db = build_random_db(seed)
        rng = random.Random(seed * 31 + 5)
        sql = random_query(rng)
        expected = evaluate(db, db.bind_sql(sql))
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            result = db.execute(sql, mode=mode)
            assert rows_equivalent(result.rows, expected), (seed, mode, sql)
        assert_collectors_agree(seed, sql)

    @given(seed=st.integers(min_value=100, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_all_modes_agree(self, seed):
        db = build_random_db(seed)
        rng = random.Random(seed)
        sql = random_query(rng)
        reference = db.execute(sql, mode=DynamicMode.OFF)
        for mode in (DynamicMode.MEMORY_ONLY, DynamicMode.PLAN_ONLY, DynamicMode.FULL):
            result = db.execute(sql, mode=mode)
            assert rows_equivalent(result.rows, reference.rows), (seed, mode, sql)
        assert_collectors_agree(seed, sql)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_with_indexes_and_four_tables(self, seed):
        db = build_random_db(seed, tables=4)
        for i in range(1, 4):
            db.create_index(f"ix_t{i}", f"t{i}", f"t{i - 1}_k")
        rng = random.Random(seed + 99)
        sql = random_query(rng, tables=4)
        expected = evaluate(db, db.bind_sql(sql))
        result = db.execute(sql, mode=DynamicMode.FULL)
        assert rows_equivalent(result.rows, expected), (seed, sql)
        assert_collectors_agree(seed, sql, tables=4, indexes=True)


# ----------------------------------------------------------------------
# Column-space leaf pipelines (the default path) against the row path
# ----------------------------------------------------------------------

WIDE_COLUMNS = [
    ("k", DataType.INTEGER),
    ("fk", DataType.INTEGER),
    ("v", DataType.INTEGER),
    ("w", DataType.FLOAT),
    ("s", DataType.STRING),
    ("late", DataType.INTEGER),
    ("big", DataType.INTEGER),
]

#: What makes ``f.late`` leave the int64 encoding, in a late page group.
LATE_DEMOTIONS = (None, True, 2**70)


def wide_rows(rng: random.Random, lo: int, hi: int, odd: object = 0, many_strings=False):
    """Rows ``lo .. hi - 1`` of ``f``.  ``odd`` replaces one ``late`` value;
    ``many_strings`` makes ``s`` outgrow the dictionary budget."""
    rows = []
    for k in range(lo, hi):
        rows.append((
            k,
            rng.randrange(12),
            rng.randrange(15),
            rng.choice([0.1, 0.25, 1e16, -1e16, 3.5, -0.0, 7.0]),
            f"s{k}" if many_strings else f"s{rng.randrange(5)}",
            odd if k == hi - 7 else k % 9,
            2**40 + k if many_strings else k * 3,
        ))
    return rows


def build_wide_db(seed: int, config=None) -> tuple[Database, random.Random]:
    """``f`` (600 rows, ten page groups at batch_size 64) and ``d``.

    Feedback stays off: the tests run each statement twice (default path,
    then oracle) and the second run must plan exactly like the first."""
    config = config or EngineConfig(
        batch_size=64, columnar_dictionary_max=8, feedback_enabled=False
    )
    db = Database(config)
    rng = random.Random(seed)
    db.create_table("f", WIDE_COLUMNS, key=["k"])
    db.create_table("d", [("k", DataType.INTEGER), ("name", DataType.STRING)], key=["k"])
    db.load_rows("f", wide_rows(rng, 0, 600))
    db.load_rows("d", [(k, f"name{k % 4}") for k in range(12)])
    db.analyze()
    return db, rng


def wide_queries(rng: random.Random) -> list[str]:
    x, y = rng.randrange(2, 14), rng.choice([0.1, 0.25, 3.5])
    op = rng.choice(["<", "<=", ">", ">=", "<>"])
    name = f"s{rng.randrange(5)}"
    return [
        f"SELECT f.k, f.s FROM f WHERE f.v {op} {x} AND f.w >= {y}",
        f"SELECT f.s g, count(*) n, sum(f.w) sw, avg(f.w) aw, min(f.v) mn "
        f"FROM f WHERE f.v <> {x} GROUP BY f.s",
        f"SELECT d.name, f.k FROM d, f WHERE d.k = f.fk AND f.v {op} {x}",
        f"SELECT f.fk g, sum(f.big) sb, max(f.w) mw FROM f "
        f"WHERE f.s = '{name}' GROUP BY f.fk",
        f"SELECT count(*) n, sum(f.w) sw FROM f WHERE f.s <> '{name}' AND f.v < {x}",
    ]


#: First read of ``f.late`` and ``f.big`` — by a *later* query than the
#: ones above, so their columns are built after their neighbours.
LATE_QUERIES = [
    "SELECT f.late g, count(*) n FROM f WHERE f.v < 9 GROUP BY f.late",
    "SELECT f.v g, max(f.big) mb, sum(f.big) sb FROM f GROUP BY f.v",
    "SELECT f.k, f.late, f.big FROM f WHERE f.v < 3",
]


def assert_matches_row_path(db: Database, sql: str, mode=DynamicMode.FULL) -> None:
    default = db.execute(sql, mode=mode)
    with row_path():
        oracle = db.execute(sql, mode=mode)
    assert default.rows == oracle.rows, sql
    assert default.profile.plan_explanations == oracle.profile.plan_explanations, sql
    assert repr(default.profile.total_cost) == repr(oracle.profile.total_cost), sql
    assert default.profile.breakdown == oracle.profile.breakdown, sql
    assert default.profile.buffer == oracle.profile.buffer, sql
    assert default.profile.plan_switches == oracle.profile.plan_switches, sql
    assert (
        default.profile.memory_reallocations == oracle.profile.memory_reallocations
    ), sql
    # The scan of f ran on the column kernels; the oracle built nothing.
    kernels = {
        record["table"]: record["kernel"]
        for record in default.profile.leaf_pipelines.values()
    }
    assert kernels.get("f") == "column", (sql, default.profile.leaf_pipelines)
    assert oracle.profile.leaf_pipelines == {}


class TestColumnKernelsAgainstRowPath:
    @pytest.mark.parametrize("odd", LATE_DEMOTIONS, ids=["null", "bool", "2**70"])
    @pytest.mark.parametrize("seed", range(4))
    def test_encodings_change_under_running_queries(self, seed, odd):
        pytest.importorskip("numpy")
        db, rng = build_wide_db(seed)
        store = db.table("f").column_store(64, 8)
        assert len(store.groups) >= 3
        for sql in wide_queries(rng):
            assert_matches_row_path(db, sql)
        late, big, s = (db.table("f").schema.index_of(c) for c in ("late", "big", "s"))
        assert not store._built[late]
        assert store.encodings[s] == "dict"
        assert {store.array(g, big).dtype.name for g in store.groups} == {"int32"}
        # Appends: ``late`` meets a value int64 cannot hold exactly (before
        # it was ever read), ``s`` overflows its dictionary mid-column and
        # ``big`` outgrows int32.
        db.load_rows("f", wide_rows(rng, 600, 900, odd=odd, many_strings=True))
        assert store.encodings[s] == "object"
        for sql in wide_queries(rng) + LATE_QUERIES:
            assert_matches_row_path(db, sql)
        assert store.encodings[late] == "object"
        assert store.encodings[big] == "int64"
        assert {store.array(g, big).dtype.name for g in store.groups} == {"int64"}

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_default_path_equals_row_path(self, seed):
        pytest.importorskip("numpy")
        db, rng = build_wide_db(seed)
        for mode in (DynamicMode.OFF, DynamicMode.FULL):
            for sql in wide_queries(rng):
                assert_matches_row_path(db, sql, mode)

    def test_pipelines_without_kernels_stay_on_rows_with_a_reason(self):
        pytest.importorskip("numpy")
        db, __ = build_wide_db(3)
        db.register_udf("half", lambda v: v // 2)
        cases = {
            "SELECT f.k FROM f WHERE half(f.v) < 3": "predicate without a kernel",
            "SELECT f.k, f.v FROM f": "no filter",
        }
        for sql, reason in cases.items():
            default = db.execute(sql)
            with row_path():
                oracle = db.execute(sql)
            assert default.rows == oracle.rows
            assert repr(default.profile.total_cost) == repr(oracle.profile.total_cost)
            (record,) = default.profile.leaf_pipelines.values()
            assert (record["kernel"], record["reason"]) == ("row", reason)
            assert record["rows_scanned"] == record["rows_materialised"] == 600
            assert record["rows_selected"] == len(default.rows)
            assert default.profile.columnar_pipelines == 0
        # A stage without a kernel is an ordinary row operator; the chain
        # below it is a leaf pipeline of its own and still qualifies.
        sql = "SELECT f.k, f.v + 1 x FROM f WHERE f.v < 5"
        default = db.execute(sql)
        with row_path():
            oracle = db.execute(sql)
        assert default.rows == oracle.rows
        assert repr(default.profile.total_cost) == repr(oracle.profile.total_cost)
        (record,) = default.profile.leaf_pipelines.values()
        assert (record["kernel"], record["reason"]) == ("column", None)
        assert record["rows_materialised"] == len(default.rows) < 600

    def test_session_temp_tables_take_the_row_kernels(self):
        pytest.importorskip("numpy")
        db, __ = build_wide_db(7)
        session = db.create_session("hot-client")
        try:
            session.create_temp_table("hot", [("h_k", DataType.INTEGER)])
            session.load_rows("hot", [(k,) for k in range(0, 600, 7)])
            session.analyze("hot")
            result = session.execute(
                "SELECT f.s g, count(*) n FROM hot, f "
                "WHERE hot.h_k = f.k AND hot.h_k < 300 GROUP BY f.s"
            )
        finally:
            session.close()
        by_table = {r["table"]: r for r in result.profile.leaf_pipelines.values()}
        assert by_table["hot"]["kernel"] == "row"
        assert by_table["hot"]["reason"] == "temporary table"
        assert sum(n for __, n in result.rows) == len(range(0, 300, 7))

    def test_two_sessions_first_touching_a_column_build_it_once(self):
        pytest.importorskip("numpy")
        db, __ = build_wide_db(
            11, EngineConfig(batch_size=64, max_sessions=2, feedback_enabled=False)
        )
        store = db.table("f").column_store(64, db.config.columnar_dictionary_max)
        assert not any(store._built)
        version = store.version
        sql = "SELECT f.fk g, sum(f.w) sw, count(*) n FROM f WHERE f.v < 9 GROUP BY f.fk"
        with row_path():
            oracle = db.execute(sql)
        barrier = threading.Barrier(2)
        results, errors = [], []

        def client(index: int) -> None:
            session = db.create_session(f"client-{index}")
            try:
                barrier.wait(timeout=10)
                results.append(session.execute(sql))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                session.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors and not any(t.is_alive() for t in threads)
        assert [r.rows for r in results] == [oracle.rows] * 2
        # fk, v and w were read by both sessions and built once each.
        assert sum(store._built) == 3
        assert store.version == version + 3
