"""Randomized query testing against the brute-force oracle.

Generates random schemas, data and multi-join queries and checks that the
engine — under every dynamic mode — returns exactly what the naive
cross-product evaluator returns.  This is the strongest end-to-end
correctness net in the suite: it exercises the optimizer's plan choices,
every join algorithm, the collectors, and the mid-query switch machinery
at once.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, DynamicMode, EngineConfig
from repro.bench.harness import rows_equivalent
from repro.executor import batch, columnar, iterators, parallel

from . import reference_collector
from .oracle import evaluate


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
                for module in (batch, columnar, iterators, parallel):
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
