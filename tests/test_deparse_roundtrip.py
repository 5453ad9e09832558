"""Deparser round-trips: parse -> bind -> deparse must reach a fixpoint.

The deparser is load-bearing in two places: mid-query re-optimization
round-trips the remainder query through SQL text (paper section 2.4), and
the plan cache keys exact entries by the deparsed bound query — so the
deparsed text must itself parse, bind to an equivalent query, and deparse
to byte-identical text.  For the remainder the round trip is a no-op: the
re-bound query equals the one ``build_remainder`` returned.
"""

import pytest

from repro import Database, DynamicMode
from repro.bench import ExperimentConfig, build_database
from repro.core import reoptimizer
from repro.sql.binder import bind
from repro.sql.deparser import deparse
from repro.sql.parser import parse
from repro.workloads.synthetic import (
    RUNNING_EXAMPLE_SQL,
    SyntheticConfig,
    build_running_example,
)
from repro.workloads.tpcd import ALL_QUERIES, TpcdConfig, generate_tpcd
from repro.workloads.tpcd.datagen import CatalogProfile

from .conftest import make_two_table_db


@pytest.fixture(scope="module")
def tpcd_db():
    db = Database()
    generate_tpcd(db, TpcdConfig(scale_factor=0.002))
    return db


def roundtrip(db, sql, params=None):
    query = bind(parse(sql), db.catalog, params=params)
    once = deparse(query)
    requery = bind(parse(once), db.catalog)
    twice = deparse(requery)
    return query, once, requery, twice


class TestTpcdRoundTrips:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_fixpoint(self, tpcd_db, query):
        __, once, __, twice = roundtrip(tpcd_db, query.sql)
        assert once == twice

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_rebound_query_is_equivalent(self, tpcd_db, query):
        bound, once, rebound, __ = roundtrip(tpcd_db, query.sql)
        assert [r.alias for r in bound.relations] == [
            r.alias for r in rebound.relations
        ]
        assert len(bound.predicates) == len(rebound.predicates)
        assert [o.name for o in bound.output] == [o.name for o in rebound.output]

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_roundtripped_sql_executes_identically(self, tpcd_db, query):
        direct = tpcd_db.execute(query.sql)
        once = deparse(tpcd_db.bind_sql(query.sql))
        again = tpcd_db.execute(once)
        assert again.rows == direct.rows


class TestParameterRoundTrips:
    def test_bound_parameters_roundtrip_as_values(self):
        db = make_two_table_db()
        sql = "SELECT r1.a FROM r1 WHERE r1.a < :cutoff"
        __, once, __, twice = roundtrip(db, sql, params={"cutoff": 40})
        assert once == twice
        assert ":cutoff" not in once  # bound constants deparse as literals

    def test_running_example_fixpoint(self):
        db = Database()
        build_running_example(
            db, SyntheticConfig(rel1_rows=500, rel2_rows=100, rel3_rows=800)
        )
        __, once, __, twice = roundtrip(
            db, RUNNING_EXAMPLE_SQL, params={"value1": 50, "value2": 50}
        )
        assert once == twice


class TestRemainderRoundTrips:
    @pytest.mark.parametrize("seed", [7, 31])
    @pytest.mark.parametrize("catalog", list(CatalogProfile), ids=lambda c: c.value)
    def test_remainder_equals_its_rebound_sql(self, monkeypatch, catalog, seed):
        # What a switch re-binds from the remainder's SQL text is the bound
        # query build_remainder handed it.
        built, checked = [], []

        def recording_build(*args):
            remainder = reoptimizer_build(*args)
            built.append(remainder.query)
            return remainder

        def checking_bind(*args, **kwargs):
            rebound = reoptimizer_bind(*args, **kwargs)
            checked.append(rebound == built[-1])
            return rebound

        reoptimizer_build = reoptimizer.build_remainder
        reoptimizer_bind = reoptimizer.bind
        monkeypatch.setattr(reoptimizer, "build_remainder", recording_build)
        monkeypatch.setattr(reoptimizer, "bind", checking_bind)
        db = build_database(
            ExperimentConfig(
                scale_factor=0.01, memory_pages=192, catalog=catalog, seed=seed
            )
        )
        for query in ALL_QUERIES:
            db.execute(query.sql, mode=DynamicMode.FULL)
        assert checked and all(checked) and len(checked) == len(built)
