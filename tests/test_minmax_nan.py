"""MIN / MAX and the collectors' min/max when a NaN leads a batch.

Every comparison with NaN is false, so Python's ``min`` / ``max`` keep a
NaN that comes first: ``min([nan, 0.5])`` is NaN.  Folding a batch's own
extreme into the running one therefore dropped the 0.5 that the row path,
comparing value by value against the running extreme, keeps.  Both batch
folds seed ``min`` / ``max`` with the running extreme, which makes exactly
the row path's comparisons.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, EngineConfig
from repro.executor.collector import RuntimeCollector
from repro.executor.agg_kernels import _AggState
from repro.plans.logical import AggFunc
from repro.plans.physical import CollectorSpec, SeqScanNode, StatsCollectorNode
from repro.storage import Column, Schema

from .oracle import row_path

pytestmark = pytest.mark.hashseed

NAN = math.nan
NUMBERS = st.one_of(st.sampled_from([NAN, 0.5, 1.0, 0.0, -0.0, 2]), st.floats())
BATCHES = st.lists(st.lists(NUMBERS, min_size=1, max_size=5), min_size=1, max_size=5)


def test_grouped_min_max_after_a_leading_nan_matches_the_row_path():
    db = Database(EngineConfig(batch_size=2))
    db.create_table("t", [("g", DataType.INTEGER), ("x", DataType.FLOAT)])
    db.load_rows("t", [(1, 1.0), *[(2, 3.0)] * 1000, (1, NAN), (1, 0.5)])
    db.create_table("u", [("k", DataType.INTEGER)])
    db.load_rows("u", [(1,), (2,)])
    db.analyze()
    sql = (
        "SELECT t.g AS g, min(t.x) AS m, max(t.x) AS mx "
        "FROM t, u WHERE t.g = u.k GROUP BY t.g"
    )
    with row_path():
        by_row = db.execute(sql).rows
    assert (1, 0.5, 1.0) in by_row
    assert sorted(db.execute(sql).rows) == sorted(by_row)


@given(batches=st.lists(st.lists(st.one_of(st.none(), NUMBERS), max_size=5), max_size=5))
@settings(max_examples=150, deadline=None)
def test_agg_state_folds_a_batch_as_it_folds_its_rows(batches):
    for func in (AggFunc.MIN, AggFunc.MAX):
        by_row, by_batch = _AggState(func), _AggState(func)
        for batch in batches:
            for value in batch:
                by_row.update(value)
            by_batch.update_batch(batch)
        assert repr(by_batch.result()) == repr(by_row.result())


def test_agg_state_keeps_a_value_behind_a_leading_nan():
    low, high = _AggState(AggFunc.MIN), _AggState(AggFunc.MAX)
    for state in (low, high):
        state.update_batch([1.0])
        state.update_batch([NAN, 0.5, 1.5])
        state.update_batch([None, NAN, 0.25])
    assert (low.result(), high.result()) == (0.25, 1.5)


def _collector() -> RuntimeCollector:
    schema = Schema([Column("t.x", DataType.FLOAT)])
    node = StatsCollectorNode(SeqScanNode("t", "t", schema), CollectorSpec())
    return RuntimeCollector(node, schema, EngineConfig())


@given(batches=BATCHES)
@settings(max_examples=150, deadline=None)
def test_collector_folds_a_batch_as_it_folds_its_rows(batches):
    by_row, by_batch = _collector(), _collector()
    for batch in batches:
        rows = [(value,) for value in batch]
        for row in rows:
            by_row.observe(row)
        by_batch.observe_batch(rows)
    assert repr(by_batch._minmax) == repr(by_row._minmax)


def test_collector_keeps_a_value_behind_a_leading_nan():
    collector = _collector()
    collector.observe_batch([(1.0,)])
    collector.observe_batch([(NAN,), (0.5,), (1.5,)])
    assert collector._minmax["t.x"] == [0.5, 1.5]
