"""MIN / MAX and the collectors' min/max when a NaN leads a run.

Every comparison with NaN is false, so Python's ``min`` / ``max`` keep a
NaN that comes first: ``min([nan, 0.5])`` is NaN.  Folding a batch's own
extreme into the running one therefore dropped the 0.5 that the row path,
comparing value by value against the running extreme, keeps.  The
aggregate's group folds — :func:`minmax_group_fold` over float64 columns,
:func:`object_group_minmax` over Python values — and the collectors' batch
fold make exactly the row path's comparisons.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, EngineConfig
from repro.executor.collector import RuntimeCollector
from repro.executor.agg_kernels import minmax_group_fold, object_group_minmax
from repro.plans.logical import AggFunc
from repro.plans.physical import CollectorSpec, SeqScanNode, StatsCollectorNode
from repro.storage import Column, Schema

from .oracle import row_path
from .reference.iterators import _AggState

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


def _serial(func, groups: list) -> list:
    """Per group, the reference accumulator's MIN or MAX, value by value."""
    states = [_AggState(func) for __ in groups]
    for state, run in zip(states, groups):
        for value in run:
            state.update(value)
    return [state.result() for state in states]


def _group_fold(groups: list, maximum: bool) -> list:
    """The aggregate's fold over the groups' runs interleaved in row order:
    float64 when no value is None, the object fold otherwise."""
    # Round robin over the groups: each run keeps its order.
    rows = sorted(
        ((i, g, v) for g, run in enumerate(groups) for i, v in enumerate(run)),
        key=lambda row: row[:2],
    )
    codes = [g for __, g, __v in rows]
    values = [v for __, __g, v in rows]
    if None in values:
        return object_group_minmax(values, codes, len(groups), maximum)
    return minmax_group_fold(
        np.array(values, dtype=np.float64), np.array(codes), len(groups), maximum
    )


@given(groups=st.lists(st.lists(st.one_of(st.none(), NUMBERS), min_size=1, max_size=6), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_group_folds_fold_as_the_serial_accumulator(groups):
    groups = [[float(v) if type(v) is int else v for v in run] for run in groups]
    for func, maximum in ((AggFunc.MIN, False), (AggFunc.MAX, True)):
        assert repr(_group_fold(groups, maximum)) == repr(_serial(func, groups))


def test_group_folds_keep_a_value_behind_a_leading_nan():
    # A NaN behind the first value never wins a comparison, so the values
    # behind it still do; a NaN in front stays, as min() keeps it.
    for fold in (_group_fold, lambda groups, maximum: _group_fold(
        [[None, *run] for run in groups], maximum
    )):
        assert fold([[1.0, NAN, 0.5, 1.5], [2.0, NAN, 0.25]], False) == [0.5, 0.25]
        assert fold([[1.0, NAN, 0.5, 1.5], [2.0, NAN, 0.25]], True) == [1.5, 2.0]
        assert repr(fold([[NAN, 0.5]], False)) == "[nan]"


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
