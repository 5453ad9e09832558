"""Hash lanes: what the distinct sketches read instead of values and tuples.

:meth:`Chunk.hashes` gives one int64 per row — ``hash(value)`` for one
position, ``hash(tuple)`` for several, the latter CPython's tuple combine
over per-column lanes — from every kind of source: a table's heap (its
column store's cached lane, whatever the column's encoding), an owned row
list, and the appended sources of :meth:`Chunk.concat`.  Python's own
``hash`` over the chunk's built rows is the oracle.  The collector feeding
those lanes to its sketches must end with the bitmaps, exact sets and
estimates of ``tests/reference_collector.py``, including when the exact set
is dropped at the first batch (no key built at all) and mid-stream.  Under
any ``PYTHONHASHSEED``: strings hash by it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, EngineConfig
from repro.executor import collector as collector_module
from repro.executor.chunk import Chunk, as_chunk
from repro.executor.collector import RuntimeCollector
from repro.plans.physical import CollectorSpec, SeqScanNode, StatsCollectorNode
from repro.storage import Column, Schema

from . import reference_collector as reference

pytestmark = pytest.mark.hashseed

_BIG = 2**61 - 1  # the modulus of CPython's int hash
_NAN = st.builds(float, st.just("nan"))  # a new NaN object per draw

#: Column kinds -> (declared type, values).  With a dictionary budget of 4,
#: they reach every encoding: int64 stored as int32 ("narrow"), int64, a
#: dictionary, a dictionary overflowed to objects, float64 with and without
#: a NaN, and objects from the start.
_KINDS = {
    "narrow": (DataType.INTEGER, st.sampled_from([-1, -2, 0, 1, 7, 2**31 - 1])),
    "wide": (
        DataType.INTEGER,
        st.sampled_from([_BIG, _BIG + 1, _BIG - 1, -_BIG, -_BIG - 1, -_BIG + 1, -1, -2]),
    ),
    "dictionary": (DataType.STRING, st.sampled_from(["a", "b", "", None])),
    "overflowed": (DataType.STRING, st.text(max_size=3)),
    "float": (
        DataType.FLOAT,
        st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0, 2.5, float("inf"), -float("inf")]),
    ),
    "nan": (DataType.FLOAT, _NAN | st.sampled_from([0.0, -0.0, 3.0])),
    "object": (
        DataType.INTEGER,
        st.sampled_from([True, False, 1, 1.0, -1, -2, None, "x", 2**64, -(2**64)]) | _NAN,
    ),
}


def expected(chunk: Chunk, positions: tuple) -> list[int]:
    rows = chunk.rows()
    if len(positions) == 1:
        return [hash(row[positions[0]]) for row in rows]
    return [hash(tuple(row[p] for p in positions)) for row in rows]


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4))
    rows = draw(
        st.lists(st.tuples(*(_KINDS[k][1] for k in kinds)), min_size=1, max_size=40)
    )
    positions = tuple(
        draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=len(kinds) + 1))
    )
    return kinds, rows, positions


def ids_into(draw, rows: list, n: int):
    return np.asarray(
        draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n)), np.int64
    )


@given(case=tables(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_heap_lanes_are_pythons_hash(case, data):
    kinds, rows, positions = case
    db = Database(EngineConfig(batch_size=8))
    db.create_table("h", [(f"c{i}", _KINDS[k][0]) for i, k in enumerate(kinds)])
    db.load_rows("h", rows)
    table = db.table("h")
    store = table.column_store(dictionary_max=4)
    heap = as_chunk(table.rows, len(kinds), heap=store)
    for chunk in (heap, heap.take(ids_into(data.draw, rows, data.draw(st.integers(0, 50))))):
        assert chunk.hashes(positions).tolist() == expected(chunk, positions)
    # The lane is the store's own, once: a second read gathers from it.
    for position in set(positions):
        assert store.hashes(position) is store.hashes(position)


@given(case=tables(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_owned_and_concatenated_lanes_are_pythons_hash(case, data):
    """A build side every batch shares, per-batch probe rows, and the
    concatenation the collector receives."""
    kinds, build, positions = case
    width = len(kinds)
    shared = as_chunk(build, width)
    assert shared.hashes(positions).tolist() == expected(shared, positions)
    batches = []
    for __ in range(data.draw(st.integers(1, 3))):
        probe = data.draw(
            st.lists(st.tuples(*(_KINDS[k][1] for k in kinds)), min_size=1, max_size=6)
        )
        n = data.draw(st.integers(0, 10))
        batch = Chunk.join(
            shared, ids_into(data.draw, build, n),
            as_chunk(probe, width), ids_into(data.draw, probe, n),
        )
        both = positions + tuple(p + width for p in positions)
        assert batch.hashes(both).tolist() == expected(batch, both)
        batches.append(batch)
    whole = Chunk.concat(batches, 2 * width)
    both = tuple(reversed(positions)) + tuple(p + width for p in positions)
    assert whole.hashes(both).tolist() == expected(whole, both)


# ----------------------------------------------------------------------
# The collector's sketches against the reference collector
# ----------------------------------------------------------------------

_SCHEMA = Schema([
    Column("t.k", DataType.INTEGER), Column("t.s", DataType.STRING),
    Column("t.f", DataType.FLOAT),
])
_SPEC = CollectorSpec(distinct_column_sets=(("t.k",), ("t.k", "t.s"), ("t.s", "t.f")))


def _rows(start: int, stop: int) -> list[tuple]:
    """Distinct ``(k, s)`` pairs; ``f`` repeats, ``-1`` / ``-2`` share a hash."""
    return [(k - 2, f"s{k % 37}", float(k % 5)) for k in range(start, stop)]


def _collectors():
    node = StatsCollectorNode(SeqScanNode("t", "t", _SCHEMA), _SPEC)
    config = EngineConfig(seed=5)
    return RuntimeCollector(node, _SCHEMA, config), reference.RuntimeCollector(
        node, _SCHEMA, config
    )


def assert_same_sketches(new, old) -> None:
    assert new.finalize().distincts == old.finalize().distincts
    for cols, (__, sketch) in new._sketches.items():
        theirs = old._sketches[cols][1]
        assert sketch._sketch._bitmaps == theirs._sketch._bitmaps, cols
        assert sketch._exact == theirs._exact, cols
        assert sketch.estimate() == theirs.estimate(), cols


def _probe(rows: list) -> Chunk:
    """``rows`` as a join's chunk: a source read through an index vector."""
    return as_chunk(rows, 3).take(np.arange(len(rows), dtype=np.int64))


def test_exact_set_crossed_by_the_first_batch_builds_no_key(monkeypatch):
    new, old = _collectors()
    rows = _rows(0, 3000)
    with monkeypatch.context() as patch:
        # ``("t.s", "t.f")`` has 185 distinct keys and keeps its exact set;
        # the two others cross 1 024 at once and must build none.
        built = []
        keys = collector_module._keys
        patch.setattr(
            collector_module, "_keys",
            lambda chunk, positions: built.append(positions) or keys(chunk, positions),
        )
        new.observe_batch(_probe(rows))
    old.observe_batch(rows)
    assert built == [(1, 2)]
    assert new._sketches["t.k",][1]._exact is None
    assert new._sketches["t.s", "t.f"][1]._exact is not None
    assert_same_sketches(new, old)


def test_exact_set_crossed_mid_stream():
    new, old = _collectors()
    for start in range(0, 2400, 300):
        rows = _rows(start, start + 300)
        # Alternate chunks and row lists: one feed for both.
        new.observe_batch(_probe(rows) if start % 600 else rows)
        old.observe_batch(rows)
        assert_same_sketches(new, old)
    assert new._sketches["t.k",][1]._exact is None
