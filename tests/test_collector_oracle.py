"""The one-sampler collector against the collector it replaced.

``reference_collector`` is the previous implementation, verbatim: one
same-seeded ``Reservoir`` (a ``randrange`` per row) per histogram column,
min/max on every numeric column, every value hashed into the sketches.  For
random schemas, row streams, statistic specs and any interleaving of the two
entry points, the rebuilt collector must report the same statistics and leave
the shared slot schedule's RNG where a per-row replay leaves it, and its
sampler must survive pickling — under any ``PYTHONHASHSEED`` (the sketch
hashes strings, and its de-duplication iterates a set).
"""

from __future__ import annotations

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import DataType, EngineConfig
from repro.executor.collector import RuntimeCollector
from repro.plans.physical import CollectorSpec, SeqScanNode, StatsCollectorNode
from repro.stats.sampling import Reservoir, RowSampler
from repro.storage import Column, Schema

from . import reference_collector as reference

pytestmark = pytest.mark.hashseed

_VALUES = {
    DataType.INTEGER: st.integers(-50, 50),
    DataType.FLOAT: st.floats(-8, 8, allow_nan=False).map(lambda x: round(x, 1)),
    DataType.STRING: st.sampled_from(["", "a", "b", "ab", "FRANCE", "GERMANY"]),
}
_ENTRY_POINTS = ("observe", "observe_batch")


@st.composite
def collector_cases(draw):
    dtypes = draw(st.lists(st.sampled_from(list(_VALUES)), min_size=1, max_size=5))
    names = [f"t.c{i}" for i in range(len(dtypes))]
    numeric = [n for n, d in zip(names, dtypes) if d.is_numeric]
    rows = draw(
        st.lists(st.tuples(*(_VALUES[d] for d in dtypes)), max_size=150)
    )
    spec = CollectorSpec(
        histogram_columns=tuple(
            draw(st.lists(st.sampled_from(numeric), unique=True, max_size=4))
            if numeric else ()
        ),
        distinct_column_sets=tuple(
            tuple(cols) for cols in draw(
                st.lists(
                    st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=2),
                    unique_by=tuple, max_size=3,
                )
            )
        ),
        minmax_columns=draw(
            st.none() | st.lists(st.sampled_from(names), unique=True).map(tuple)
        ),
    )
    # Cut the stream into runs, each delivered through one entry point.
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=8)))
    chunks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
    steps = [(draw(st.sampled_from(_ENTRY_POINTS)), chunk) for chunk in chunks]
    config = EngineConfig(
        reservoir_sample_size=draw(st.integers(1, 24)), seed=draw(st.integers(0, 99))
    )
    schema = Schema([Column(n, d) for n, d in zip(names, dtypes)])
    return schema, spec, config, steps


def _feed(collector, steps) -> None:
    for entry_point, chunk in steps:
        if entry_point == "observe":
            for row in chunk:
                collector.observe(row)
        else:
            collector.observe_batch(chunk)


def replayed(capacity: int, seed: int, rows: int) -> random.Random:
    """The RNG after Algorithm R's ``randrange(seen)`` for each of the
    first ``rows`` rows past ``capacity``."""
    rng = random.Random(seed)
    for seen in range(capacity + 1, rows + 1):
        rng.randrange(seen)
    return rng


def assert_schedule_replays(sampler: RowSampler) -> None:
    """The sampler's shared schedule has decided at least its rows, and its
    RNG stands where a per-row replay to the schedule's frontier leaves it."""
    schedule = sampler._schedule
    assert schedule.frontier >= sampler.seen
    replay = replayed(sampler.capacity, sampler.seed, schedule.frontier)
    assert schedule.rng.getstate() == replay.getstate()


def _tracked(spec, schema) -> set[str]:
    numeric = {c.name for c in schema.columns if c.dtype.is_numeric}
    if spec.minmax_columns is None:
        return numeric
    return numeric & {*spec.minmax_columns, *spec.histogram_columns}


def assert_same_statistics(new, old, tracked) -> None:
    assert new.row_count == old.row_count
    assert new.row_bytes == old.row_bytes
    assert new.histograms.keys() == old.histograms.keys()
    for column, histogram in new.histograms.items():
        assert histogram.kind == old.histograms[column].kind
        assert histogram.buckets == old.histograms[column].buckets
    assert new.distincts == old.distincts
    assert new.minmax == {k: v for k, v in old.minmax.items() if k in tracked}


_IMPLEMENTATIONS = (RuntimeCollector, reference.RuntimeCollector)


def _pair(schema, spec, config):
    node = StatsCollectorNode(SeqScanNode("t", "t", schema), spec)
    return [cls(node, schema, config) for cls in _IMPLEMENTATIONS]


@settings(max_examples=300, deadline=None)
@given(collector_cases())
def test_collector_equals_reference_on_any_interleaving(case):
    schema, spec, config, steps = case
    new, old = _pair(schema, spec, config)
    _feed(new, steps)
    _feed(old, steps)
    assert_same_statistics(new.finalize(), old.finalize(), _tracked(spec, schema))
    for __, reservoir in old._reservoirs.values():
        assert new._sampler.seen == reservoir.seen
    assert_schedule_replays(new._sampler)
    work = new.finalize().work
    assert work.minmax_columns_tracked == len(_tracked(spec, schema))
    if spec.histogram_columns:
        # One draw per row past capacity — per collector, not per histogram.
        assert work.reservoir_draws == max(
            0, new._sampler.seen - config.reservoir_sample_size
        )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40), st.integers(0, 2**32),
    st.lists(st.integers(0, 300), max_size=6), st.data(),
)
def test_row_sampler_replays_randrange(capacity, seed, batch_sizes, data):
    """``offer`` makes exactly the draws ``randrange(seen)`` per row would."""
    sampler = Reservoir(capacity, seed=seed)
    old = reference.Reservoir(capacity, seed=seed)
    offset = 0
    for size in batch_sizes:
        values = list(range(offset, offset + size))
        offset += size
        if data.draw(st.booleans()):
            sampler = pickle.loads(pickle.dumps(sampler))
        sampler.add_batch(values)
        for value in values:
            old.add(value)
        assert sampler.sample == old.sample
        assert sampler.seen == old.seen
        assert_schedule_replays(sampler)
    assert sampler.draws == max(0, offset - capacity)


def test_row_sampler_crosses_powers_of_two():
    """The inlined draw widens ``getrandbits`` exactly where ``bit_length``
    does: drive ``seen`` across 2**k boundaries one row at a time."""
    sampler = RowSampler(3, seed=7)
    rng = random.Random(7)
    for seen in range(1, 1100):
        fill, hits = sampler.offer(1)
        if seen <= 3:
            assert (fill, hits) == (1, [])
            continue
        slot = rng.randrange(seen)
        assert fill == 0
        assert hits == ([(0, slot)] if slot < 3 else [])
    assert_schedule_replays(sampler)
    assert replayed(3, 7, sampler.seen).getstate() == rng.getstate()


def test_threads_share_one_schedule():
    """Samplers of one ``(capacity, seed)``, fed different batch splits on
    more threads than cores, all extend the one schedule; each keeps the
    sample a per-row replay keeps.  Small batches and a dense reservoir
    keep the threads at the schedule's frontier; every round is a fresh
    seed, so a fresh schedule."""
    capacity, total = 200, 6_000
    values = list(range(total))

    def feed(sampler: Reservoir, sizes: random.Random, barrier) -> None:
        barrier.wait(timeout=60)
        offset = 0
        while offset < total:
            size = sizes.randint(1, 40)
            sampler.add_batch(values[offset : offset + size])
            offset += size

    for seed in range(918_273, 918_281):
        want = reference.Reservoir(capacity, seed=seed)
        want.extend(values)
        samplers = [Reservoir(capacity, seed=seed) for __ in range(4)]
        barrier = threading.Barrier(len(samplers))
        threads = [
            threading.Thread(target=feed, args=(sampler, random.Random(i), barrier))
            for i, sampler in enumerate(samplers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(sampler._schedule is samplers[0]._schedule for sampler in samplers)
        for sampler in samplers:
            assert sampler.sample == want.sample
            assert sampler.seen == total and sampler.draws == total - capacity
            assert_schedule_replays(sampler)
