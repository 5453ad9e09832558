"""Tests for the statistics substrate: sampling, sketches, Zipf, table stats."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StatisticsError
from repro.stats import (
    FlajoletMartin,
    Reservoir,
    ZipfGenerator,
    compute_column_stats,
    compute_table_stats,
    schema_only_stats,
)
from repro.stats.histogram import HistogramKind
from repro.storage import Column, DataType, Schema, Table


class TestReservoir:
    def test_small_input_is_exhaustive(self):
        res = Reservoir(100, seed=1)
        res.extend(range(50))
        assert res.is_exhaustive
        assert sorted(res.sample) == list(range(50))

    def test_capacity_respected(self):
        res = Reservoir(10, seed=1)
        res.extend(range(10_000))
        assert len(res) == 10
        assert not res.is_exhaustive
        assert res.seen == 10_000

    def test_scale_factor(self):
        res = Reservoir(10, seed=1)
        assert res.scale_factor() == 0.0
        res.extend(range(100))
        assert res.scale_factor() == pytest.approx(10.0)

    def test_sample_is_subset_of_input(self):
        res = Reservoir(20, seed=2)
        values = [random.Random(5).randrange(1000) for __ in range(500)]
        res.extend(values)
        assert set(res.sample) <= set(values)

    def test_uniformity_statistical(self):
        # Each of 1000 items should land in a 100-slot reservoir w.p. ~0.1;
        # count how often item 0 is sampled over repeated runs.
        hits = 0
        runs = 300
        for seed in range(runs):
            res = Reservoir(100, seed=seed)
            res.extend(range(1000))
            if 0 in res.sample:
                hits += 1
        assert 0.05 < hits / runs < 0.16

    def test_invalid_capacity(self):
        with pytest.raises(StatisticsError):
            Reservoir(0)

    @given(st.lists(st.integers(), max_size=300), st.integers(min_value=1, max_value=50))
    def test_sample_size_invariant(self, values, capacity):
        res = Reservoir(capacity, seed=7)
        res.extend(values)
        assert len(res) == min(capacity, len(values))


class TestDistinct:
    def test_fm_empty(self):
        assert FlajoletMartin(seed=1).estimate() < 150

    def test_fm_accuracy(self):
        for true_count in (100, 1000, 10_000):
            sketch = FlajoletMartin(num_maps=64, seed=3)
            sketch.add_batch(range(true_count))
            estimate = sketch.estimate()
            assert 0.5 * true_count < estimate < 2.0 * true_count, (
                true_count,
                estimate,
            )

    def test_fm_duplicates_do_not_inflate(self):
        sketch = FlajoletMartin(seed=4)
        for __ in range(10):
            sketch.add_batch(range(500))
        single = FlajoletMartin(seed=4)
        single.add_batch(range(500))
        assert sketch.estimate() == pytest.approx(single.estimate())

    def test_fm_deterministic_given_seed(self):
        a = FlajoletMartin(seed=9)
        b = FlajoletMartin(seed=9)
        a.add_batch(range(1000))
        b.add_batch(range(1000))
        assert a.estimate() == b.estimate()

    def test_fm_invalid_maps(self):
        with pytest.raises(StatisticsError):
            FlajoletMartin(num_maps=0)

    def test_fm_mixed_types(self):
        sketch = FlajoletMartin(seed=2)
        sketch.add_batch(["a", "b", 1, 2.5, ("t", 1)])
        assert sketch.estimate() > 0


class TestZipf:
    def test_uniform_when_z_zero(self):
        gen = ZipfGenerator(10, 0.0, seed=1)
        probs = gen.probabilities()
        assert probs == pytest.approx([0.1] * 10)

    def test_skew_orders_probabilities(self):
        gen = ZipfGenerator(100, 1.0, seed=1)
        probs = gen.probabilities()
        assert probs[0] > probs[1] > probs[50]
        assert probs.sum() == pytest.approx(1.0)

    def test_samples_in_domain(self):
        gen = ZipfGenerator(50, 0.6, seed=2)
        sample = gen.sample(10_000)
        assert sample.min() >= 1
        assert sample.max() <= 50

    def test_skew_concentrates_mass(self):
        flat = ZipfGenerator(1000, 0.0, seed=3).sample(20_000)
        skewed = ZipfGenerator(1000, 1.0, seed=3).sample(20_000)
        import numpy as np

        def top_share(values):
            __, counts = np.unique(values, return_counts=True)
            counts.sort()
            return counts[-10:].sum() / len(values)

        assert top_share(skewed) > 3 * top_share(flat)

    def test_permutation_decouples_value_order(self):
        gen = ZipfGenerator(1000, 1.2, seed=4, permute=True)
        sample = gen.sample(5000)
        import numpy as np

        values, counts = np.unique(sample, return_counts=True)
        most_frequent = values[counts.argmax()]
        assert most_frequent != 1  # with overwhelming probability

    def test_invalid_parameters(self):
        with pytest.raises(StatisticsError):
            ZipfGenerator(0, 1.0)
        with pytest.raises(StatisticsError):
            ZipfGenerator(10, -0.5)
        with pytest.raises(StatisticsError):
            ZipfGenerator(10, 1.0).sample(-1)

    def test_sample_list_returns_ints(self):
        values = ZipfGenerator(10, 0.5, seed=5).sample_list(10)
        assert all(isinstance(v, int) for v in values)


def _make_table(rows):
    schema = Schema(
        [
            Column("id", DataType.INTEGER),
            Column("v", DataType.FLOAT),
            Column("s", DataType.STRING),
        ]
    )
    table = Table("t", schema, page_size=4096)
    table.append_rows(rows)
    return table


class TestTableStats:
    def test_column_stats_numeric(self):
        table = _make_table([(i, float(i % 10), "x") for i in range(100)])
        stats = compute_column_stats(table, "v")
        assert stats.count == 100
        assert stats.distinct == 10
        assert stats.min_value == 0.0
        assert stats.max_value == 9.0
        assert stats.has_histogram

    def test_column_stats_string_no_histogram(self):
        table = _make_table([(i, 0.0, f"s{i % 5}") for i in range(50)])
        stats = compute_column_stats(table, "s")
        assert stats.distinct == 5
        assert not stats.has_histogram
        assert stats.min_value is None

    def test_key_column_marked(self):
        table = _make_table([(i, 0.0, "x") for i in range(10)])
        stats = compute_table_stats(table, key_columns=["id"])
        assert stats.column("id").is_key
        assert not stats.column("v").is_key

    def test_histogram_columns_restriction(self):
        table = _make_table([(i, float(i), "x") for i in range(10)])
        stats = compute_table_stats(table, histogram_columns=["v"])
        assert stats.column("v").has_histogram
        assert not stats.column("id").has_histogram

    def test_scaled_rows(self):
        table = _make_table([(i, float(i), "x") for i in range(100)])
        stats = compute_table_stats(table).scaled_rows(2.0)
        assert stats.row_count == 200
        assert stats.column("id").count == 200

    def test_without_histograms(self):
        table = _make_table([(i, float(i), "x") for i in range(100)])
        stats = compute_table_stats(table).without_histograms()
        assert not stats.column("id").has_histogram
        partial = compute_table_stats(table).without_histograms(["id"])
        assert not partial.column("id").has_histogram
        assert partial.column("v").has_histogram

    def test_mark_updated(self):
        table = _make_table([(1, 1.0, "x")])
        stats = compute_table_stats(table)
        assert not stats.significant_update_activity
        assert stats.mark_updated().significant_update_activity

    def test_schema_only_fallback(self):
        table = _make_table([])
        stats = schema_only_stats(table, assumed_rows=500)
        assert stats.row_count == 500
        assert stats.columns == {}

    def test_histogram_kind_none(self):
        table = _make_table([(i, float(i), "x") for i in range(10)])
        stats = compute_table_stats(table, histogram_kind=None)
        assert not stats.column("v").has_histogram


class TestHistogramKinds:
    def test_serial_class_membership(self):
        assert HistogramKind.MAXDIFF.is_serial_class
        assert HistogramKind.END_BIASED.is_serial_class
        assert not HistogramKind.EQUI_WIDTH.is_serial_class
        assert not HistogramKind.EQUI_DEPTH.is_serial_class
