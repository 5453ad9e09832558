"""Tests for histograms: builders, estimation, propagation (incl. hypothesis)."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StatisticsError
from repro.stats.histogram import (
    Bucket,
    Histogram,
    HistogramKind,
    build_end_biased,
    build_equi_depth,
    build_equi_width,
    build_histogram,
    build_maxdiff,
    from_sample,
)

ALL_BUILDERS = [build_equi_width, build_equi_depth, build_maxdiff, build_end_biased]

values_strategy = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=400
)


class TestBucket:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(StatisticsError):
            Bucket(low=5, high=4, count=1, distinct=1)

    def test_contains(self):
        b = Bucket(low=0, high=10, count=5, distinct=5)
        assert b.contains(0) and b.contains(10) and b.contains(5)
        assert not b.contains(-1) and not b.contains(11)

    def test_overlap_fraction(self):
        b = Bucket(low=0, high=10, count=5, distinct=5)
        assert b.overlap_fraction(0, 10) == pytest.approx(1.0)
        assert b.overlap_fraction(0, 5) == pytest.approx(0.5)
        assert b.overlap_fraction(20, 30) == 0.0

    def test_singleton_overlap(self):
        b = Bucket(low=5, high=5, count=3, distinct=1)
        assert b.overlap_fraction(0, 10) == 1.0
        assert b.overlap_fraction(6, 10) == 0.0


class TestBuilders:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_empty_input(self, builder):
        hist = builder([], 8)
        assert hist.is_empty

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_total_count_preserved(self, builder):
        values = [1, 1, 2, 5, 5, 5, 9, 100]
        hist = builder(values, 4)
        assert hist.total_count == pytest.approx(len(values))

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_total_distinct_preserved(self, builder):
        values = [1, 1, 2, 5, 5, 5, 9, 100]
        hist = builder(values, 4)
        assert hist.total_distinct == pytest.approx(5)

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_bounds_cover_data(self, builder):
        values = [3, 7, 7, 19, 42]
        hist = builder(values, 3)
        assert hist.min_value == 3
        assert hist.max_value == 42

    def test_equi_depth_balances_counts(self):
        values = list(range(100))
        hist = build_equi_depth(values, 4)
        counts = [b.count for b in hist.buckets]
        assert max(counts) - min(counts) <= 26

    def test_maxdiff_isolates_outlier_frequency(self):
        # One value is hugely more frequent; MaxDiff should separate it.
        values = [5] * 1000 + list(range(10, 60))
        hist = build_maxdiff(values, 8)
        bucket_of_5 = next(b for b in hist.buckets if b.contains(5))
        assert bucket_of_5.distinct <= 2

    def test_maxdiff_exact_when_few_distinct(self):
        values = [1, 1, 2, 3]
        hist = build_maxdiff(values, 10)
        assert len(hist.buckets) == 3
        assert all(b.low == b.high for b in hist.buckets)

    def test_end_biased_singles_out_top_frequencies(self):
        values = [7] * 500 + [13] * 300 + list(range(100, 200))
        hist = build_end_biased(values, 5)
        singletons = [b for b in hist.buckets if b.low == b.high]
        singleton_values = {b.low for b in singletons}
        assert 7 in singleton_values and 13 in singleton_values

    def test_dispatcher(self):
        for kind in HistogramKind:
            hist = build_histogram([1, 2, 3], kind=kind)
            assert hist.kind is kind

    def test_invalid_bucket_count(self):
        with pytest.raises(StatisticsError):
            build_histogram([1], num_buckets=0)

    @given(values_strategy, st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_property_mass_conservation(self, values, buckets):
        for builder in ALL_BUILDERS:
            hist = builder(values, buckets)
            assert hist.total_count == pytest.approx(len(values))
            assert hist.min_value == min(values)
            assert hist.max_value == max(values)

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_buckets_sorted_disjoint(self, values):
        for builder in ALL_BUILDERS:
            hist = builder(values, 8)
            for prev, nxt in zip(hist.buckets, hist.buckets[1:]):
                assert nxt.low >= prev.high


class TestEstimation:
    def _hist(self, values, kind=HistogramKind.MAXDIFF, buckets=16):
        return build_histogram(values, kind=kind, num_buckets=buckets)

    def test_eq_selectivity_exact_histogram(self):
        values = [1] * 50 + [2] * 30 + [3] * 20
        hist = self._hist(values)
        assert hist.selectivity_eq(1) == pytest.approx(0.5)
        assert hist.selectivity_eq(3) == pytest.approx(0.2)

    def test_eq_outside_domain_is_zero(self):
        hist = self._hist([1, 2, 3])
        assert hist.selectivity_eq(99) == 0.0

    def test_range_selectivity_full_domain(self):
        hist = self._hist(list(range(100)))
        assert hist.selectivity_range(None, None) == pytest.approx(1.0)

    def test_range_selectivity_half(self):
        hist = self._hist(list(range(1000)), buckets=32)
        sel = hist.selectivity_range(None, 499)
        assert 0.4 < sel < 0.6

    def test_range_empty(self):
        hist = self._hist(list(range(100)))
        assert hist.selectivity_range(500, 600) == 0.0
        assert hist.selectivity_range(50, 40) == 0.0

    @given(values_strategy, st.integers(min_value=-1500, max_value=1500))
    @settings(max_examples=60, deadline=None)
    def test_property_selectivities_bounded(self, values, probe):
        hist = self._hist(values)
        assert 0.0 <= hist.selectivity_eq(probe) <= 1.0
        assert 0.0 <= hist.selectivity_range(probe, None) <= 1.0
        assert 0.0 <= hist.selectivity_range(None, probe) <= 1.0

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_eq_sums_close_to_one(self, values):
        """Summing eq-selectivity over all distinct values covers the mass."""
        hist = self._hist(values)
        total = sum(hist.selectivity_eq(v) for v in set(values))
        assert total == pytest.approx(1.0, rel=0.05)


class TestPropagation:
    def test_scaled_shrinks_counts(self):
        hist = build_maxdiff(list(range(100)), 8)
        scaled = hist.scaled(0.5)
        assert scaled.total_count == pytest.approx(50)
        assert scaled.total_distinct <= hist.total_distinct

    def test_scaled_clamps_factor(self):
        hist = build_maxdiff(list(range(10)), 4)
        assert hist.scaled(5.0).total_count == pytest.approx(10)
        with pytest.raises(StatisticsError):
            hist.scaled(-1)

    def test_scaled_counts_keeps_distincts(self):
        hist = build_maxdiff([1, 1, 2, 2], 4)
        scaled = hist.scaled_counts(10.0)
        assert scaled.total_count == pytest.approx(40)
        assert scaled.total_distinct == pytest.approx(2)

    def test_restricted_slices_domain(self):
        hist = build_equi_width(list(range(100)), 10)
        restricted = hist.restricted(20, 39)
        assert restricted.min_value >= 20
        assert restricted.max_value <= 39.0 + 1e-9
        assert restricted.total_count == pytest.approx(20, rel=0.3)

    def test_restricted_to_point(self):
        hist = build_maxdiff([1] * 10 + [2] * 20, 4)
        point = hist.restricted(2, 2)
        assert point.total_count == pytest.approx(20)

    def test_join_cardinality_key_fk(self):
        # Key side: values 0..99 once each; FK side: 1000 refs uniform.
        key_hist = build_maxdiff(list(range(100)), 16)
        fk_values = [i % 100 for i in range(1000)]
        fk_hist = build_maxdiff(fk_values, 16)
        estimate = key_hist.join_cardinality(fk_hist)
        assert estimate == pytest.approx(1000, rel=0.35)

    def test_join_cardinality_disjoint_is_zero(self):
        a = build_maxdiff(list(range(0, 50)), 8)
        b = build_maxdiff(list(range(100, 150)), 8)
        assert a.join_cardinality(b) == 0.0

    def test_join_cardinality_empty(self):
        a = build_maxdiff([], 8)
        b = build_maxdiff([1], 8)
        assert a.join_cardinality(b) == 0.0

    @given(values_strategy, values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_join_bounded_by_cross_product(self, left, right):
        a = build_maxdiff(left, 8)
        b = build_maxdiff(right, 8)
        assert 0 <= a.join_cardinality(b) <= len(left) * len(right) * 1.0001


class TestFromSample:
    def test_scaling_to_population(self):
        sample = [1, 2, 3, 4] * 5
        hist = from_sample(sample, population_count=2000)
        assert hist.total_count == pytest.approx(2000)
        assert hist.total_distinct == pytest.approx(4)

    def test_empty_sample(self):
        assert from_sample([], population_count=100).is_empty

    def test_selectivity_from_sampled_histogram(self):
        # A sampled histogram should estimate roughly like a full one.
        import random

        rng = random.Random(11)
        population = [rng.randrange(100) for __ in range(20_000)]
        sample = rng.sample(population, 500)
        sampled_hist = from_sample(sample, population_count=len(population))
        full_hist = build_maxdiff(population, 32)
        for probe in (10, 50, 90):
            assert sampled_hist.selectivity_range(None, probe) == pytest.approx(
                full_hist.selectivity_range(None, probe), abs=0.08
            )
