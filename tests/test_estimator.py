"""Tests for cardinality/selectivity estimation over RelProfiles."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.plans.logical import (
    AndPredicate,
    ColumnExpr,
    CompareOp,
    Comparison,
    ConstExpr,
    FuncExpr,
    InPredicate,
    NotPredicate,
    OrPredicate,
)
from repro.stats.estimator import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    Estimator,
    RelProfile,
    profile_from_table_stats,
)
from repro.stats.histogram import Bucket, Histogram, HistogramKind
from repro.stats.table_stats import ColumnStats, compute_table_stats
from repro.storage import Column, DataType, Schema, Table

from . import eager_estimator

pytestmark = pytest.mark.hashseed


def make_profile(rows=1000, domain=100, alias="t"):
    """A profile for a table with columns a (uniform 0..domain-1) and s."""
    schema = Schema(
        [
            Column("id", DataType.INTEGER),
            Column("a", DataType.INTEGER),
            Column("s", DataType.STRING),
        ]
    )
    table = Table("t", schema, 4096)
    table.append_rows([(i, i % domain, f"s{i % 7}") for i in range(rows)])
    stats = compute_table_stats(table, key_columns=["id"])
    return profile_from_table_stats(stats, alias)


def col(name):
    return ColumnExpr(name)


def const(value):
    return ConstExpr(value)


class TestSelectivity:
    def setup_method(self):
        self.estimator = Estimator()
        self.profile = make_profile()

    def test_eq_with_histogram(self):
        pred = Comparison(CompareOp.EQ, col("t.a"), const(5))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(1 / 100, rel=0.2)

    def test_range_with_histogram(self):
        pred = Comparison(CompareOp.LT, col("t.a"), const(50))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(0.5, abs=0.1)

    def test_ne(self):
        pred = Comparison(CompareOp.NE, col("t.a"), const(5))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(0.99, abs=0.02)

    def test_string_eq_uses_distinct(self):
        pred = Comparison(CompareOp.EQ, col("t.s"), const("s3"))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(1 / 7, rel=0.01)

    def test_parameter_based_uses_defaults(self):
        # The actual value (90) would give 0.9 selectivity; the estimator
        # must ignore it because it came from a host variable.
        pred = Comparison(CompareOp.LT, col("t.a"), const(90), param_based=True)
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(DEFAULT_RANGE_SELECTIVITY)

    def test_udf_uses_defaults(self):
        fn = FuncExpr("f", lambda x: x, (col("t.a"),))
        pred = Comparison(CompareOp.EQ, fn, const(1))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(DEFAULT_EQ_SELECTIVITY)

    def test_unknown_column_uses_defaults(self):
        profile = RelProfile(rows=100, row_bytes=10, columns={}, aliases=frozenset({"t"}))
        pred = Comparison(CompareOp.EQ, col("t.x"), const(1))
        assert self.estimator.selectivity(pred, profile) == DEFAULT_EQ_SELECTIVITY

    def test_in_sums_equalities(self):
        pred = InPredicate(col("t.a"), (1, 2, 3))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(3 / 100, rel=0.2)

    def test_or_combines_independently(self):
        p1 = Comparison(CompareOp.EQ, col("t.a"), const(1))
        p2 = Comparison(CompareOp.EQ, col("t.a"), const(2))
        sel = self.estimator.selectivity(OrPredicate((p1, p2)), self.profile)
        assert sel == pytest.approx(1 - (1 - 0.01) ** 2, rel=0.2)

    def test_and_multiplies(self):
        p1 = Comparison(CompareOp.LT, col("t.a"), const(50))
        p2 = Comparison(CompareOp.GE, col("t.a"), const(0))
        sel = self.estimator.selectivity(AndPredicate((p1, p2)), self.profile)
        assert 0 < sel <= 0.6

    def test_not_complements(self):
        inner = Comparison(CompareOp.LT, col("t.a"), const(50))
        sel_inner = self.estimator.selectivity(inner, self.profile)
        sel_not = self.estimator.selectivity(NotPredicate(inner), self.profile)
        assert sel_not == pytest.approx(1 - sel_inner)

    def test_out_of_domain_range(self):
        pred = Comparison(CompareOp.GT, col("t.a"), const(1000))
        assert self.estimator.selectivity(pred, self.profile) == 0.0

    @given(st.integers(min_value=-50, max_value=150))
    @settings(max_examples=30, deadline=None)
    def test_property_selectivity_bounded(self, value):
        estimator = Estimator()
        profile = make_profile()
        for op in CompareOp:
            pred = Comparison(op, col("t.a"), const(value))
            assert 0.0 <= estimator.selectivity(pred, profile) <= 1.0


class TestApplyPredicates:
    def setup_method(self):
        self.estimator = Estimator()
        self.profile = make_profile()

    def test_rows_scaled(self):
        pred = Comparison(CompareOp.LT, col("t.a"), const(10))
        new_profile, sel = self.estimator.apply_predicates(self.profile, [pred])
        assert new_profile.rows == pytest.approx(self.profile.rows * sel)

    def test_restricted_column_narrowed(self):
        pred = Comparison(CompareOp.LT, col("t.a"), const(10))
        new_profile, __ = self.estimator.apply_predicates(self.profile, [pred])
        stats = new_profile.column("t.a")
        assert stats.max_value <= 10
        assert stats.distinct <= 12

    def test_eq_pins_distinct_to_one(self):
        pred = Comparison(CompareOp.EQ, col("t.a"), const(5))
        new_profile, __ = self.estimator.apply_predicates(self.profile, [pred])
        assert new_profile.column("t.a").distinct == 1.0

    def test_other_columns_scaled(self):
        pred = Comparison(CompareOp.EQ, col("t.a"), const(5))
        new_profile, __ = self.estimator.apply_predicates(self.profile, [pred])
        id_stats = new_profile.column("t.id")
        assert id_stats.count == pytest.approx(new_profile.rows)
        assert id_stats.distinct <= new_profile.rows

    def test_independence_assumption_compounds(self):
        # Two predicates on the same uniform column multiply, illustrating
        # the correlation blindness the paper exploits.
        p1 = Comparison(CompareOp.LT, col("t.a"), const(50))
        p2 = Comparison(CompareOp.GE, col("t.a"), const(0))
        __, sel = self.estimator.apply_predicates(self.profile, [p1, p2])
        s1 = self.estimator.selectivity(p1, self.profile)
        s2 = self.estimator.selectivity(p2, self.profile)
        assert sel == pytest.approx(s1 * s2, rel=0.01)

    def test_rows_never_below_floor(self):
        preds = [
            Comparison(CompareOp.EQ, col("t.a"), const(1)),
            Comparison(CompareOp.EQ, col("t.a"), const(2)),
            Comparison(CompareOp.EQ, col("t.a"), const(3)),
        ]
        new_profile, __ = self.estimator.apply_predicates(self.profile, preds)
        assert new_profile.rows >= 1.0


class TestJoinEstimation:
    def setup_method(self):
        self.estimator = Estimator()

    def test_key_fk_join_close_to_fk_size(self):
        key_side = make_profile(rows=100, domain=100, alias="d")
        fk_side = make_profile(rows=5000, domain=100, alias="f")
        __, card = self.estimator.join(
            key_side, fk_side, [("d.a", "f.a")]
        )
        assert card == pytest.approx(5000, rel=0.5)

    def test_join_bounded_by_cross_product(self):
        a = make_profile(rows=50, alias="a")
        b = make_profile(rows=70, alias="b")
        __, card = self.estimator.join(a, b, [("a.a", "b.a")])
        assert card <= 50 * 70

    def test_multiple_key_pairs_reduce_cardinality(self):
        a = make_profile(rows=1000, alias="a")
        b = make_profile(rows=1000, alias="b")
        __, single = self.estimator.join(a, b, [("a.a", "b.a")])
        __, double = self.estimator.join(
            a, b, [("a.a", "b.a"), ("a.id", "b.id")]
        )
        assert double < single

    def test_cross_join(self):
        a = make_profile(rows=10, alias="a")
        b = make_profile(rows=20, alias="b")
        __, card = self.estimator.join(a, b, [])
        assert card == pytest.approx(200)

    def test_residual_predicates_reduce(self):
        a = make_profile(rows=100, alias="a")
        b = make_profile(rows=100, alias="b")
        residual = [Comparison(CompareOp.LT, col("a.a"), const(10))]
        __, with_residual = self.estimator.join(a, b, [("a.id", "b.id")], residual)
        __, without = self.estimator.join(a, b, [("a.id", "b.id")])
        assert with_residual < without

    def test_joined_profile_merges_columns(self):
        a = make_profile(rows=100, alias="a")
        b = make_profile(rows=100, alias="b")
        joined, __ = self.estimator.join(a, b, [("a.id", "b.id")])
        assert joined.column("a.a") is not None
        assert joined.column("b.a") is not None
        assert joined.aliases == frozenset({"a", "b"})
        assert joined.row_bytes == a.row_bytes + b.row_bytes


class TestGroupCount:
    def test_no_groups_is_one(self):
        estimator = Estimator()
        assert estimator.group_count(make_profile(), []) == 1.0

    def test_single_column(self):
        estimator = Estimator()
        profile = make_profile(rows=1000, domain=25)
        assert estimator.group_count(profile, ["t.a"]) == pytest.approx(25, rel=0.1)

    def test_product_capped_by_rows(self):
        estimator = Estimator()
        profile = make_profile(rows=50, domain=100)
        groups = estimator.group_count(profile, ["t.a", "t.id"])
        assert groups <= 50


class TestRelProfile:
    def test_pages(self):
        profile = RelProfile(rows=1000, row_bytes=40)
        assert profile.pages(4096) == pytest.approx(-(-1000 // (4096 // 40)))
        assert RelProfile(rows=0, row_bytes=40).pages(4096) == 0.0

    def test_distinct_default(self):
        profile = RelProfile(rows=1000, row_bytes=40)
        assert profile.distinct_of("t.x") == pytest.approx(100)

    def test_profile_from_table_stats_qualifies(self):
        profile = make_profile(alias="q")
        assert "q.a" in profile.columns
        assert profile.column("q.a").name == "q.a"


# ----------------------------------------------------------------------
# Lazy column derivation == the eager reference (tests/eager_estimator.py)
# ----------------------------------------------------------------------

_OPS = (CompareOp.EQ, CompareOp.NE, CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE)
#: Every generated profile carries ``s.k``, so each join sees one name on
#: both sides; joining the same alias twice duplicates all of them.
_NAME_POOL = ("a.k", "a.v", "b.k", "b.v", "c.k", "c.v", "s.k", "z.missing")


def _canonical(columns):
    """Columns as comparable values, in key order (Histogram has no __eq__)."""
    return [
        (
            name,
            stats._replace(histogram=None),
            None if stats.histogram is None
            else (stats.histogram.kind, stats.histogram.buckets),
        )
        for name, stats in columns.items()
    ]


def _draw_column(draw, name, rows, histograms):
    bounds = sorted(draw(st.lists(st.integers(-40, 40), min_size=2, max_size=5, unique=True)))
    histogram = None
    if histograms and draw(st.booleans()):
        histogram = Histogram(
            HistogramKind.MAXDIFF,
            [
                Bucket(
                    float(low), float(high),
                    draw(st.floats(0.0, 500.0, allow_nan=False)),
                    draw(st.floats(0.0, 50.0, allow_nan=False)),
                )
                for low, high in zip(bounds, bounds[1:])
            ],
        )
    known_range = draw(st.booleans())
    return ColumnStats(
        name=name,
        dtype=DataType.INTEGER,
        count=rows,
        distinct=draw(st.one_of(st.just(0.0), st.floats(1.0, 2000.0, allow_nan=False))),
        min_value=float(bounds[0]) if known_range else None,
        max_value=float(bounds[-1]) if known_range else None,
        histogram=histogram,
    )


def _draw_profile(draw, histograms):
    alias = draw(st.sampled_from("abc"))
    rows = float(draw(st.integers(1, 5000)))
    names = [f"{alias}.k", f"{alias}.v", "s.k"]
    return RelProfile(
        rows=rows,
        row_bytes=24.0,
        columns={name: _draw_column(draw, name, rows, histograms) for name in names},
        aliases=frozenset({alias}),
    )


def _draw_predicates(draw):
    preds = []
    for __ in range(draw(st.integers(0, 3))):
        column = ColumnExpr(draw(st.sampled_from(_NAME_POOL)))
        other = draw(st.one_of(
            st.integers(-50, 50).map(ConstExpr),
            st.just(ConstExpr("text")),
            st.sampled_from(_NAME_POOL).map(ColumnExpr),
        ))
        preds.append(Comparison(draw(st.sampled_from(_OPS)), column, other))
    return preds


class TestLazyColumnsMatchEager:
    @given(data=st.data(), histograms=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_random_chains(self, data, histograms):
        draw = data.draw
        estimator = Estimator()
        eager = _draw_profile(draw, histograms)
        # ``full`` has every column read at every step; ``sparse`` only the
        # drawn few (plus whatever the estimator itself consults).
        full = sparse = eager
        for __ in range(draw(st.integers(1, 6))):
            if draw(st.booleans()):
                preds = _draw_predicates(draw)
                eager, expected = eager_estimator.apply_predicates(estimator, eager, preds)
                full, got = estimator.apply_predicates(full, preds)
                sparse, __ = estimator.apply_predicates(sparse, preds)
            else:
                other = _draw_profile(draw, histograms)
                pairs = [
                    (draw(st.sampled_from(_NAME_POOL)), draw(st.sampled_from(_NAME_POOL)))
                    for __ in range(draw(st.integers(0, 2)))
                ]
                residual = _draw_predicates(draw)
                if draw(st.booleans()):
                    eager, expected = eager_estimator.join(estimator, eager, other, pairs, residual)
                    full, got = estimator.join(full, other, pairs, residual)
                    sparse, __ = estimator.join(sparse, other, pairs, residual)
                else:
                    eager, expected = eager_estimator.join(estimator, other, eager, pairs, residual)
                    full, got = estimator.join(other, full, pairs, residual)
                    sparse, __ = estimator.join(other, sparse, pairs, residual)
            assert got == expected
            assert (full.rows, full.row_bytes, full.aliases) == (
                eager.rows, eager.row_bytes, eager.aliases
            )
            assert _canonical(dict(full.columns)) == _canonical(eager.columns)
            for name in draw(st.lists(st.sampled_from(_NAME_POOL), max_size=2)):
                assert (name in sparse.columns) == (name in eager.columns)
                sparse.column(name)

        assert list(sparse.columns) == list(eager.columns)
        assert len(sparse.columns) == len(eager.columns)
        assert _canonical(sparse.columns) == _canonical(eager.columns)
        revived = pickle.loads(pickle.dumps(sparse))
        assert type(revived.columns) is dict
        assert _canonical(revived.columns) == _canonical(eager.columns)
        if not histograms:
            # Without histograms ColumnStats compare by value, so the
            # mapping must equal the dict it replaced, both ways round.
            assert sparse.columns == eager.columns
            assert eager.columns == sparse.columns
            assert revived == sparse == eager

    def test_columns_derived_on_first_read_only(self):
        estimator = Estimator()
        a = make_profile(rows=100, alias="a")
        b = make_profile(rows=100, alias="b")
        joined, __ = estimator.join(a, b, [("a.id", "b.id")])
        filtered, __ = estimator.apply_predicates(
            joined, [Comparison(CompareOp.LT, col("a.a"), const(10))]
        )
        before = estimator.column_stats_derived
        first = filtered.column("b.a")
        assert estimator.column_stats_derived == before + 2  # join, then filter
        assert filtered.column("b.a") is first
        assert filtered.column("z.missing") is None
        assert estimator.column_stats_derived == before + 2
