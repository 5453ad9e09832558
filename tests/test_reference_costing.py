"""Costing without objects, against the formulas it replaced.

``tests/reference_costing.py`` is the previous code, verbatim: frozen
dataclass cost records whose ``hash_join`` adds a build and a probe record,
histogram arithmetic through per-bucket ``Bucket`` methods and builtin
``max`` / ``min``, and ``_scale_column`` through ``dataclasses.replace``.
The enumerator's shared-annotator oracle (``tests/exhaustive_dp.py``)
cannot see a last-bit drift in these — both sides would drift together —
so every result here is compared by ``repr``: equal floats, signed zeros
included.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro import DataType, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.errors import StatisticsError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.dp import JoinEnumerator
from repro.plans.printer import explain
from repro.stats import estimator as estimator_module
from repro.stats.histogram import Bucket, Histogram, HistogramKind
from repro.stats.table_stats import ColumnStats
from repro.workloads.tpcd import query_by_name

from . import reference_costing as reference
from .test_dp_pruning import generated_statements

pytestmark = pytest.mark.hashseed

# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------

#: Bucket bounds from 1e-12 to 1e12 in magnitude, either sign, and both zeros.
_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.builds(
        lambda magnitude, negative: -magnitude if negative else magnitude,
        st.floats(1e-12, 1e12),
        st.booleans(),
    ),
)
_AMOUNTS = st.one_of(st.just(0.0), st.floats(1e-12, 1e6), st.integers(0, 50))


@st.composite
def bucket_rows(draw) -> list[tuple]:
    """Sorted, non-overlapping ``(low, high, count, distinct)`` rows: spans,
    singletons, zero-width spans between equal (or opposite-zero) points,
    neighbours that touch and neighbours with a gap — or none at all."""
    points = sorted(draw(st.lists(_POINTS, max_size=9)))
    rows, i = [], 0
    while i < len(points):
        span = draw(st.integers(0, 2))
        high = points[min(i + span, len(points) - 1)]
        rows.append((points[i], high, draw(_AMOUNTS), draw(_AMOUNTS)))
        step = span + draw(st.integers(0, 1))  # 0 more: the next one touches
        i += max(step, 1)
    return rows


def both(rows: list[tuple]) -> tuple[Histogram, reference.Histogram]:
    kind = HistogramKind.MAXDIFF
    return (
        Histogram(kind, [Bucket(*row) for row in rows]),
        reference.Histogram(kind, [reference.Bucket(*row) for row in rows]),
    )


def shown(hist) -> str:
    """Everything a histogram holds, as text that tells -0.0 from 0.0."""
    return repr((
        hist.kind,
        [(b.low, b.high, b.count, b.distinct) for b in hist.buckets],
        hist.total_count,
        hist.total_distinct,
        hist.is_empty,
        hist.min_value,
        hist.max_value,
    ))


def _range_ends(draw, rows) -> tuple:
    candidates = [None, *(value for row in rows for value in row[:2])]
    return tuple(
        draw(st.one_of(st.sampled_from(candidates), _POINTS)) for __ in range(2)
    )


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


class TestHistogramArithmetic:
    @given(bucket_rows(), bucket_rows())
    @settings(max_examples=400, deadline=None)
    def test_join_cardinality(self, left, right):
        (new_l, ref_l), (new_r, ref_r) = both(left), both(right)
        assert shown(new_l) == shown(ref_l)
        assert repr(new_l.join_cardinality(new_r)) == repr(ref_l.join_cardinality(ref_r))
        assert repr(new_r.join_cardinality(new_l)) == repr(ref_r.join_cardinality(ref_l))

    @given(
        bucket_rows(),
        st.one_of(st.sampled_from([0.0, 1.0, 1e-12, 0.5]), st.floats(0.0, 2.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_scaled(self, rows, factor):
        new, ref = both(rows)
        assert shown(new.scaled(factor)) == shown(ref.scaled(factor))

    @given(bucket_rows(), st.one_of(st.just(0.0), st.floats(1e-12, 1e6)))
    @settings(max_examples=300, deadline=None)
    def test_scaled_counts(self, rows, factor):
        new, ref = both(rows)
        assert shown(new.scaled_counts(factor)) == shown(ref.scaled_counts(factor))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_restricted(self, data):
        rows = data.draw(bucket_rows())
        low, high = _range_ends(data.draw, rows)
        new, ref = both(rows)
        assert shown(new.restricted(low, high)) == shown(ref.restricted(low, high))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_derived_histograms_chain(self, data):
        """Each derived histogram is the input of the next operation."""
        new, ref = both(data.draw(bucket_rows()))
        other_new, other_ref = both(data.draw(bucket_rows()))
        for __ in range(3):
            op = data.draw(st.sampled_from(["scaled", "scaled_counts", "restricted"]))
            if op == "restricted":
                args = _range_ends(data.draw, [(b.low, b.high) for b in new.buckets])
            else:
                args = (data.draw(st.floats(0.0, 3.0)),)
            new, ref = getattr(new, op)(*args), getattr(ref, op)(*args)
            assert shown(new) == shown(ref)
            assert repr(new.join_cardinality(other_new)) == repr(
                ref.join_cardinality(other_ref)
            )

    def test_derived_histograms_skip_the_order_check(self, monkeypatch):
        """``scaled`` / ``scaled_counts`` / ``restricted`` keep every bucket
        inside its parent's bounds: they build no Bucket and re-check no
        order; the constructor (build_histogram, user input) still does."""
        hist = Histogram(HistogramKind.MAXDIFF, [Bucket(0.0, 1.0, 4.0, 2.0)])

        def refuse(*args):
            raise AssertionError("a derived histogram went through __init__")

        monkeypatch.setattr(Histogram, "__init__", refuse)
        monkeypatch.setattr(Bucket, "__init__", refuse)
        for derived in (hist.scaled(0.5), hist.scaled_counts(3.0), hist.restricted(0.5, 2)):
            assert isinstance(derived, Histogram) and not derived.is_empty
        monkeypatch.undo()
        with pytest.raises(StatisticsError):
            Histogram(HistogramKind.MAXDIFF, [Bucket(2.0, 3.0, 1, 1), Bucket(0.0, 1.0, 1, 1)])


# ----------------------------------------------------------------------
# Column statistics and cost records
# ----------------------------------------------------------------------


@st.composite
def column_stats(draw) -> tuple[ColumnStats, reference.ColumnStats]:
    histogram = draw(st.none() | bucket_rows())
    new_hist, ref_hist = both(histogram) if histogram is not None else (None, None)
    fields = dict(
        name="t.c",
        dtype=DataType.FLOAT,
        count=draw(_AMOUNTS),
        distinct=draw(_AMOUNTS),
        min_value=draw(st.none() | _POINTS),
        max_value=draw(st.none() | _POINTS),
        is_key=draw(st.booleans()),
        observed=draw(st.booleans()),
    )
    return (
        ColumnStats(histogram=new_hist, **fields),
        reference.ColumnStats(histogram=ref_hist, **fields),
    )


def stats_shown(stats) -> str:
    hist = stats.histogram
    return repr((
        stats.name, stats.dtype, stats.count, stats.distinct, stats.min_value,
        stats.max_value, stats.is_key, stats.observed, stats.has_histogram,
        None if hist is None else shown(hist),
    ))


@given(
    column_stats(),
    st.one_of(st.sampled_from([0.0, 1.0, 0.25]), st.floats(0.0, 2.0)),
    _AMOUNTS,
)
@settings(max_examples=400, deadline=None)
def test_scale_column(pair, scale, new_rows):
    new, ref = pair
    ours = estimator_module._scale_column(new, scale, new_rows)
    theirs = reference._scale_column(ref, scale, new_rows)
    assert stats_shown(ours) == stats_shown(theirs)
    assert (ours is new) == (theirs is ref)
    assert stats_shown(new.renamed("u.c")) == stats_shown(ref.renamed("u.c"))


_ROWS = st.one_of(st.integers(0, 10**7), st.floats(0.0, 1e9))


def cost_shown(cost, params) -> str:
    return repr((dataclasses.astuple(cost) if dataclasses.is_dataclass(cost)
                 else tuple(cost), cost.total_units(params)))


@pytest.fixture(scope="module")
def cost_models():
    config = EngineConfig()
    return CostModel(config), reference.CostModel(config)


@given(
    build_rows=_ROWS, build_pages=_ROWS, probe_rows=_ROWS, probe_pages=_ROWS,
    output_rows=_ROWS,
    grant=st.one_of(st.floats(0.0, 2.5), st.integers(0, 3)),
)
@settings(max_examples=500, deadline=None)
def test_hash_join_costs(cost_models, build_rows, build_pages, probe_rows,
                         probe_pages, output_rows, grant):
    """Grants from nothing to 2.5x the one-pass need: both sides of the
    spill boundary, and exactly on it."""
    new, ref = cost_models
    need = new.config.hash_fudge_factor * max(1.0, build_pages)
    memory = grant * need if isinstance(grant, float) else [need, 2, 1, 0][grant]
    args = (build_rows, build_pages, probe_rows, probe_pages, output_rows, memory)
    assert new.hash_join_spill_fraction(build_pages, memory) == (
        ref.hash_join_spill_fraction(build_pages, memory)
    )
    params = new.params
    assert cost_shown(new.hash_join(*args), params) == cost_shown(ref.hash_join(*args), params)
    build_args = (build_rows, build_pages, memory)
    probe_args = (build_pages, probe_rows, probe_pages, output_rows, memory)
    assert cost_shown(new.hash_join_build(*build_args), params) == cost_shown(
        ref.hash_join_build(*build_args), params
    )
    assert cost_shown(new.hash_join_probe(*probe_args), params) == cost_shown(
        ref.hash_join_probe(*probe_args), params
    )


@given(
    outer_rows=_ROWS, height=st.integers(1, 5), entries_per_leaf=st.integers(1, 400),
    matches=_ROWS, clustered=st.booleans(), inner_pages=_ROWS, output_rows=_ROWS,
    outer_pages=_ROWS, inner_rows=_ROWS, memory=st.one_of(st.integers(0, 300), _ROWS),
)
@settings(max_examples=400, deadline=None)
def test_nested_loops_costs(cost_models, outer_rows, height, entries_per_leaf, matches,
                            clustered, inner_pages, output_rows, outer_pages,
                            inner_rows, memory):
    new, ref = cost_models
    params = new.params
    inl = (outer_rows, height, entries_per_leaf, matches, clustered, inner_pages, output_rows)
    assert cost_shown(new.index_nl_join(*inl), params) == cost_shown(
        ref.index_nl_join(*inl), params
    )
    bnl = (outer_rows, outer_pages, inner_rows, inner_pages, memory)
    assert cost_shown(new.block_nl_join(*bnl), params) == cost_shown(
        ref.block_nl_join(*bnl), params
    )


# ----------------------------------------------------------------------
# Whole enumerations: every candidate, both sets of formulas
# ----------------------------------------------------------------------


def _to_reference(hist: Histogram) -> reference.Histogram:
    return reference.Histogram(
        hist.kind, [reference.Bucket(*dataclasses.astuple(b)) for b in hist.buckets]
    )


def _from_reference(hist: reference.Histogram) -> Histogram:
    return Histogram(hist.kind, [Bucket(*dataclasses.astuple(b)) for b in hist.buckets])


def _reference_scale_column(stats, scale, new_rows):
    ref = reference.ColumnStats(
        *stats[:6],
        None if stats.histogram is None else _to_reference(stats.histogram),
        *stats[7:],
    )
    out = reference._scale_column(ref, scale, new_rows)
    if out is ref:
        return stats
    hist = None if out.histogram is None else _from_reference(out.histogram)
    return ColumnStats(
        out.name, out.dtype, out.count, out.distinct, out.min_value, out.max_value,
        hist, out.is_key, out.observed,
    )


@contextmanager
def reference_formulas():
    """The engine with the previous cost formulas, histogram arithmetic and
    column scaling swapped in (histograms converted at the boundary).
    Yields the number of join costings the previous formulas answered."""
    calls = Counter()

    def counted(formula):
        def method(self, *args, **kwargs):
            calls[formula.__name__] += 1
            return formula(self, *args, **kwargs)
        return method

    with pytest.MonkeyPatch.context() as patch:
        for name in ("hash_join_spill_fraction", "hash_join_build", "hash_join_probe"):
            patch.setattr(CostModel, name, getattr(reference.CostModel, name))
        for name in ("hash_join", "index_nl_join", "block_nl_join"):
            patch.setattr(CostModel, name, counted(getattr(reference.CostModel, name)))
        patch.setattr(
            Histogram, "join_cardinality",
            lambda self, other: _to_reference(self).join_cardinality(_to_reference(other)),
        )
        for name in ("scaled", "scaled_counts", "restricted"):
            patch.setattr(
                Histogram, name,
                lambda self, *args, name=name: _from_reference(
                    getattr(_to_reference(self), name)(*args)
                ),
            )
        patch.setattr(estimator_module, "_scale_column", _reference_scale_column)
        yield calls


@contextmanager
def every_candidate(log: list):
    """Annotate every candidate of every extension group the enumerator
    generates, expanded or not, and log its bound, its plan text and
    ``repr(est.total_cost)`` of every node."""
    real_groups = JoinEnumerator._groups

    def groups(self, members, subset, best):
        connected, cartesian = real_groups(self, members, subset, best)
        for group in connected + cartesian:
            for (bound, __, __), build in self._join_candidates(group):
                plan = self.annotator.annotate_node(build())
                log.append((
                    repr(bound), group in connected, explain(plan),
                    [(repr(n.est.total_cost), repr(n.est.rows)) for n in plan.walk()],
                ))
        return connected, cartesian

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JoinEnumerator, "_groups", groups)
        yield


def plan_both_ways(db, sql: str) -> None:
    runs = []
    for formulas in (nullcontext, reference_formulas):
        log: list = []
        with every_candidate(log), formulas() as calls:
            plan, __, __ = db.plan(sql, mode=DynamicMode.OFF)
        runs.append((log, explain(plan), [repr(n.est.total_cost) for n in plan.walk()]))
    assert runs[0][0], sql  # the enumerator ran: not served from a cache
    assert sum(calls.values()) >= len(runs[1][0]), sql  # ... on the old formulas
    assert runs[0] == runs[1], sql


@pytest.mark.parametrize("seed", range(12))
def test_generated_join_graphs_cost_like_the_reference(seed):
    db, statements = generated_statements(seed)
    for sql in statements:
        plan_both_ways(db, sql)


@given(seed=st.integers(min_value=100, max_value=100_000))
@settings(max_examples=10, deadline=None)
def test_property_generated_join_graphs(seed):
    db, statements = generated_statements(seed)
    plan_both_ways(db, random.Random(seed).choice(statements))


def test_paper_queries_cost_like_the_reference():
    db = build_database(ExperimentConfig(scale_factor=0.01, memory_pages=192, seed=31))
    for name in ("Q5", "Q7", "Q8"):
        plan_both_ways(db, query_by_name(name).sql)
