"""Cardinality and selectivity estimation.

The estimator implements what a System-R style optimizer believes about the
data: histogram-backed selectivities where histograms exist, textbook magic
numbers (1/10 for equality, 1/3 for ranges) where they do not, the
independence assumption for conjunctions, and ``|R| * |S| / max(d_R, d_S)``
for equi-joins (bucket-overlap histogram joins when both sides have
histograms).

Estimates flow through :class:`RelProfile` objects — statistics describing a
base or intermediate relation.  The same propagation code serves two
masters:

* the optimizer, which starts from catalog statistics (possibly stale), and
* the improved-estimate machinery of Dynamic Re-Optimization, which starts
  from *observed* run-time statistics at a collector point and re-derives
  the remainder's cardinalities (paper section 2.2).

Parameter-based comparisons and predicates containing UDF calls always use
the magic defaults — the paper's motivating error sources.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from ..plans.logical import (
    AndPredicate,
    ColumnExpr,
    CompareOp,
    Comparison,
    InPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
)
from .table_stats import ColumnStats, TableStats

#: System-R magic selectivities used when no statistics apply.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NE_SELECTIVITY = 0.9
#: Assumed distinct count when a column has no statistics at all.
DEFAULT_DISTINCT_FRACTION = 0.1
#: Floor for row estimates: plans should never assume a truly empty input.
MIN_ROWS = 1.0


class RelProfile(NamedTuple):
    """Statistics describing one (base or intermediate) relation.

    ``columns`` maps *qualified* column names (``alias.column``) to their
    statistics; the per-column ``count`` fields track ``rows``.  Immutable,
    like :class:`ColumnStats` (the default ``columns`` is shared: never write).
    """

    rows: float
    row_bytes: float
    columns: Mapping[str, ColumnStats] = {}
    aliases: frozenset[str] = frozenset()

    def column(self, qualified: str) -> ColumnStats | None:
        """Stats for a qualified column (None when unknown)."""
        return self.columns.get(qualified)

    def pages(self, page_size: int) -> float:
        """Estimated page count of this relation."""
        if self.rows <= 0:
            return 0.0
        per_page = max(1.0, page_size / max(1.0, self.row_bytes))
        return max(1.0, math.ceil(self.rows / per_page))

    def distinct_of(self, qualified: str) -> float:
        """Distinct count for a column, with a sane default when unknown."""
        stats = self.columns.get(qualified)
        if stats is not None and stats.distinct > 0:
            return min(stats.distinct, max(self.rows, 1.0))
        return max(1.0, self.rows * DEFAULT_DISTINCT_FRACTION)


def profile_from_table_stats(stats: TableStats, alias: str) -> RelProfile:
    """Build a profile for a base table scanned under ``alias``."""
    columns = {
        f"{alias}.{name}": cs.renamed(f"{alias}.{name}")
        for name, cs in stats.columns.items()
    }
    return RelProfile(
        rows=max(MIN_ROWS, stats.row_count),
        row_bytes=stats.avg_row_bytes,
        columns=columns,
        aliases=frozenset({alias}),
    )


class Estimator:
    """Selectivity/cardinality estimation over :class:`RelProfile` objects."""

    def __init__(
        self,
        default_eq: float = DEFAULT_EQ_SELECTIVITY,
        default_range: float = DEFAULT_RANGE_SELECTIVITY,
        parameter_selectivity: float | None = None,
        use_parameter_values: bool = False,
    ) -> None:
        self.default_eq = default_eq
        self.default_range = default_range
        #: When set, every host-variable comparison is assumed to have this
        #: selectivity — how parametric optimization explores scenarios
        #: (Graefe/Cole dynamic plans; see repro.core.parametric).
        self.parameter_selectivity = parameter_selectivity
        #: When True, host-variable comparisons are estimated from their
        #: (now known) values — used when *choosing* among parametric plans
        #: at execution start.
        self.use_parameter_values = use_parameter_values
        #: ``_scale_column`` evaluations made on behalf of this estimator's
        #: profiles so far — a running total; the per-statement
        #: :class:`~repro.optimizer.optimizer.Optimizer` reports the delta.
        self.column_stats_derived = 0

    # ------------------------------------------------------------------
    # Selectivity of single predicates
    # ------------------------------------------------------------------

    def selectivity(self, predicate: Predicate, profile: RelProfile) -> float:
        """Estimated selectivity of one predicate against a relation profile."""
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, profile)
        if isinstance(predicate, InPredicate):
            return self._in_selectivity(predicate, profile)
        if isinstance(predicate, OrPredicate):
            miss = 1.0
            for child in predicate.children:
                miss *= 1.0 - self.selectivity(child, profile)
            return _clamp(1.0 - miss)
        if isinstance(predicate, AndPredicate):
            sel = 1.0
            for child in predicate.children:
                sel *= self.selectivity(child, profile)
            return _clamp(sel)
        if isinstance(predicate, NotPredicate):
            return _clamp(1.0 - self.selectivity(predicate.child, profile))
        return self.default_range

    def _default_for(self, op: CompareOp) -> float:
        if op is CompareOp.EQ:
            return self.default_eq
        if op is CompareOp.NE:
            return DEFAULT_NE_SELECTIVITY
        return self.default_range

    def _comparison_selectivity(self, pred: Comparison, profile: RelProfile) -> float:
        if pred.contains_function():
            # UDF comparisons are always opaque to the optimizer.
            return self._default_for(pred.op)
        if pred.is_parameter_based and not self.use_parameter_values:
            if self.parameter_selectivity is not None:
                return _clamp(self.parameter_selectivity)
            return self._default_for(pred.op)
        normalized = pred.normalized()
        col_const = normalized.column_and_constant()
        if col_const is not None:
            column, value = col_const
            return self._column_const_selectivity(column, normalized.op, value, profile)
        if pred.is_column_to_column and len(pred.qualifiers()) == 1:
            # Same-relation column comparison (e.g. correlated attributes).
            return self._default_for(pred.op)
        # Complex expression comparison: no statistics apply.
        return self._default_for(pred.op)

    def _column_const_selectivity(
        self, column: str, op: CompareOp, value: object, profile: RelProfile
    ) -> float:
        stats = profile.column(column)
        if stats is None:
            return self._default_for(op)
        if op is CompareOp.EQ:
            if stats.has_histogram and isinstance(value, (int, float)):
                return _clamp(stats.histogram.selectivity_eq(float(value)))
            if stats.distinct > 0:
                return _clamp(1.0 / stats.distinct)
            return self.default_eq
        if op is CompareOp.NE:
            return _clamp(1.0 - self._column_const_selectivity(
                column, CompareOp.EQ, value, profile))
        # Range operators.
        if not isinstance(value, (int, float)):
            return self.default_range
        v = float(value)
        if stats.has_histogram:
            if op in (CompareOp.LT, CompareOp.LE):
                return _clamp(stats.histogram.selectivity_range(None, v))
            return _clamp(stats.histogram.selectivity_range(v, None))
        if stats.min_value is not None and stats.max_value is not None:
            span = stats.max_value - stats.min_value
            if span <= 0:
                return 1.0 if _range_holds(op, stats.min_value, v) else 0.0
            if op in (CompareOp.LT, CompareOp.LE):
                frac = (v - stats.min_value) / span
            else:
                frac = (stats.max_value - v) / span
            return _clamp(frac)
        return self.default_range

    def _in_selectivity(self, pred: InPredicate, profile: RelProfile) -> float:
        if not isinstance(pred.expr, ColumnExpr):
            return _clamp(self.default_eq * len(pred.values))
        total = 0.0
        for value in pred.values:
            total += self._column_const_selectivity(
                pred.expr.name, CompareOp.EQ, value, profile
            )
        return _clamp(total)

    # ------------------------------------------------------------------
    # Profile propagation
    # ------------------------------------------------------------------

    def apply_predicates(
        self, profile: RelProfile, predicates: Sequence[Predicate]
    ) -> tuple[RelProfile, float]:
        """Apply a conjunction of predicates; returns (new profile, selectivity).

        Selectivities multiply (the independence assumption — deliberately:
        this is the error source correlated predicates exploit).  Column
        statistics are restricted for predicates on specific columns and
        scaled for everything else.
        """
        selectivity = 1.0
        restricted: dict[str, ColumnStats] = {}
        for pred in predicates:
            selectivity *= self.selectivity(pred, profile)
            target = self._restriction_target(pred)
            if target is not None:
                column, op, value = target
                stats = restricted.get(column)
                if stats is None:
                    stats = profile.columns.get(column)
                if stats is not None:
                    restricted[column] = _restrict_column(stats, op, value)
        selectivity = _clamp(selectivity)
        new_rows = max(MIN_ROWS, profile.rows * selectivity)
        scale = new_rows / max(profile.rows, 1.0)
        ready = {
            name: stats._replace(count=new_rows) for name, stats in restricted.items()
        }
        return (
            RelProfile(
                rows=new_rows,
                row_bytes=profile.row_bytes,
                columns=_DerivedColumns(
                    ((profile.columns, scale, new_rows),), ready, self
                ),
                aliases=profile.aliases,
            ),
            selectivity,
        )

    def _restriction_target(
        self, pred: Predicate,
    ) -> tuple[str, CompareOp, object] | None:
        if not isinstance(pred, Comparison):
            return None
        if pred.contains_function():
            return None
        if pred.is_parameter_based and not self.use_parameter_values:
            return None
        normalized = pred.normalized()
        col_const = normalized.column_and_constant()
        if col_const is None:
            return None
        column, value = col_const
        return (column, normalized.op, value)

    def join(
        self,
        left: RelProfile,
        right: RelProfile,
        equi_pairs: Sequence[tuple[str, str]],
        residual: Sequence[Predicate] = (),
    ) -> tuple[RelProfile, float]:
        """Estimate an equi-join; returns (joined profile, cardinality).

        ``equi_pairs`` is a list of ``(left_column, right_column)`` join keys;
        ``residual`` predicates multiply in with independence.
        """
        cross = left.rows * right.rows
        cardinality = cross
        if equi_pairs:
            first = True
            for lcol, rcol in equi_pairs:
                lstats = left.column(lcol)
                rstats = right.column(rcol)
                if (
                    first
                    and lstats is not None
                    and rstats is not None
                    and lstats.has_histogram
                    and rstats.has_histogram
                ):
                    cardinality = lstats.histogram.join_cardinality(rstats.histogram)
                else:
                    d = max(left.distinct_of(lcol), right.distinct_of(rcol))
                    if first:
                        cardinality = cross / max(d, 1.0)
                    else:
                        cardinality /= max(d, 1.0)
                first = False
        cardinality = max(MIN_ROWS, min(cardinality, cross))
        joined = self._joined_profile(left, right, cardinality)
        if residual:
            joined, __ = self.apply_predicates(joined, residual)
            cardinality = joined.rows
        return joined, cardinality

    def _joined_profile(
        self, left: RelProfile, right: RelProfile, cardinality: float
    ) -> RelProfile:
        # Lookup order: the right side overrides a duplicate name.
        sources = tuple(
            (side.columns, min(cardinality / max(side.rows, 1.0), 1.0), cardinality)
            for side in (right, left)
        )
        return RelProfile(
            rows=cardinality,
            row_bytes=left.row_bytes + right.row_bytes,
            columns=_DerivedColumns(sources, {}, self),
            aliases=left.aliases | right.aliases,
        )

    def group_count(self, profile: RelProfile, group_columns: Sequence[str]) -> float:
        """Estimated number of groups for a GROUP BY."""
        if not group_columns:
            return 1.0
        product = 1.0
        for column in group_columns:
            product *= profile.distinct_of(column)
        return max(1.0, min(product, profile.rows))


class _DerivedColumns(Mapping):
    """Column statistics of a filtered or joined relation, derived on read.

    Propagation records *how* each column follows from the input profile(s)
    — ``(parent columns, scale, new_rows)`` per input, in lookup order —
    and evaluates ``_scale_column(parent[name], scale, new_rows)`` only when
    ``name`` is first looked up: the join enumerator reads the join-key and
    predicate columns of a candidate and nothing else.  A column's
    statistics are therefore the same ``_scale_column``/``_restrict_column``
    chain an eager pass would have computed, evaluated at first read, and
    the mapping iterates, compares and pickles like the dict it replaces
    (keys in first-input order; a later input overrides a duplicate in
    place).  ``ready`` holds the columns the caller computed eagerly (the
    ones a predicate restricted) and doubles as the memo.

    Memo writes are idempotent — the same inputs always produce an equal
    value — so plan templates shared between server threads need no lock:
    two racing readers at worst both derive the column.
    """

    __slots__ = ("_sources", "_ready", "_names", "_estimator")

    def __init__(self, sources, ready: dict[str, ColumnStats], estimator) -> None:
        self._sources = sources
        self._ready = ready
        self._names: tuple[str, ...] | None = None
        self._estimator = estimator

    def get(self, name, default=None):
        stats = self._ready.get(name)
        if stats is not None:
            return stats
        for parent, scale, new_rows in self._sources:
            base = parent.get(name)
            if base is not None:
                stats = self._ready[name] = _scale_column(base, scale, new_rows)
                self._estimator.column_stats_derived += 1
                return stats
        return default

    def __getitem__(self, name: str) -> ColumnStats:
        stats = self.get(name)
        if stats is None:
            raise KeyError(name)
        return stats

    def __contains__(self, name: object) -> bool:
        return any(name in parent for parent, __, __ in self._sources)

    def _key_order(self) -> tuple[str, ...]:
        names = self._names
        if names is None:
            merged: dict[str, None] = {}
            for parent, __, __ in reversed(self._sources):
                merged.update(dict.fromkeys(parent))
            names = self._names = tuple(merged)
        return names

    def __iter__(self):
        return iter(self._key_order())

    def __len__(self) -> int:
        return len(self._key_order())

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return (dict, (dict(self),))


def _clamp(value: float) -> float:
    return max(0.0, min(1.0, value))


def _range_holds(op: CompareOp, column_value: float, constant: float) -> bool:
    return op.python(column_value, constant)


def _restrict_column(stats: ColumnStats, op: CompareOp, value: object) -> ColumnStats:
    """Narrow a column's stats after an eq/range predicate on that column."""
    if op is CompareOp.EQ:
        numeric = float(value) if isinstance(value, (int, float)) else None
        histogram = None
        if stats.has_histogram and numeric is not None:
            histogram = stats.histogram.restricted(numeric, numeric)
        return stats._replace(
            distinct=1.0,
            min_value=numeric if numeric is not None else stats.min_value,
            max_value=numeric if numeric is not None else stats.max_value,
            histogram=histogram,
        )
    if not isinstance(value, (int, float)):
        return stats
    v = float(value)
    if op in (CompareOp.LT, CompareOp.LE):
        low, high = (stats.min_value, v)
    elif op in (CompareOp.GT, CompareOp.GE):
        low, high = (v, stats.max_value)
    else:  # NE: barely changes the distribution.
        return stats
    histogram = stats.histogram.restricted(low, high) if stats.has_histogram else None
    distinct = (
        histogram.total_distinct
        if histogram is not None and not histogram.is_empty
        else stats.distinct
    )
    return stats._replace(
        distinct=max(1.0, distinct),
        min_value=low if low is not None else stats.min_value,
        max_value=high if high is not None else stats.max_value,
        histogram=histogram,
    )


def _scale_column(stats: ColumnStats, scale: float, new_rows: float) -> ColumnStats:
    """Scale a column's stats when rows are removed by unrelated predicates."""
    name, dtype, count, distinct, low, high, histogram, is_key, observed = stats
    if scale >= 1.0:
        if count == new_rows:
            return stats
        distinct_out = distinct
    else:
        if histogram is not None and not histogram.is_empty:
            histogram = histogram.scaled(scale)
        if distinct > 0 and count > 0:
            per_value = count / distinct
            survive = 1.0 - (1.0 - scale) ** per_value
            distinct_out = max(1.0, min(distinct * survive, new_rows))
        else:
            distinct_out = min(distinct, new_rows)
    return ColumnStats(
        name, dtype, new_rows, distinct_out, low, high, histogram, is_key, observed
    )
