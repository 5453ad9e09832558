"""Eager column-statistics propagation, kept as the reference for the lazy one.

:class:`~repro.stats.estimator.Estimator` used to re-derive *every* column
of a filtered or joined relation the moment the profile was built; it now
derives a column when it is first read.  These are the original loops,
verbatim apart from taking the estimator as an argument: they build plain
``dict`` column maps with the same ``_restrict_column``/``_scale_column``
calls in the same order, so ``tests/test_estimator.py`` can require the lazy
mapping to equal them float for float and key for key.
"""

from __future__ import annotations

from typing import Sequence

from repro.plans.logical import Predicate
from repro.stats.estimator import (
    MIN_ROWS,
    Estimator,
    RelProfile,
    _clamp,
    _restrict_column,
    _scale_column,
)
from repro.stats.table_stats import ColumnStats


def apply_predicates(
    estimator: Estimator, profile: RelProfile, predicates: Sequence[Predicate]
) -> tuple[RelProfile, float]:
    """``Estimator.apply_predicates`` with every column derived up front."""
    selectivity = 1.0
    columns = dict(profile.columns)
    restricted: set[str] = set()
    for pred in predicates:
        sel = estimator.selectivity(pred, profile)
        selectivity *= sel
        target = estimator._restriction_target(pred)
        if target is not None:
            column, op, value = target
            stats = columns.get(column)
            if stats is not None:
                columns[column] = _restrict_column(stats, op, value)
                restricted.add(column)
    selectivity = _clamp(selectivity)
    new_rows = max(MIN_ROWS, profile.rows * selectivity)
    scale = new_rows / max(profile.rows, 1.0)
    final_columns: dict[str, ColumnStats] = {}
    for name, stats in columns.items():
        if name in restricted:
            final_columns[name] = stats._replace(count=new_rows)
        else:
            final_columns[name] = _scale_column(stats, scale, new_rows)
    return (
        RelProfile(
            rows=new_rows,
            row_bytes=profile.row_bytes,
            columns=final_columns,
            aliases=profile.aliases,
        ),
        selectivity,
    )


def joined_profile(left: RelProfile, right: RelProfile, cardinality: float) -> RelProfile:
    """``Estimator._joined_profile`` with every column derived up front."""
    columns: dict[str, ColumnStats] = {}
    for side in (left, right):
        scale = cardinality / max(side.rows, 1.0)
        for name, stats in side.columns.items():
            columns[name] = _scale_column(stats, min(scale, 1.0), cardinality)
    return RelProfile(
        rows=cardinality,
        row_bytes=left.row_bytes + right.row_bytes,
        columns=columns,
        aliases=left.aliases | right.aliases,
    )


def join(
    estimator: Estimator,
    left: RelProfile,
    right: RelProfile,
    equi_pairs: Sequence[tuple[str, str]],
    residual: Sequence[Predicate] = (),
) -> tuple[RelProfile, float]:
    """``Estimator.join`` over eager profiles.

    The cardinality arithmetic is the estimator's own (it reads only the
    join-key columns); the column maps are built by the loops above.
    """
    __, cardinality = estimator.join(left, right, equi_pairs)
    joined = joined_profile(left, right, cardinality)
    if residual:
        joined, __ = apply_predicates(estimator, joined, residual)
        cardinality = joined.rows
    return joined, cardinality
