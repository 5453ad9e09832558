"""Catalog statistics for base tables.

A :class:`TableStats` is what the system catalog stores per table: row and
page counts, average row width and per-column :class:`ColumnStats` (min/max,
distinct count, optional histogram).  These are the *estimates* a
conventional optimizer works from — the paper's point is precisely that they
go stale, miss correlations and lack histograms for some attributes.

The staleness knobs (:meth:`TableStats.scaled_rows`,
:meth:`TableStats.without_histograms`, :meth:`TableStats.mark_updated`)
let experiments inject the same error sources the paper lists (out-of-date
histograms, missing histograms, significant update activity) in a controlled
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..storage.schema import DataType, Schema
from ..storage.table import Table
from .histogram import Histogram, HistogramKind, build_histogram


class ColumnStats(NamedTuple):
    """Statistics for one column of one (base or intermediate) relation.

    Immutable (plan templates carrying it are shared between server
    threads); a tuple, because estimation derives thousands per plan.
    """

    name: str
    dtype: DataType
    count: float
    distinct: float
    min_value: float | None = None
    max_value: float | None = None
    histogram: Histogram | None = None
    is_key: bool = False
    #: True when the stats were *observed* at run time rather than estimated.
    observed: bool = False

    @property
    def has_histogram(self) -> bool:
        """Whether a histogram is available for this column."""
        return self.histogram is not None and not self.histogram.is_empty

    def renamed(self, name: str) -> "ColumnStats":
        """Return a copy with a different (qualified) name."""
        return ColumnStats(name, *self[1:])


@dataclass(frozen=True)
class TableStats:
    """Catalog statistics for a whole table."""

    table_name: str
    row_count: float
    page_count: float
    avg_row_bytes: float
    columns: Mapping[str, ColumnStats] = field(default_factory=dict)
    #: Models the paper's "significant update activity since statistics were
    #: last collected" flag, which bumps every inaccuracy potential one level.
    significant_update_activity: bool = False

    def column(self, name: str) -> ColumnStats | None:
        """Stats for a column by its base name (None when unknown)."""
        return self.columns.get(name)

    # -- staleness knobs -------------------------------------------------

    def scaled_rows(self, factor: float) -> "TableStats":
        """Pretend the table had ``factor`` times the rows it really has.

        Simulates out-of-date catalogs (the table grew or shrank since the
        last ANALYZE).  Column counts scale with the table.
        """
        columns = {
            name: cs._replace(count=cs.count * factor)
            for name, cs in self.columns.items()
        }
        return replace(
            self,
            row_count=self.row_count * factor,
            page_count=max(1.0, self.page_count * factor),
            columns=columns,
        )

    def without_histograms(self, column_names: Iterable[str] | None = None) -> "TableStats":
        """Drop histograms (all, or just the named columns).

        Models attributes for which no histogram exists — the paper's *high*
        inaccuracy-potential case.
        """
        targets = set(column_names) if column_names is not None else None
        columns = {}
        for name, cs in self.columns.items():
            if targets is None or name in targets:
                columns[name] = cs._replace(histogram=None)
            else:
                columns[name] = cs
        return replace(self, columns=columns)

    def mark_updated(self) -> "TableStats":
        """Flag significant update activity since statistics collection."""
        return replace(self, significant_update_activity=True)


def compute_column_stats(
    table: Table,
    column_name: str,
    histogram_kind: HistogramKind | None = HistogramKind.MAXDIFF,
    num_buckets: int = 32,
    is_key: bool = False,
) -> ColumnStats:
    """Compute full statistics for one column by scanning the table."""
    schema = table.schema
    col = schema.column(column_name)
    position = schema.index_of(column_name)
    values = [row[position] for row in table.rows]
    distinct = float(len(set(values)))
    if col.dtype.is_numeric and values:
        numeric = [float(v) for v in values]
        min_value: float | None = min(numeric)
        max_value: float | None = max(numeric)
        histogram = (
            build_histogram(numeric, kind=histogram_kind, num_buckets=num_buckets)
            if histogram_kind is not None
            else None
        )
    else:
        min_value = None
        max_value = None
        histogram = None
    return ColumnStats(
        name=col.base_name,
        dtype=col.dtype,
        count=float(len(values)),
        distinct=distinct,
        min_value=min_value,
        max_value=max_value,
        histogram=histogram,
        is_key=is_key,
    )


def compute_table_stats(
    table: Table,
    histogram_kind: HistogramKind | None = HistogramKind.MAXDIFF,
    num_buckets: int = 32,
    key_columns: Sequence[str] = (),
    histogram_columns: Sequence[str] | None = None,
) -> TableStats:
    """Compute catalog statistics for a table (ANALYZE equivalent).

    ``histogram_columns`` restricts which columns get histograms (None means
    every numeric column); ``key_columns`` marks unique-key columns, which
    the inaccuracy-potential rules treat specially for equi-joins.
    """
    keys = set(key_columns)
    allowed = set(histogram_columns) if histogram_columns is not None else None
    columns: dict[str, ColumnStats] = {}
    for col in table.schema:
        base = col.base_name
        kind = histogram_kind
        if allowed is not None and base not in allowed:
            kind = None
        columns[base] = compute_column_stats(
            table,
            col.name,
            histogram_kind=kind,
            num_buckets=num_buckets,
            is_key=base in keys,
        )
    return TableStats(
        table_name=table.name,
        row_count=float(table.row_count),
        page_count=float(table.page_count),
        avg_row_bytes=float(table.schema.row_bytes),
        columns=columns,
    )


def schema_only_stats(table: Table, assumed_rows: float = 1000.0) -> TableStats:
    """Fallback statistics when a table was never analysed.

    Uses the real page geometry but an assumed row count and no per-column
    information — the optimizer then falls back to magic selectivities, which
    is exactly the situation run-time statistics correct.
    """
    schema: Schema = table.schema
    return TableStats(
        table_name=table.name,
        row_count=assumed_rows,
        page_count=float(max(1, schema.page_count(int(assumed_rows), table.page_size))),
        avg_row_bytes=float(schema.row_bytes),
        columns={},
    )
