"""The system catalog.

The catalog maps names to tables, tracks indexes and key columns, and stores
per-table :class:`~repro.stats.table_stats.TableStats`.  It is the boundary
between "what the optimizer believes" and "what is actually stored":
experiments inject stale or coarse statistics via :meth:`Catalog.set_stats`
without touching the underlying data, reproducing the estimation-error
sources the paper discusses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import CatalogError
from ..stats.histogram import HistogramKind
from ..stats.table_stats import TableStats, compute_table_stats, schema_only_stats
from .index import Index, build_index
from .schema import Schema
from .table import Table


@dataclass
class TableEntry:
    """Catalog entry for one table."""

    table: Table
    stats: TableStats | None = None
    key_columns: tuple[str, ...] = ()
    indexes: dict[str, Index] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The table's name."""
        return self.table.name


class Catalog:
    """Name -> table/index/statistics registry.

    The catalog also carries a monotonically increasing **statistics epoch**:
    any event that changes what the optimizer reads here — fresh or injected
    statistics, data loads, index DDL, table creation/removal — bumps it.
    The plan cache (:mod:`repro.engine.plan_cache`) refuses to serve entries
    optimized under an older epoch.  Per-query *temporary* tables are
    exempt, and so is a mid-query plan switch: both live and die inside one
    execution and write nothing about the persistent database here.
    """

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._entries: dict[str, TableEntry] = {}
        #: Monotonically increasing statistics epoch (see class docstring).
        self.stats_epoch = 0
        # Serializes mutations (DDL, stats injection, epoch bumps) across
        # concurrent server sessions.  Reads stay lock-free: single dict
        # lookups are atomic under the GIL and entries are never mutated in
        # place by a writer holding the lock mid-read.
        self._lock = threading.RLock()

    def bump_stats_epoch(self) -> int:
        """Advance the statistics epoch; returns the new value."""
        with self._lock:
            self.stats_epoch += 1
            return self.stats_epoch

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries

    def __iter__(self) -> Iterator[TableEntry]:
        return iter(self._entries.values())

    @property
    def table_names(self) -> list[str]:
        """All registered table names."""
        return list(self._entries)

    # -- tables ----------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        key_columns: Sequence[str] = (),
        is_temporary: bool = False,
    ) -> Table:
        """Create and register an empty table."""
        table = Table(name, schema, self.page_size, is_temporary=is_temporary)
        self.register_table(table, key_columns=key_columns)
        return table

    def register_table(self, table: Table, key_columns: Sequence[str] = ()) -> TableEntry:
        """Register an existing table object."""
        key = table.name.lower()
        for col in key_columns:
            if not table.schema.has_column(col):
                raise CatalogError(f"key column {col!r} not in schema of {table.name!r}")
        with self._lock:
            if key in self._entries:
                raise CatalogError(f"table {table.name!r} already exists")
            entry = TableEntry(table=table, key_columns=tuple(key_columns))
            self._entries[key] = entry
            if not table.is_temporary:
                self.bump_stats_epoch()
        return entry

    def drop_table(self, name: str) -> None:
        """Remove a table (and its indexes/statistics) from the catalog."""
        key = name.lower()
        with self._lock:
            if key not in self._entries:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            entry = self._entries.pop(key)
            if not entry.table.is_temporary:
                self.bump_stats_epoch()

    def entry(self, name: str) -> TableEntry:
        """Catalog entry for ``name`` (raises for unknown tables)."""
        key = name.lower()
        if key not in self._entries:
            raise CatalogError(f"unknown table {name!r}; have {self.table_names}")
        return self._entries[key]

    def table(self, name: str) -> Table:
        """The table object registered under ``name``."""
        return self.entry(name).table

    # -- statistics -------------------------------------------------------

    def analyze(
        self,
        name: str,
        histogram_kind: HistogramKind | None = HistogramKind.MAXDIFF,
        num_buckets: int = 32,
        histogram_columns: Sequence[str] | None = None,
    ) -> TableStats:
        """Scan a table and store fresh statistics (ANALYZE)."""
        entry = self.entry(name)
        stats = compute_table_stats(
            entry.table,
            histogram_kind=histogram_kind,
            num_buckets=num_buckets,
            key_columns=entry.key_columns,
            histogram_columns=histogram_columns,
        )
        with self._lock:
            entry.stats = stats
            if not entry.table.is_temporary:
                self.bump_stats_epoch()
        return stats

    def set_stats(self, name: str, stats: TableStats) -> None:
        """Inject (possibly deliberately wrong) statistics for a table."""
        entry = self.entry(name)
        with self._lock:
            entry.stats = stats
            if not entry.table.is_temporary:
                self.bump_stats_epoch()

    def stats_for(self, name: str) -> TableStats:
        """Statistics for a table, falling back to schema-only defaults."""
        entry = self.entry(name)
        if entry.stats is not None:
            return entry.stats
        return schema_only_stats(entry.table)

    # -- indexes ----------------------------------------------------------

    def create_index(
        self, index_name: str, table_name: str, column: str, clustered: bool = False
    ) -> Index:
        """Build and register a sorted index on one column."""
        entry = self.entry(table_name)
        base = entry.table.schema.column(column).base_name
        if base in entry.indexes:
            raise CatalogError(f"index already exists on {table_name}.{base}")
        index = build_index(index_name, entry.table, column, clustered=clustered)
        with self._lock:
            entry.indexes[base] = index
            if not entry.table.is_temporary:
                self.bump_stats_epoch()
        return index

    def index_on(self, table_name: str, column: str) -> Index | None:
        """The index on ``table.column`` if one exists."""
        entry = self.entry(table_name)
        if not entry.table.schema.has_column(column):
            return None
        base = entry.table.schema.column(column).base_name
        return entry.indexes.get(base)

    def indexes_for(self, table_name: str) -> Iterable[Index]:
        """All indexes registered on a table."""
        return self.entry(table_name).indexes.values()

    def is_key_column(self, table_name: str, column: str) -> bool:
        """Whether ``column`` is declared a key of ``table_name``."""
        entry = self.entry(table_name)
        if not entry.table.schema.has_column(column):
            return False
        base = entry.table.schema.column(column).base_name
        return base in entry.key_columns
