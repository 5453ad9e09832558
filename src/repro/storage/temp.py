"""Temporary-table management for plan modification.

When Dynamic Re-Optimization decides to change the plan mid-query, the output
of the currently executing operator is redirected to a temporary table on
disk (paper Figure 6); SQL for the remainder of the query is then generated
in terms of that table.  :class:`TempTableManager` creates uniquely named
temp tables, charges the page writes for materialisation to the cost clock,
registers the tables (with their *exact*, observed statistics) in the
catalog, and cleans them up when the query finishes.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..stats.table_stats import TableStats
from .buffer import BufferPool
from .catalog import Catalog
from .schema import Schema
from .table import Row, Table


class TempTableManager:
    """Creates, registers and reclaims per-query temporary tables."""

    def __init__(self, catalog: Catalog, buffer_pool: BufferPool) -> None:
        self.catalog = catalog
        self.buffer_pool = buffer_pool
        self._counter = itertools.count(1)
        self._active: list[str] = []

    @property
    def active_names(self) -> list[str]:
        """Names of temp tables that have not been dropped yet."""
        return list(self._active)

    def next_name(self) -> str:
        """Generate a fresh temp-table name."""
        return f"__temp_{next(self._counter)}"

    def materialize(
        self,
        schema: Schema,
        rows: Iterable[Row],
        stats: TableStats | None = None,
        name: str | None = None,
    ) -> Table:
        """Write rows to a new temp table, charging write I/O per page.

        ``stats``, when given, should describe the materialised result (the
        collectors' observed statistics); it is stored in the catalog so the
        re-invoked optimizer sees exact cardinalities for the temp table.
        """
        table_name = name or self.next_name()
        table = Table(table_name, schema, self.catalog.page_size, is_temporary=True)
        table.append_rows(rows)
        self.buffer_pool.write_run(table.table_id, 0, table.page_count)
        entry = self.catalog.register_table(table)
        if stats is not None:
            entry.stats = stats
        self._active.append(table_name)
        return table

    def create_empty(
        self,
        schema: Schema,
        stats: TableStats | None = None,
        name: str | None = None,
    ) -> Table:
        """Register an empty temp table to be filled by a cut operator.

        Used by plan modification: the remainder query must be optimized
        against the temp table's (estimated/observed) statistics *before*
        the materialisation happens, so the table is created empty with its
        statistics pre-seeded and rows are appended later.
        """
        table_name = name or self.next_name()
        table = Table(table_name, schema, self.catalog.page_size, is_temporary=True)
        entry = self.catalog.register_table(table)
        if stats is not None:
            entry.stats = stats
        self._active.append(table_name)
        return table

    def drop(self, name: str) -> None:
        """Drop one temp table and invalidate its buffered pages."""
        table = self.catalog.table(name)
        self.buffer_pool.invalidate_owner(table.table_id)
        self.catalog.drop_table(name)
        self._active = [n for n in self._active if n != name]

    def drop_all(self) -> None:
        """Drop every temp table created by this manager."""
        for name in list(self._active):
            self.drop(name)
