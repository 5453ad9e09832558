"""Temporary-table management for plan modification.

When Dynamic Re-Optimization decides to change the plan mid-query, the output
of the currently executing operator is redirected to a temporary table on
disk (paper Figure 6); SQL for the remainder of the query is then generated
in terms of that table.  :class:`TempTableManager` creates uniquely named
temp tables, fills them and charges the page writes to the cost clock,
registers the tables (with their *exact*, observed statistics) in the
catalog, and cleans them up when the query finishes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

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
        statistics pre-seeded and filled later by :meth:`fill`.
        """
        table_name = name or self.next_name()
        table = Table(table_name, schema, self.catalog.page_size, is_temporary=True)
        entry = self.catalog.register_table(table)
        if stats is not None:
            entry.stats = stats
        self._active.append(table_name)
        return table

    def fill(self, table: Table, rows: Sequence[Row]) -> None:
        """Fill an empty temp table from ``rows`` — a cut operator's output
        chunk, held unbuilt (:meth:`Table.hold`), or a row list — and charge
        its page writes as one run."""
        table.hold(rows)
        self.buffer_pool.write_run(table.table_id, 0, table.page_count)

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
