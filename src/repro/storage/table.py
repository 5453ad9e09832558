"""Heap tables.

A :class:`Table` is a named, schema-ed, paged container of row tuples.  It is
deliberately *passive*: it knows its page geometry (how many simulated pages
it occupies, which page a row lives on) but does not charge the cost clock —
the executor's scan iterators do that, routing page requests through the
buffer pool.  This keeps the cost accounting in one layer.  A temporary
table filled by a plan switch instead *holds* the cut's output as the
executor produced it (:meth:`Table.hold`); :attr:`Table.rows` builds its
tuples the first time something reads them.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Iterator, Sequence

from ..errors import StorageError
from .schema import Schema

Row = tuple

_table_ids = itertools.count(1)


class Table:
    """A heap table: an append-only list of rows plus page geometry."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        page_size: int,
        rows: Iterable[Row] | None = None,
        is_temporary: bool = False,
    ) -> None:
        self.table_id = next(_table_ids)
        self.name = name
        self.schema = schema
        self.page_size = page_size
        self.is_temporary = is_temporary
        self._rows: list[Row] = []
        #: What :meth:`hold` was given — an executor chunk, a sized
        #: sequence of rows that builds them when iterated — until
        #: :attr:`rows` is first read.
        self.held = None
        #: Columnar shadows keyed by dictionary_max; built on
        #: demand by :meth:`column_store` and kept in sync by
        #: :meth:`append_rows` / :meth:`truncate`.
        self._column_stores: dict = {}
        # Concurrent server sessions scanning the same table may both reach
        # the lazy column-store build/sync; serialize it so one session
        # never observes a half-built shadow.
        self._store_lock = threading.RLock()
        if rows is not None:
            self.append_rows(rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.row_count}, pages={self.page_count})"

    @property
    def rows(self) -> list[Row]:
        """The stored row tuples; built here from a held chunk on first read."""
        held = self.held
        if held is not None:
            self.held = None
            self.append_rows(held)
        return self._rows

    @property
    def row_count(self) -> int:
        """Number of rows stored."""
        held = self.held
        return len(self._rows) if held is None else len(held)

    @property
    def rows_per_page(self) -> int:
        """Rows per simulated page for this table's schema."""
        return self.schema.rows_per_page(self.page_size)

    @property
    def page_count(self) -> int:
        """Number of simulated pages the table occupies."""
        return self.schema.page_count(self.row_count, self.page_size)

    @property
    def total_bytes(self) -> int:
        """Estimated stored size in bytes."""
        return self.row_count * self.schema.row_bytes

    def page_of_row(self, row_index: int) -> int:
        """Page number holding the row at ``row_index``."""
        return row_index // self.rows_per_page

    def append_rows(self, rows: Iterable[Row]) -> int:
        """Bulk-append rows after validating their arity; returns count added."""
        width = len(self.schema)
        added = 0
        for row in rows:
            if len(row) != width:
                raise StorageError(
                    f"row arity {len(row)} does not match schema width {width} "
                    f"for table {self.name!r}"
                )
            self._rows.append(tuple(row))
            added += 1
        if added:
            # Column arrays are maintained on append: each attached store
            # encodes the new rows of its built columns.
            with self._store_lock:
                for store in self._column_stores.values():
                    store.sync()
        return added

    def hold(self, rows) -> None:
        """Store ``rows`` in this empty table without building them: scans
        read what is held, and :attr:`rows` builds the tuples when read."""
        if self.row_count:
            raise StorageError(f"table {self.name!r} is not empty")
        self.held = rows

    def column_store(self, batch_size: int | None = None, dictionary_max: int = 256):
        """The (synced) columnar shadow of this table, one per
        ``dictionary_max``.  ``batch_size`` is accepted and ignored: the
        store holds whole columns, with no batch geometry."""
        with self._store_lock:
            store = self._column_stores.get(dictionary_max)
            if store is None:
                from .columnar import ColumnStore

                store = self._column_stores[dictionary_max] = ColumnStore(
                    self, dictionary_max
                )
            store.sync()
        return store

    def iter_pages(self) -> Iterator[Sequence[Row]]:
        """Yield rows grouped by page, in storage order."""
        per_page = self.rows_per_page
        for start in range(0, self.row_count, per_page):
            yield self.rows[start : start + per_page]

    def truncate(self) -> None:
        """Remove all rows (used by temp-table recycling)."""
        self._rows.clear()
        self.held = None
        with self._store_lock:
            for store in self._column_stores.values():
                store.reset()
