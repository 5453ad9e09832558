"""Sessions: per-client state on top of one shared :class:`Database`.

A :class:`Session` is what one client of the concurrent query server holds:
its own temp-table namespace, its own prepared-statement handles, and a
plan-cache *scope* so plans compiled against session-local tables are never
served to another session.  Statements submitted through a session flow
through the server's admission controller and memory broker
(:mod:`repro.engine.server`).

Isolation is implemented by :class:`SessionCatalog`, a resolve-local-first
overlay over the shared catalog.  The overlay *is* the ``ctx.catalog`` a
session's executions run under, so everything downstream — binding, scan
resolution, statistics lookup, and crucially the per-execution ``__temp_N``
tables the mid-query re-optimizer materializes (paper Figure 6) — lands in
the session's namespace without any executor changes.  Two sessions can
both hold a temp table named ``t`` (or two concurrent re-optimizations can
both materialize ``__temp_1``) and never observe each other's rows.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from ..core.modes import DynamicMode
from ..errors import SessionError
from ..stats.histogram import HistogramKind
from ..stats.table_stats import TableStats
from ..storage.catalog import Catalog, TableEntry
from ..storage.index import Index
from ..storage.schema import Schema
from ..storage.table import Row, Table
from .prepared import PreparedStatement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sql.ast import AstSelect
    from .results import QueryResult
    from .server import QueryServer

_session_ids = itertools.count(1)


class SessionCatalog:
    """A local-first overlay over the shared catalog.

    Temporary registrations (session temp tables, the re-optimizer's
    ``__temp_N`` materializations) go to a private :class:`Catalog`; every
    lookup tries the private catalog first and falls back to the shared
    one.  Persistent DDL passes straight through to the shared catalog, so
    sessions see each other's permanent tables immediately.

    The overlay keeps its own statistics epoch for local DDL.  For global
    statements :attr:`stats_epoch` is exactly the shared epoch (so plan
    cache entries stay shared across sessions); statements that touch local
    tables are cached under :attr:`scoped_epoch`, which pairs the shared
    epoch with the local one — recreating a same-named temp table with
    different data can then never revive a stale plan.
    """

    def __init__(self, base: Catalog) -> None:
        self.base = base
        self._local = Catalog(base.page_size)

    # -- resolution -------------------------------------------------------

    def has_local(self, name: str) -> bool:
        """Whether ``name`` resolves to a session-local table."""
        return name in self._local

    @property
    def page_size(self) -> int:
        return self.base.page_size

    @property
    def stats_epoch(self) -> int:
        """The shared epoch (local DDL deliberately excluded)."""
        return self.base.stats_epoch

    @property
    def scoped_epoch(self) -> tuple[int, int]:
        """(shared, local) epoch pair for session-scoped cache entries."""
        return (self.base.stats_epoch, self._local.stats_epoch)

    def __contains__(self, name: str) -> bool:
        return name in self._local or name in self.base

    def __iter__(self) -> Iterator[TableEntry]:
        yield from self._local
        yield from self.base

    @property
    def table_names(self) -> list[str]:
        return self._local.table_names + self.base.table_names

    # -- tables -----------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        key_columns: Sequence[str] = (),
        is_temporary: bool = False,
    ) -> Table:
        if is_temporary:
            table = self._local.create_table(
                name, schema, key_columns=key_columns, is_temporary=True
            )
            self._local.bump_stats_epoch()
            return table
        return self.base.create_table(name, schema, key_columns=key_columns)

    def register_table(self, table: Table, key_columns: Sequence[str] = ()) -> TableEntry:
        if table.is_temporary:
            entry = self._local.register_table(table, key_columns=key_columns)
            self._local.bump_stats_epoch()
            return entry
        return self.base.register_table(table, key_columns=key_columns)

    def drop_table(self, name: str) -> None:
        if name in self._local:
            self._local.drop_table(name)
            self._local.bump_stats_epoch()
            return
        self.base.drop_table(name)

    def drop_local_tables(self) -> None:
        """Drop every session-local table (session close)."""
        for name in self._local.table_names:
            self._local.drop_table(name)
        self._local.bump_stats_epoch()

    def entry(self, name: str) -> TableEntry:
        if name in self._local:
            return self._local.entry(name)
        return self.base.entry(name)

    def table(self, name: str) -> Table:
        return self.entry(name).table

    # -- statistics -------------------------------------------------------

    def analyze(
        self,
        name: str,
        histogram_kind: HistogramKind | None = HistogramKind.MAXDIFF,
        num_buckets: int = 32,
        histogram_columns: Sequence[str] | None = None,
    ) -> TableStats:
        if name in self._local:
            stats = self._local.analyze(
                name,
                histogram_kind=histogram_kind,
                num_buckets=num_buckets,
                histogram_columns=histogram_columns,
            )
            # Local tables are temporary, so the nested catalog will not
            # bump its epoch on its own; fresh stats must still invalidate
            # this session's scoped plan-cache entries.
            self._local.bump_stats_epoch()
            return stats
        return self.base.analyze(
            name,
            histogram_kind=histogram_kind,
            num_buckets=num_buckets,
            histogram_columns=histogram_columns,
        )

    def set_stats(self, name: str, stats: TableStats) -> None:
        if name in self._local:
            self._local.set_stats(name, stats)
            self._local.bump_stats_epoch()
            return
        self.base.set_stats(name, stats)

    def stats_for(self, name: str) -> TableStats:
        if name in self._local:
            return self._local.stats_for(name)
        return self.base.stats_for(name)

    # -- indexes ----------------------------------------------------------

    def create_index(
        self, index_name: str, table_name: str, column: str, clustered: bool = False
    ) -> Index:
        target = self._local if table_name in self._local else self.base
        return target.create_index(index_name, table_name, column, clustered=clustered)

    def index_on(self, table_name: str, column: str) -> Index | None:
        if table_name in self._local:
            return self._local.index_on(table_name, column)
        return self.base.index_on(table_name, column)

    def indexes_for(self, table_name: str) -> Iterable[Index]:
        if table_name in self._local:
            return self._local.indexes_for(table_name)
        return self.base.indexes_for(table_name)

    def is_key_column(self, table_name: str, column: str) -> bool:
        if table_name in self._local:
            return self._local.is_key_column(table_name, column)
        return self.base.is_key_column(table_name, column)


class Session:
    """One client's handle on the concurrent query server.

    Sessions are single-statement at a time: one thread per session is the
    intended shape (the workload driver gives every simulated client its
    own), and a second concurrent statement on the same session raises
    :class:`~repro.errors.SessionError` instead of silently interleaving
    temp-table state.  Statements execute through the server's admission
    queue and memory broker; results and profiles are byte-identical to
    inline execution when the server is uncontended.
    """

    def __init__(self, server: "QueryServer", name: str | None = None) -> None:
        self._server = server
        self._database = server.database
        sid = next(_session_ids)
        self.name = name or f"session-{sid}"
        #: Plan-cache scope: unique per session object, so same-named
        #: sessions can never cross-serve temp-table plans.
        self.scope = f"{self.name}#{sid}"
        self.catalog = SessionCatalog(self._database.catalog)
        self.closed = False
        self._statement_lock = threading.Lock()

    # -- session-local DDL ------------------------------------------------

    def create_temp_table(
        self, name: str, columns, key: Sequence[str] = ()
    ) -> Table:
        """Create a session-local (temporary) table.

        Accepts the same column specs as :meth:`Database.create_table`; the
        table is visible only to this session and dropped on close.
        """
        self._check_open()
        from .database import Database  # local import: cycle guard

        schema = Database._schema_from_columns(columns)
        return self.catalog.create_table(
            name, schema, key_columns=key, is_temporary=True
        )

    def load_rows(self, table_name: str, rows: Iterable[Row]) -> int:
        """Bulk-load rows into a session-local or shared table."""
        self._check_open()
        if self.catalog.has_local(table_name):
            count = self.catalog.table(table_name).append_rows(rows)
            for index in self.catalog.indexes_for(table_name):
                index.rebuild()
            self.catalog._local.bump_stats_epoch()
            return count
        return self._database.load_rows(table_name, rows)

    def analyze(self, table_name: str, **kwargs) -> None:
        """ANALYZE one table (session-local tables stay local)."""
        self._check_open()
        self.catalog.analyze(table_name, **kwargs)

    def drop_table(self, name: str) -> None:
        """Drop a session-local or shared table."""
        self._check_open()
        self.catalog.drop_table(name)

    # -- statements -------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
        parametric: bool = False,
    ) -> "QueryResult":
        """Execute a statement through admission control and the broker."""
        self._check_open()
        with self._statement_guard():
            return self._server._execute(
                session=self,
                sql=sql,
                params=params,
                mode=mode,
                parametric=parametric,
            )

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare a statement scoped to this session.

        The handle is session-local: executions run through this session's
        admission/broker path and its catalog overlay, and cached plans for
        temp-table statements carry this session's scope.
        """
        self._check_open()
        return PreparedStatement(self, sql)

    # PreparedStatement duck-types its ``database``; delegate the two entry
    # points it uses, injecting this session's catalog/scope/server path.

    def _prepare(self, sql: str, **kwargs):
        self._check_open()
        return self._database._prepare(
            sql, catalog=self.catalog, cache_scope=self.scope, **kwargs
        )

    def _execute_prepared(
        self,
        sql: str,
        ast: "AstSelect",
        params: Mapping[str, object] | None,
        mode: DynamicMode,
        parametric: bool,
    ) -> "QueryResult":
        self._check_open()
        with self._statement_guard():
            return self._server._execute(
                session=self,
                sql=sql,
                ast=ast,
                params=params,
                mode=mode,
                parametric=parametric,
            )

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Drop session-local state (temp tables, scoped plan-cache entries)."""
        if self.closed:
            return
        self.closed = True
        self.catalog.drop_local_tables()
        self._database.plan_cache.drop_scope(self.scope)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise SessionError(f"session {self.name!r} is closed")

    def _statement_guard(self):
        if not self._statement_lock.acquire(blocking=False):
            raise SessionError(
                f"session {self.name!r} already has a statement in flight; "
                "sessions execute one statement at a time"
            )
        lock = self._statement_lock

        class _Guard:
            def __enter__(self_inner):
                return self_inner

            def __exit__(self_inner, *exc):
                lock.release()

        return _Guard()
