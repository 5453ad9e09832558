"""Prepared statements: parse once, optimize once, execute many times.

A :class:`PreparedStatement` is the client-facing handle over the plan
cache.  ``prepare()`` parses the SQL eagerly (syntax errors surface at
prepare time, like a real database); every ``execute()`` then reuses the
stored AST and goes through :meth:`Database._prepare`, which serves the
optimized plan — or, for host-variable statements, the parametric scenario
set — from the statistics-epoch plan cache.  The first execution pays the
full optimization cost and populates the cache; later executions with the
same (or, parametrically, any) parameter values pay only a cheap clone and
``choose_plan`` selection, while a statistics-epoch bump (ANALYZE, loads,
index/table DDL) transparently forces re-optimization.

Results are identical to cold :meth:`Database.execute` calls: the
simulated cost clock is still charged one calibrated optimization per
execution, so profiles stay deterministic and only wall-clock latency
improves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..core.modes import DynamicMode
from ..plans.printer import explain as explain_plan
from ..sql.parser import parse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .database import Database
    from .results import QueryResult


class PreparedStatement:
    """A reusable handle for one SQL statement against one database."""

    def __init__(self, database: "Database", sql: str) -> None:
        self._database = database
        self.sql = sql
        #: Parsed once at prepare time; re-executions skip the parser.
        self.ast = parse(sql)
        #: Number of completed ``execute()`` calls on this handle.
        self.executions = 0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"PreparedStatement({self.sql!r}, executions={self.executions})"

    def execute(
        self,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
        parametric: bool = True,
    ) -> "QueryResult":
        """Run the statement, reusing cached optimization products.

        ``parametric`` (default on, unlike ad-hoc ``execute``) lets
        host-variable statements share one cached scenario set across all
        parameter bindings; statements without host variables are unaffected
        by the flag.  All other arguments match :meth:`Database.execute`.
        """
        result = self._database._execute_prepared(
            sql=self.sql,
            ast=self.ast,
            params=params,
            mode=mode,
            parametric=parametric,
        )
        self.executions += 1
        return result

    def explain(
        self,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
        parametric: bool = True,
    ) -> str:
        """EXPLAIN for this statement — the same plan ``execute`` would run."""
        prepared = self._database._prepare(
            sql=self.sql,
            ast=self.ast,
            params=params,
            mode=mode,
            parametric=parametric,
            use_cache=True,
        )
        return explain_plan(prepared.plan)
