"""Remainder-query construction (paper Figure 6).

When plan modification is accepted, the output of the cut operator is
redirected to a temporary table and "SQL corresponding to the remainder of
the query is generated in terms of this temporary file.  This modified query
is then re-submitted to the parser/optimizer like a regular query."

:func:`build_remainder` performs the generation: it determines which base
relations and predicates the cut subtree already handled, renames every
reference to a cut-subtree column to the temp table's column
(``alias.col`` -> ``temp.alias__col``), and assembles the remainder
:class:`~repro.plans.logical.LogicalQuery`.  The engine then deparses it to
SQL text and round-trips through parse/bind — the full paper pipeline — with
the temp table registered in the catalog carrying the *observed* statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..plans.logical import BaseRelation, LogicalQuery
from ..plans.physical import PlanNode
from ..plans.rewrite import rename_output, rename_predicate
from ..stats.estimator import RelProfile
from ..stats.table_stats import ColumnStats, TableStats
from ..storage.schema import Schema


@dataclass
class RemainderQuery:
    """Everything needed to resume a query from a materialised cut."""

    query: LogicalQuery
    temp_name: str
    temp_schema: Schema
    rename_map: dict[str, str]
    cut_aliases: frozenset[str]


def temp_column_name(qualified: str) -> str:
    """Map ``alias.col`` to a legal bare column name for the temp table."""
    return qualified.replace(".", "__")


def build_remainder(
    query: LogicalQuery,
    cut_node: PlanNode,
    temp_name: str,
) -> RemainderQuery:
    """Construct the remainder of ``query`` over a temp table replacing
    the subtree rooted at ``cut_node``."""
    cut_aliases = cut_node.base_aliases
    if not cut_aliases:
        raise ReproError("cut node covers no base relations")

    temp_schema = cut_node.schema.renamed(
        {name: temp_column_name(name) for name in cut_node.schema.names}
    )
    rename_map = {
        name: f"{temp_name}.{temp_column_name(name)}"
        for name in cut_node.schema.names
    }

    remaining_relations = tuple(
        rel for rel in query.relations if rel.alias not in cut_aliases
    )
    relations = (BaseRelation(table_name=temp_name, alias=temp_name),) + remaining_relations

    remaining_predicates = tuple(
        rename_predicate(p, rename_map)
        for p in query.predicates
        if not p.qualifiers() <= cut_aliases
    )
    output = tuple(rename_output(item, rename_map) for item in query.output)
    group_by = tuple(rename_map.get(col, col) for col in query.group_by)

    remainder = LogicalQuery(
        relations=relations,
        predicates=remaining_predicates,
        output=output,
        group_by=group_by,
        # HAVING predicates reference output-column names, which survive the
        # cut unchanged; same for DISTINCT.
        having=query.having,
        order_by=query.order_by,
        limit=query.limit,
        distinct=query.distinct,
    )
    return RemainderQuery(
        query=remainder,
        temp_name=temp_name,
        temp_schema=temp_schema,
        rename_map=rename_map,
        cut_aliases=cut_aliases,
    )


def temp_table_stats(
    temp_name: str,
    profile: RelProfile,
    temp_schema: Schema,
    page_size: int,
) -> TableStats:
    """Catalog statistics for the temp table, from ``profile``: the cut's
    improved *estimate* (``consumer.est.profile``), not an observed profile,
    with its row count clamped to at least 1.

    Column statistics keep what that estimate carries from the collectors
    below the cut (histograms, distinct counts, min/max) under the temp
    table's column names.
    """
    columns: dict[str, ColumnStats] = {}
    for qualified, stats in profile.columns.items():
        base = temp_column_name(qualified)
        if temp_schema.has_column(base):
            columns[base] = stats.renamed(base)
    rows = max(1.0, profile.rows)
    return TableStats(
        table_name=temp_name,
        row_count=rows,
        page_count=float(max(1, temp_schema.page_count(int(rows), page_size))),
        avg_row_bytes=float(temp_schema.row_bytes),
        columns=columns,
    )
