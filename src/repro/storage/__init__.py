"""Storage substrate: schemas, tables, buffer pool, indexes, catalog, temp space."""

from .buffer import BufferPool, BufferStats
from .catalog import Catalog, TableEntry
from .columnar import ColumnStore
from .disk import CostBreakdown, CostClock
from .index import Index, build_index
from .schema import Column, DataType, Schema, date_to_int, int_to_date
from .table import Row, Table
from .temp import TempTableManager

__all__ = [
    "BufferPool",
    "BufferStats",
    "Catalog",
    "Column",
    "ColumnStore",
    "CostBreakdown",
    "CostClock",
    "DataType",
    "Index",
    "Row",
    "Schema",
    "Table",
    "TableEntry",
    "TempTableManager",
    "build_index",
    "date_to_int",
    "int_to_date",
]
