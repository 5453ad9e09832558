"""Schemas, columns and data types for the storage substrate.

Rows are plain Python tuples; a :class:`Schema` gives the tuples meaning by
mapping (optionally qualified) column names to positions and by describing
each column's type and on-disk width.  Widths drive the simulated page
accounting: ``rows_per_page = page_size // row_bytes``.

Dates are stored as integer day numbers (proleptic Gregorian ordinal), which
keeps comparisons cheap and lets histograms treat them as numeric values —
the same trick TPC-D-era systems used internally.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from ..errors import CatalogError

#: Fixed per-row header overhead, in bytes (slot pointer + null bitmap).
ROW_HEADER_BYTES = 8


class DataType(enum.Enum):
    """Column data types supported by the engine."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"

    @property
    def default_width(self) -> int:
        """Default on-disk width in bytes for a column of this type."""
        if self is DataType.INTEGER or self is DataType.DATE:
            return 4
        if self is DataType.FLOAT:
            return 8
        return 16  # STRING

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type order/compare numerically."""
        return self is not DataType.STRING


def date_to_int(text: str) -> int:
    """Convert an ISO ``YYYY-MM-DD`` date string to its ordinal day number."""
    return _dt.date.fromisoformat(text).toordinal()


def int_to_date(ordinal: int) -> str:
    """Convert an ordinal day number back to an ISO date string."""
    return _dt.date.fromordinal(ordinal).isoformat()


@dataclass(frozen=True)
class Column:
    """A single column: a name, a type and an on-disk width in bytes."""

    name: str
    dtype: DataType
    width: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            object.__setattr__(self, "width", self.dtype.default_width)

    @property
    def base_name(self) -> str:
        """The column name without any ``table.`` qualifier."""
        return self.name.rsplit(".", 1)[-1]

    def qualified(self, qualifier: str) -> "Column":
        """Return a copy of this column qualified as ``qualifier.base_name``."""
        return replace(self, name=f"{qualifier}.{self.base_name}")


class Schema:
    """An ordered collection of :class:`Column` objects.

    Column lookup accepts either the exact stored name or, when unambiguous,
    the bare (unqualified) name.  Schemas are immutable; operations such as
    :meth:`concat` and :meth:`qualify` return new schemas.
    """

    __slots__ = ("columns", "row_bytes", "_by_name", "_by_base")

    def __init__(self, columns: Iterable[Column]) -> None:
        columns = tuple(columns)
        self._set(columns, ROW_HEADER_BYTES + sum(c.width for c in columns))

    def _set(self, columns: tuple[Column, ...], row_bytes: int) -> None:
        if len({col.name for col in columns}) != len(columns):
            names = [col.name for col in columns]
            duplicate = next(n for i, n in enumerate(names) if n in names[:i])
            raise CatalogError(f"duplicate column name {duplicate!r} in schema")
        self.columns: tuple[Column, ...] = columns
        #: Estimated stored width of one row, including the row header.
        self.row_bytes: int = row_bytes
        # Name lookup tables, built by the first lookup: join enumeration
        # concatenates a schema for every candidate it costs and resolves
        # names only on the plan it keeps.  Building is idempotent, so
        # schemas shared between threads need no lock.
        self._by_name: dict[str, int] | None = None
        self._by_base: dict[str, list[int]] = {}

    def _index(self) -> dict[str, int]:
        by_name = self._by_name
        if by_name is None:
            by_name = {}
            by_base: dict[str, list[int]] = {}
            for i, col in enumerate(self.columns):
                by_name[col.name] = i
                by_base.setdefault(col.base_name, []).append(i)
            self._by_base = by_base
            self._by_name = by_name
        return by_name

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self.columns)
        return f"Schema({cols})"

    @property
    def names(self) -> tuple[str, ...]:
        """The stored (possibly qualified) column names, in order."""
        return tuple(c.name for c in self.columns)

    def has_column(self, name: str) -> bool:
        """Whether ``name`` resolves to exactly one column."""
        if name in self._index():
            return True
        return len(self._by_base.get(name, ())) == 1

    def index_of(self, name: str) -> int:
        """Resolve ``name`` (qualified or bare) to a tuple position.

        Raises :class:`CatalogError` for unknown or ambiguous names.
        """
        by_name = self._index()
        if name in by_name:
            return by_name[name]
        candidates = self._by_base.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise CatalogError(f"unknown column {name!r}; have {list(self.names)}")
        ambiguous = [self.columns[i].name for i in candidates]
        raise CatalogError(f"ambiguous column {name!r}: matches {ambiguous}")

    def column(self, name: str) -> Column:
        """Return the :class:`Column` that ``name`` resolves to."""
        return self.columns[self.index_of(name)]

    def rows_per_page(self, page_size: int) -> int:
        """How many rows fit on one simulated page (always at least 1)."""
        return max(1, page_size // self.row_bytes)

    def page_count(self, row_count: int, page_size: int) -> int:
        """Number of pages needed to store ``row_count`` rows."""
        if row_count <= 0:
            return 0
        per_page = self.rows_per_page(page_size)
        return -(-row_count // per_page)  # ceil division

    def qualify(self, qualifier: str) -> "Schema":
        """Return a schema with every column renamed to ``qualifier.base``."""
        return Schema(c.qualified(qualifier) for c in self.columns)

    def concat(self, other: "Schema") -> "Schema":
        """Return the schema of the concatenation of rows from both schemas.

        Join enumeration concatenates a schema for every candidate it
        builds, so the width comes from the inputs' (one header each).
        """
        schema = Schema.__new__(Schema)
        schema._set(
            (*self.columns, *other.columns),
            self.row_bytes + other.row_bytes - ROW_HEADER_BYTES,
        )
        return schema

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema containing only the named columns, in given order."""
        return Schema(self.column(n) for n in names)

    def renamed(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with columns renamed per ``mapping`` (old -> new)."""
        cols = []
        for col in self.columns:
            new_name = mapping.get(col.name, col.name)
            cols.append(replace(col, name=new_name))
        return Schema(cols)
