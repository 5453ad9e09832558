"""Columnar page groups: typed NumPy arrays per column, with zone maps.

A :class:`ColumnStore` is a columnar shadow of a heap :class:`~.table.Table`:
the table's rows, cut into *page groups* (the runs of whole pages the serial
batch scan accumulates into one batch — see :func:`page_groups`), with one
typed NumPy array per column per group and a per-group per-column
:class:`ZoneMap` (min / max / null count).  The heap rows remain the source
of truth — the store is a derived, incrementally-maintained acceleration
structure that the column-space leaf pipelines
(:mod:`repro.executor.columnar`) use for vectorized filter masks, key
extraction, aggregation and zone-map scan skipping.

The store costs what is read: a column is encoded — arrays, zone maps and
its encoding decision — the first time anything asks for it, all groups at
once and in group order under the table's store lock.  Encodings depend on
one column's values only, so the state a column reaches is the one an eager
build of every column would have given it, whichever query touches it first
and however late.

Column encodings:

* ``"int64"`` / ``"float64"`` — numeric columns (INTEGER, DATE ordinals,
  FLOAT) as native NumPy arrays.  ``ndarray.tolist()`` round-trips exact
  Python scalars, so values materialized from arrays are byte-identical to
  the heap tuples' values.  An ``"int64"`` column whose values all fit is
  *stored* as int32 (most keys, dates and quantities do): exact under
  comparison and ``tolist()``, widened by its readers before any
  arithmetic, and widened in place by an append that no longer fits.
* ``"dict"`` — low-cardinality string columns: one table-wide, append-only
  dictionary (value → code) plus an ``int32`` code array per group.  NULLs
  encode as code ``-1``.  When the dictionary exceeds the configured
  distinct-value budget the column *overflows* to plain encoding and every
  existing group's codes are decoded in place.
* ``"object"`` — the always-correct fallback: Python objects in an object
  array (mixed types, NULLs, integers beyond int64).

Maintenance: :meth:`Table.append_rows <repro.storage.table.Table.append_rows>`
re-syncs every attached store after each bulk append.  Rows are only ever
appended or truncated, so freshness is a row-count comparison; a stale
store keeps the longest valid prefix of groups and rebuilds just the tail
(at most the previously-partial final group plus the new rows) of the
columns already built.  Encoding demotions (dictionary overflow, int64
overflow, a NULL arriving in a numeric column) re-encode the affected
column across all groups, which keeps every group's representation uniform
per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from .schema import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import Table

import numpy as np

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

#: Cached predicate truth tables per dictionary (each at most
#: ``dictionary_max`` booleans).
_TRUTH_TABLES_MAX = 64


def page_groups(table: "Table", batch_size: int) -> list[tuple[int, int]]:
    """Page ranges matching the serial batch scan's yield boundaries.

    The serial scan accumulates whole pages until at least ``batch_size``
    rows are buffered, then yields; every consumer that wants to reproduce
    the serial batch structure — the batch scan itself and the columnar
    store — derives its geometry from this one
    function so the boundaries can never drift apart.  Every page but the
    table's last is full, so each group is the same number of pages and the
    last takes what is left.
    """
    pages = table.page_count
    step = -(-batch_size // table.rows_per_page)
    return [(first, min(first + step, pages)) for first in range(0, pages, step)]


@dataclass(frozen=True)
class ZoneMap:
    """Min / max / null-count summary of one column over one page group.

    ``min_value`` / ``max_value`` are exact Python values (never NumPy
    scalars) over the group's non-NULL entries, or ``None`` when the group
    holds only NULLs.  A zone map is a *sound over-approximation*: a scan
    predicate that cannot be satisfied by any value in ``[min, max]`` with
    ``null_count == 0`` proves the group matches zero rows.  A float group
    holding a NaN records ``nan`` bounds, which no predicate can disprove.
    """

    min_value: object | None
    max_value: object | None
    null_count: int
    row_count: int

    @property
    def all_null(self) -> bool:
        """Whether every row of the group is NULL in this column."""
        return self.null_count == self.row_count


class _Dictionary:
    """A table-wide, append-only value dictionary for one string column."""

    __slots__ = ("codes", "values", "_values_array", "_truth")

    def __init__(self) -> None:
        self.codes: dict[object, int] = {}
        self.values: list[object] = []
        self._values_array = None
        self._truth: dict = {}

    def encode(self, value: object) -> int:
        code = self.codes.get(value)
        if code is None:
            code = self.codes[value] = len(self.values)
            self.values.append(value)
            self._values_array = None
        return code

    def values_array(self):
        """The dictionary's values as an object array (cached per size)."""
        if self._values_array is None:
            arr = np.empty(len(self.values), dtype=object)
            arr[:] = self.values
            self._values_array = arr
        return self._values_array

    def truth_table(self, key, predicate):
        """``predicate(value)`` for every dictionary value, as a bool array
        indexable by code; cached under ``key`` and extended as the
        dictionary grows.  Raises whatever ``predicate`` raises."""
        table = self._truth.get(key)
        known = 0 if table is None else len(table)
        if table is None or known < len(self.values):
            fresh = np.fromiter(
                (bool(predicate(value)) for value in self.values[known:]),
                dtype=bool,
                count=len(self.values) - known,
            )
            table = fresh if table is None else np.concatenate((table, fresh))
            if len(self._truth) >= _TRUTH_TABLES_MAX:
                self._truth.clear()  # parameterised constants: keep it bounded
            self._truth[key] = table
        return table


class ColumnGroup:
    """One page group: per-column arrays plus per-column zone maps.

    ``arrays`` / ``zones`` hold ``None`` for columns not built yet; read
    them through :meth:`ColumnStore.array` / :meth:`ColumnStore.zone`.
    """

    __slots__ = (
        "index",
        "first_page",
        "last_page",
        "start_row",
        "end_row",
        "arrays",
        "zones",
    )

    def __init__(self, index, first_page, last_page, start_row, end_row, width):
        self.index = index
        self.first_page = first_page
        self.last_page = last_page
        self.start_row = start_row
        self.end_row = end_row
        self.arrays: list = [None] * width
        self.zones: list[ZoneMap | None] = [None] * width

    @property
    def row_count(self) -> int:
        return self.end_row - self.start_row

    @property
    def page_count(self) -> int:
        return self.last_page - self.first_page


class ColumnStore:
    """Columnar shadow of one table at one page-group geometry.

    Created (and cached) through :meth:`Table.column_store`; one store per
    ``(batch_size, dictionary_max)`` pair, because the group geometry is
    the batch geometry.  :meth:`sync` is idempotent and incremental; column
    data is built on first read (:meth:`array`, :meth:`values`,
    :meth:`zone`, :meth:`encoding`).
    """

    def __init__(self, table: "Table", batch_size: int, dictionary_max: int = 256):
        self.table = table
        self.batch_size = batch_size
        self.dictionary_max = dictionary_max
        self.groups: list[ColumnGroup] = []
        self._width = len(table.schema)
        #: Bumped whenever a column is built or sync rebuilds anything
        #: (observability for tests).
        self.version = 0
        #: Row count the group geometry reflects.
        self._rows = 0
        #: Per column: ``(version, zone_bounds(position))``.
        self._bounds: dict[int, tuple] = {}
        #: Per column: :meth:`numeric`, until the rows change.
        self._numeric: dict[int, object] = {}
        self._forget_columns()

    def _forget_columns(self) -> None:
        #: Per-column encoding kind: "int64" | "float64" | "dict" | "object"
        #: — the declared type's until the column is built.
        self.encodings: list[str] = [
            self._initial_encoding(col.dtype) for col in self.table.schema
        ]
        self.dictionaries: list[_Dictionary | None] = [
            _Dictionary() if kind == "dict" else None for kind in self.encodings
        ]
        self._built = [False] * self._width
        #: Per "int64" column: whether its arrays are stored as int32
        #: (None until its first group is encoded).
        self._narrow: list[bool | None] = [None] * self._width

    @staticmethod
    def _initial_encoding(dtype: DataType) -> str:
        if dtype in (DataType.INTEGER, DataType.DATE):
            return "int64"
        if dtype is DataType.FLOAT:
            return "float64"
        return "dict"  # STRING starts dictionary-encoded, may overflow

    # -- maintenance ----------------------------------------------------

    def sync(self) -> None:
        """Bring the store up to date with the table's rows.

        Rows are only appended (or truncated, which resets the store), so
        an unchanged row count means nothing to do.  Otherwise keeps the
        longest prefix of groups whose page bounds *and* row extent still
        match the current geometry (appends can only grow the final,
        previously-partial group) and rebuilds the rest — for the columns
        already built; the others stay unread.
        """
        table = self.table
        nrows = table.row_count
        if nrows == self._rows:
            return
        bounds = page_groups(table, self.batch_size)
        per_page = table.rows_per_page
        keep = 0
        for group, (first_page, last_page) in zip(self.groups, bounds):
            if (
                group.first_page == first_page
                and group.last_page == last_page
                and group.end_row == min(last_page * per_page, nrows)
            ):
                keep += 1
            else:
                break
        del self.groups[keep:]
        built = [position for position in range(self._width) if self._built[position]]
        for index in range(keep, len(bounds)):
            first_page, last_page = bounds[index]
            group = ColumnGroup(
                index,
                first_page,
                last_page,
                first_page * per_page,
                min(last_page * per_page, nrows),
                self._width,
            )
            self.groups.append(group)
            chunk = table.rows[group.start_row : group.end_row]
            for position in built:
                self._encode_group(position, group, chunk)
        self._rows = nrows
        self._numeric.clear()
        self.version += 1

    def reset(self) -> None:
        """Drop everything (table truncated); the next reads rebuild."""
        self.groups.clear()
        self._numeric.clear()
        self._rows = 0
        self._forget_columns()
        self.version += 1

    def _ensure(self, position: int) -> None:
        """Build ``position``'s arrays and zone maps in every group, once.

        Serialized by the table's store lock: two sessions first-touching
        the same column build it once, and neither sees it half-built."""
        if self._built[position]:
            return
        with self.table._store_lock:
            if self._built[position]:
                return
            rows = self.table.rows
            for group in self.groups:
                self._encode_group(
                    position, group, rows[group.start_row : group.end_row]
                )
            self._built[position] = True
            self.version += 1

    # -- encoding -------------------------------------------------------

    def _encode_group(self, position: int, group: ColumnGroup, chunk: list) -> None:
        values = list(map(itemgetter(position), chunk))
        kind = self.encodings[position]
        while True:
            try:
                array, zone = self._encode_as(kind, position, values)
                break
            except _EncodingOverflow:
                kind = self._demote(position)
        group.arrays[position] = array
        group.zones[position] = zone

    def _encode_as(self, kind: str, position: int, values: list) -> tuple:
        # Exact-type gate: NumPy would silently *truncate* a stray float in
        # an int64 array, coerce ints to floats in a float64 one, turn
        # ``True`` into ``1`` (bool is an int subclass) and fold ``1`` and
        # ``1.0`` into one dictionary entry — each breaks the value-level
        # parity contract, so a mistyped value (a NULL in a numeric column
        # included) sends the whole column to the object encoding instead.
        types = set(map(type, values))
        if kind == "dict":
            if not all(issubclass(t, (str, type(None))) for t in types):
                raise _EncodingOverflow
            return self._encode_dict(position, values)
        if kind == "object":
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
            return arr, _zone_of(values)
        if kind == "int64":
            exact = all(
                issubclass(t, int) and not issubclass(t, bool) for t in types
            )
        else:
            exact = all(issubclass(t, float) for t in types)
        if not exact:
            raise _EncodingOverflow
        try:
            arr = np.array(values, dtype=np.int64 if kind == "int64" else np.float64)
        except OverflowError:
            raise _EncodingOverflow from None
        # int64 conversion raises on overflow and float64 stores Python
        # floats exactly (same IEEE 754 representation), so tolist() always
        # returns the original values.
        low, high = arr.min().item(), arr.max().item()
        if kind == "int64":
            fits = _INT32_MIN <= low and high <= _INT32_MAX
            if self._narrow[position] is None:
                self._narrow[position] = fits
            elif self._narrow[position] and not fits:
                # An int32-stored column met a value beyond int32.
                self._narrow[position] = False
                for group in self.groups:
                    if group.arrays[position] is not None:
                        group.arrays[position] = group.arrays[position].astype(
                            np.int64
                        )
            if self._narrow[position]:
                arr = arr.astype(np.int32)
        elif low != low or high != high:  # a NaN: bounds prove nothing
            low = high = float("nan")
        return arr, ZoneMap(low, high, 0, len(values))

    def _encode_dict(self, position: int, values: list) -> tuple:
        dictionary = self.dictionaries[position]
        # First-occurrence order, like encoding value by value.
        for value in dict.fromkeys(values):
            if value is not None:
                dictionary.encode(value)
        if len(dictionary.values) > self.dictionary_max:
            raise _EncodingOverflow
        code_of = {None: -1, **dictionary.codes}
        codes = np.fromiter(
            map(code_of.__getitem__, values), dtype=np.int32, count=len(values)
        )
        present = np.unique(codes).tolist()
        non_null = [dictionary.values[c] for c in present if c >= 0]
        zone = ZoneMap(
            min_value=min(non_null) if non_null else None,
            max_value=max(non_null) if non_null else None,
            null_count=int((codes < 0).sum()) if present and present[0] < 0 else 0,
            row_count=len(values),
        )
        return codes, zone

    def _demote(self, position: int) -> str:
        """Demote a column one step (dict → object, numeric → object) and
        re-encode it in every already-built group."""
        dictionary = self.dictionaries[position]
        self.encodings[position] = "object"
        self.dictionaries[position] = None
        rows = self.table.rows
        for group in self.groups:
            old = group.arrays[position]
            if old is None:
                continue
            arr = np.empty(group.row_count, dtype=object)
            if dictionary is not None:
                values = dictionary.values
                arr[:] = [values[c] if c >= 0 else None for c in old.tolist()]
            else:
                arr[:] = [
                    row[position] for row in rows[group.start_row : group.end_row]
                ]
            group.arrays[position] = arr
        return "object"

    # -- access ---------------------------------------------------------

    def encoding(self, position: int) -> str:
        """The column's encoding kind, learned by building it."""
        self._ensure(position)
        return self.encodings[position]

    def array(self, group: ColumnGroup, position: int):
        """The group's column as stored: dictionary codes for ``"dict"``
        columns, possibly int32 for ``"int64"`` ones."""
        self._ensure(position)
        return group.arrays[position]

    def zone(self, group: ColumnGroup, position: int) -> ZoneMap:
        """The group's zone map for one column."""
        self._ensure(position)
        return group.zones[position]

    def zone_bounds(self, position: int):
        """Every group's zone map for one column as three aligned arrays:
        ``(lows, highs, provable)``.  ``provable`` is False where a group
        holds a NULL or nothing but NULLs — bounds that must never skip a
        group — and its ``lows`` / ``highs`` entries are then arbitrary.
        Cached until the store next changes."""
        cached = self._bounds.get(position)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        zones = [self.zone(group, position) for group in self.groups]
        provable = np.fromiter(
            (z.null_count == 0 and z.min_value is not None for z in zones),
            dtype=bool,
            count=len(zones),
        )
        dtype = {"int64": np.int64, "float64": np.float64}.get(
            self.encodings[position], object
        )
        filler = next((z.min_value for z in zones if z.min_value is not None), 0)
        lows = np.empty(len(zones), dtype=dtype)
        highs = np.empty(len(zones), dtype=dtype)
        lows[:] = [filler if z.min_value is None else z.min_value for z in zones]
        highs[:] = [filler if z.max_value is None else z.max_value for z in zones]
        bounds = (lows, highs, provable)
        self._bounds[position] = (self.version, bounds)
        return bounds

    def numeric(self, position: int):
        """An ``"int64"`` or NaN-free ``"float64"`` column as one array over
        every row (min/max over an index-NL join's inner heap), else None.
        Built on first read; :meth:`sync` and :meth:`reset` drop it."""
        whole = self._numeric.get(position, False)
        if whole is False:
            with self.table._store_lock:
                kind = self.encoding(position)
                whole = None
                if kind in ("int64", "float64") and self.groups:
                    whole = np.concatenate([g.arrays[position] for g in self.groups])
                    if kind == "float64" and np.isnan(whole).any():
                        whole = None
                self._numeric[position] = whole
        return whole

    def values(self, group: ColumnGroup, position: int, sel=None):
        """The group's column in *value space*, optionally narrowed to the
        row indices ``sel``: dictionary columns decoded (strings are built
        per call and not kept; predicates on dictionary columns evaluate
        in code space instead, see :meth:`dict_codes`), everything else as
        stored.  ``tolist()`` of the result is exact; an ``"int64"``
        column may come back as int32, which compares exactly but must be
        widened before arithmetic."""
        array = self.array(group, position)
        if sel is not None:
            array = array[sel]
        if self.dictionaries[position] is not None:
            return self.decode(position, array)
        return array

    def dict_codes(self, group: ColumnGroup, position: int):
        """``(codes, dictionary)`` when the column is dictionary-encoded and
        the group holds no NULL in it, else None.  With no NULL every code
        indexes the dictionary, so a per-value truth table gathered by code
        is the predicate's mask."""
        array = self.array(group, position)
        dictionary = self.dictionaries[position]
        if dictionary is None or group.zones[position].null_count:
            return None
        return array, dictionary

    def decode(self, position: int, codes):
        """Dictionary codes of column ``position`` as their values."""
        decoded = self.dictionaries[position].values_array()[codes]
        nulls = codes < 0
        if nulls.any():
            decoded[nulls] = None
        return decoded


class _EncodingOverflow(Exception):
    """Internal signal: the column's current encoding cannot hold a value."""


def _zone_of(values: list) -> ZoneMap:
    """Exact min/max/null-count of one column chunk, as Python values."""
    null_count = 0
    mn = mx = None
    for value in values:
        if value is None:
            null_count += 1
        elif mn is None:
            mn = mx = value
        elif value < mn:
            mn = value
        elif value > mx:
            mx = value
    return ZoneMap(
        min_value=mn, max_value=mx, null_count=null_count, row_count=len(values)
    )
