"""Column store: one typed NumPy array per column over every row.

A :class:`ColumnStore` is a columnar shadow of a heap :class:`~.table.Table`:
one encoded array per column, over every row of the table.  The heap rows
remain the source of truth — the store is a derived,
incrementally-maintained acceleration structure that every heap chunk
reads its columns from (:class:`repro.executor.chunk.Source`): filter
masks, join keys, aggregate folds and collectors alike.

The store costs what is read: a column is encoded — array and encoding
decision — the first time anything asks for it, under the table's store
lock.  Encodings depend on one column's values only, so the state a column
reaches is the one an eager build of every column would have given it,
whichever query touches it first and however late.

Column encodings:

* ``"int64"`` / ``"float64"`` — numeric columns (INTEGER, DATE ordinals,
  FLOAT) as native NumPy arrays.  ``ndarray.tolist()`` round-trips exact
  Python scalars, so values materialized from arrays are byte-identical to
  the heap tuples' values.  An ``"int64"`` column whose values all fit is
  *stored* as int32 (most keys, dates and quantities do): exact under
  comparison and ``tolist()``, widened by its readers before any
  arithmetic, and widened by an append that no longer fits.
* ``"dict"`` — low-cardinality string columns: one table-wide, append-only
  dictionary (value → code) plus an ``int32`` code array.  NULLs encode as
  code ``-1``.  When the dictionary exceeds the configured distinct-value
  budget the column *overflows* to the object encoding.
* ``"object"`` — the always-correct fallback: Python objects in an object
  array (mixed types, NULLs, integers beyond int64).

Maintenance: :meth:`Table.append_rows <repro.storage.table.Table.append_rows>`
re-syncs every attached store after each bulk append.  Rows are only ever
appended or truncated, so freshness is a row-count comparison; a stale
store encodes just the appended rows of the columns already built, onto
the end of each column.  Encoding demotions (dictionary overflow, int64
overflow, a NULL arriving in a numeric column) re-encode the whole column
as objects, so a column has one representation over every row.
"""

from __future__ import annotations

from itertools import islice
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

    def decode(self, codes):
        """``codes`` as an object array of their values; a NULL's ``-1``
        lands on the trailing None of the cached values array."""
        values = self._values_array
        if values is None or len(values) != len(self.values) + 1:
            values = np.empty(len(self.values) + 1, dtype=object)
            values[:-1] = self.values
            self._values_array = values
        return values[codes]

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


class ColumnStore:
    """Columnar shadow of one table at one dictionary budget.

    Created (and cached) through :meth:`Table.column_store`, one store per
    ``dictionary_max``.  :meth:`sync` is idempotent and incremental; column
    data is built on first read (:meth:`array`, :meth:`values`,
    :meth:`encoding`).
    """

    def __init__(self, table: "Table", dictionary_max: int = 256):
        self.table = table
        self.dictionary_max = dictionary_max
        self._width = len(table.schema)
        #: Bumped whenever a column is built or sync rebuilds anything
        #: (observability for tests).
        self.version = 0
        #: Row count the built columns reflect.
        self._rows = 0
        #: Per column: :meth:`exact` and :meth:`hashes`, until the rows change.
        self._exact: dict[int, object] = {}
        self._hashes: dict[int, np.ndarray] = {}
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
        #: Per column: its array over every row, once built.
        self._columns: list = [None] * self._width
        #: Per "int64" column: whether it is stored as int32.
        self._narrow: list[bool] = [False] * self._width

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
        an unchanged row count means nothing to do.  Otherwise encodes the
        appended rows onto the columns already built; the others stay
        unread.
        """
        nrows = self.table.row_count
        if nrows == self._rows:
            return
        start, self._rows = self._rows, nrows
        for position in range(self._width):
            if self._built[position]:
                self._encode(position, start)
        self._exact.clear()
        self._hashes.clear()
        self.version += 1

    def reset(self) -> None:
        """Drop everything (table truncated); the next reads rebuild."""
        self._exact.clear()
        self._hashes.clear()
        self._rows = 0
        self._forget_columns()
        self.version += 1

    def _ensure(self, position: int) -> None:
        """Build ``position``'s array, once.

        Serialized by the table's store lock: two sessions first-touching
        the same column build it once, and neither sees it half-built."""
        if self._built[position]:
            return
        with self.table._store_lock:
            if self._built[position]:
                return
            self._encode(position, 0)
            self._built[position] = True
            self.version += 1

    # -- encoding -------------------------------------------------------

    def _encode(self, position: int, start: int) -> None:
        """Encode rows ``start ..`` of column ``position`` onto the end of
        its array.  A value the encoding cannot hold demotes the column and
        re-encodes all of it."""
        while True:
            kind = self.encodings[position]
            values = list(
                map(itemgetter(position), islice(self.table.rows, start, self._rows))
            )
            try:
                tail = self._encode_as(kind, position, values)
                break
            except _EncodingOverflow:
                self.encodings[position] = "object"
                self.dictionaries[position] = None
                start = 0
        if kind == "int64" and len(tail):
            # Stored as int32 while every value so far fits.
            self._narrow[position] = (start == 0 or self._narrow[position]) and (
                _INT32_MIN <= tail.min() and tail.max() <= _INT32_MAX
            )
            if self._narrow[position]:
                tail = tail.astype(np.int32)
        if start:
            # An int32 prefix meeting an int64 tail widens here.
            tail = np.concatenate((self._columns[position], tail))
        self._columns[position] = tail

    def _encode_as(self, kind: str, position: int, values: list):
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
            return arr
        if kind == "int64":
            exact = all(
                issubclass(t, int) and not issubclass(t, bool) for t in types
            )
        else:
            exact = all(issubclass(t, float) for t in types)
        if not exact:
            raise _EncodingOverflow
        # int64 conversion raises on overflow and float64 stores Python
        # floats exactly (same IEEE 754 representation), so tolist() always
        # returns the original values.
        try:
            return np.array(values, dtype=np.int64 if kind == "int64" else np.float64)
        except OverflowError:
            raise _EncodingOverflow from None

    def _encode_dict(self, position: int, values: list):
        dictionary = self.dictionaries[position]
        # First-occurrence order, like encoding value by value.
        for value in dict.fromkeys(values):
            if value is not None:
                dictionary.encode(value)
        if len(dictionary.values) > self.dictionary_max:
            raise _EncodingOverflow
        code_of = {None: -1, **dictionary.codes}
        return np.fromiter(
            map(code_of.__getitem__, values), dtype=np.int32, count=len(values)
        )

    # -- access ---------------------------------------------------------

    def encoding(self, position: int) -> str:
        """The column's encoding kind, learned by building it."""
        self._ensure(position)
        return self.encodings[position]

    def array(self, position: int, sel=None):
        """The column as stored — dictionary codes for ``"dict"`` columns,
        possibly int32 for ``"int64"`` ones — over every row, or at the row
        indices (or slice) ``sel``."""
        self._ensure(position)
        column = self._columns[position]
        return column if sel is None else column[sel]

    def exact(self, position: int):
        """``(column, dictionary)`` when :meth:`array` gathered, decoded
        through ``dictionary`` (unless None) and ``tolist()``-ed gives the
        heap's values: every encoding but ``"object"`` and a ``"float64"``
        column holding a NaN (each heap NaN is its own object, and a group
        or a sketch keys on it); else None.  Kept until :meth:`sync` or
        :meth:`reset`; one pair, so codes never meet another dictionary."""
        verdict = self._exact.get(position, False)
        if verdict is False:
            verdict = None
            kind = self.encoding(position)
            column = self._columns[position]
            if kind != "object" and not (kind == "float64" and np.isnan(column).any()):
                verdict = (column, self.dictionaries[position])
            self._exact[position] = verdict
        return verdict

    def hashes(self, position: int):
        """``hash`` of the column's value in every heap row, as int64 (the
        heap's own objects: object and NaN columns have a lane too).  Kept
        until :meth:`sync` or :meth:`reset`, like :meth:`exact`."""
        lane = self._hashes.get(position)
        if lane is None:
            values = map(itemgetter(position), islice(self.table.rows, self._rows))
            lane = np.fromiter(map(hash, values), np.int64, self._rows)
            self._hashes[position] = lane
        return lane

    def values(self, position: int, sel=None):
        """:meth:`array` in *value space*: dictionary columns decoded
        (strings are built per call and not kept; predicates on dictionary
        columns evaluate in code space instead, see :meth:`dict_codes`),
        everything else as stored.  ``tolist()`` of the result is exact; an
        ``"int64"`` column may come back as int32, which compares exactly
        but must be widened before arithmetic."""
        array = self.array(position, sel)
        dictionary = self.dictionaries[position]
        return array if dictionary is None else dictionary.decode(array)

    def dict_codes(self, position: int, sel=None):
        """``(codes, dictionary)`` when the column is dictionary-encoded and
        holds no NULL in the rows read, else None.  With no NULL every code
        indexes the dictionary, so a per-value truth table gathered by code
        is the predicate's mask."""
        array = self.array(position, sel)
        dictionary = self.dictionaries[position]
        if dictionary is None or (array < 0).any():
            return None
        return array, dictionary


class _EncodingOverflow(Exception):
    """Internal signal: the column's current encoding cannot hold a value."""
