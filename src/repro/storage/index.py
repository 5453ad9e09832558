"""Sorted indexes.

A :class:`Index` is a B+-tree stand-in: a sorted array of ``(key, row_index)``
pairs over one column of a table, with the page geometry of a real tree
(fan-out derived from key width, computed height, leaf-page counts).  Lookups
return matching row indices; the executor's index-scan and indexed
nested-loops iterators use the geometry to charge realistic costs:

* traversal: ``height`` random page reads,
* leaf scan: ``ceil(matches / entries_per_leaf)`` sequential reads,
* row fetch: sequential for a clustered index, one random read per row
  (capped at the table's page count for repeated keys) for an unclustered one.

These are the classical System-R style index cost terms; the optimizer's cost
model mirrors them exactly, so estimated and actual index costs differ only
through cardinality errors — which is precisely the error source the paper's
algorithm targets.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain

import numpy as np

from ..errors import StorageError
from .table import Table

#: Bytes per index entry beyond the key itself (row pointer).
ENTRY_POINTER_BYTES = 8


def expand_runs(starts, counts):
    """The indices ``starts[i] .. starts[i] + counts[i] - 1`` of every run
    ``i``, concatenated in run order (int64 arrays in, one out)."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )


class Index:
    """A sorted single-column index over a :class:`Table`."""

    def __init__(self, name: str, table: Table, column: str, clustered: bool = False) -> None:
        self.name = name
        self.table = table
        self.column = table.schema.column(column).name
        self.clustered = clustered
        self._position = table.schema.index_of(column)
        self._sort()
        key_width = table.schema.columns[self._position].width
        self.entries_per_leaf = max(2, table.page_size // (key_width + ENTRY_POINTER_BYTES))

    def __repr__(self) -> str:
        kind = "clustered" if self.clustered else "unclustered"
        return f"Index({self.name!r} on {self.table.name}.{self.column}, {kind})"

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def leaf_pages(self) -> int:
        """Number of leaf pages in the simulated tree."""
        if not self.keys:
            return 0
        return math.ceil(len(self.keys) / self.entries_per_leaf)

    @property
    def height(self) -> int:
        """Height of the simulated tree (inner levels above the leaves)."""
        leaves = self.leaf_pages
        if leaves <= 1:
            return 1
        return 1 + max(1, math.ceil(math.log(leaves, self.entries_per_leaf)))

    def lookup_eq(self, key) -> list[int]:
        """Row indices whose key equals ``key`` (may be empty)."""
        lo = bisect.bisect_left(self.keys, key)
        hi = bisect.bisect_right(self.keys, key)
        return self.row_indices[lo:hi]

    def lookup_range(self, low=None, high=None, low_inclusive: bool = True,
                     high_inclusive: bool = True) -> list[int]:
        """Row indices with keys in the given (possibly open-ended) range."""
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(self.keys, low)
        else:
            lo = bisect.bisect_right(self.keys, low)
        if high is None:
            hi = len(self.keys)
        elif high_inclusive:
            hi = bisect.bisect_right(self.keys, high)
        else:
            hi = bisect.bisect_left(self.keys, high)
        if hi < lo:
            return []
        return self.row_indices[lo:hi]

    def _int64_arrays(self):
        """``(keys, row_indices)`` as int64 arrays, built on first use, or
        None when a key is not a plain int64-representable ``int`` (a float
        or bool can equal an int under ``==`` but not as int64)."""
        if self._arrays is None:
            arrays = False
            if set(map(type, self.keys)) <= {int}:
                try:
                    arrays = (
                        np.array(self.keys, dtype=np.int64),
                        np.array(self.row_indices, dtype=np.int64),
                    )
                except OverflowError:
                    pass
            self._arrays = arrays
        return self._arrays or None

    def lookup_many(self, keys):
        """``(match_counts, row_ids)`` for a whole array of lookup keys:
        per key, in order, what :meth:`lookup_eq` returns — how many rows
        match and, flattened in that order, which.

        An int64 key array over int64 index keys is answered by two
        ``searchsorted`` sweeps; anything else asks :meth:`lookup_eq` once
        per distinct key."""
        arrays = self._int64_arrays()
        if arrays is not None and keys.dtype.kind == "i":
            index_keys, row_indices = arrays
            lo = np.searchsorted(index_keys, keys, side="left")
            counts = np.searchsorted(index_keys, keys, side="right") - lo
            return counts, row_indices[expand_runs(lo, counts)]
        found: dict = {}
        per_key = [
            found[key] if key in found else found.setdefault(key, self.lookup_eq(key))
            for key in keys.tolist()
        ]
        counts = np.fromiter(map(len, per_key), np.int64, len(per_key))
        row_ids = np.fromiter(chain.from_iterable(per_key), np.int64, int(counts.sum()))
        return counts, row_ids

    def leaf_pages_for(self, match_count: int) -> int:
        """Leaf pages touched when reading ``match_count`` consecutive entries."""
        if match_count <= 0:
            return 0
        return math.ceil(match_count / self.entries_per_leaf)

    def fetch_page_reads(self, match_count: int) -> tuple[float, float]:
        """Estimated ``(sequential, random)`` page reads to fetch matched rows.

        Clustered indexes read the matching heap pages sequentially; an
        unclustered index pays one random read per row, capped at the table's
        page count (further fetches would be buffer hits in the real system).
        """
        if match_count <= 0:
            return (0.0, 0.0)
        if self.clustered:
            return (self.table.schema.page_count(match_count, self.table.page_size), 0.0)
        return (0.0, float(min(match_count, self.table.page_count)))

    def rebuild(self) -> None:
        """Re-sort the index after its table was bulk-loaded again."""
        self._sort()

    def _sort(self) -> None:
        pairs = sorted(
            (row[self._position], i) for i, row in enumerate(self.table.rows)
        )
        self.keys: list = [k for k, _ in pairs]
        self.row_indices: list[int] = [i for _, i in pairs]
        #: ``_int64_arrays``' cache: None until asked, False when declined.
        self._arrays = None


def build_index(name: str, table: Table, column: str, clustered: bool = False) -> Index:
    """Construct an index, validating that the column exists on the table."""
    if not table.schema.has_column(column):
        raise StorageError(f"cannot index unknown column {column!r} on {table.name!r}")
    return Index(name, table, column, clustered=clustered)
