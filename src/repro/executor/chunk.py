"""Row-id chunks: what scans and joins emit instead of tuples.

A :class:`Chunk` is a batch of rows that have not been built: a flat
tuple of *sources* — row lists such as a row operator's batch, a hash
join's accumulated build side or a base table's heap, which every
sequential scan's chunk indexes by row id — each paired with an
int64 index vector (``None`` for "every row, in order"), plus the schema map
*output column -> (source, column)*.  Row ``i`` of the chunk is the
concatenation of ``source.rows[ids[i]]`` over the sources, in order.

A join over chunks ``L`` and ``R`` computes ``(left ids, right ids)`` and
returns ``L``'s sources re-indexed by the left ids followed by ``R``'s by
the right ids (:meth:`Chunk.join`): index vectors compose, chunks never
nest, and a 91 620-row intermediate is a handful of int64 vectors over the
few thousand narrow tuples it was joined from.  Consumers read what they
name — :meth:`Chunk.stored` a column in its exact typed form for filter
masks and aggregate folds, :meth:`Chunk.key` a join key, :meth:`Chunk.column`
a column as an array, :meth:`Chunk.values` as Python values for collectors
and object folds — and only a row-oriented consumer (the final result,
sort / distinct, a computed projection, a UDF) builds tuples, through
:meth:`Chunk.rows`, the one place a tuple is made.  A chunk
is a read-only sequence of its rows, so such consumers iterate and
``extend`` from it as they do from the plain row list every other operator
yields; a slice of it is the chunk of those rows.  A switch
spool concatenates the cut's chunks into one that its temporary table
holds, and the table's scan yields it.  A row list is the
degenerate chunk and :func:`as_chunk` wraps one without touching its
rows.
"""

from __future__ import annotations

from operator import add, itemgetter

import numpy as np


def typed(values: list):
    """``values`` as an array whose comparisons are Python's: int64 when
    every value is a plain ``int`` that fits (a bool or float can equal an
    int under ``==`` but not as int64), the objects themselves otherwise."""
    if set(map(type, values)) == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(values, object, len(values))


def numeric(values: list):
    """``values`` as an array whose ``min`` / ``max`` are Python's: int64
    when every value is a plain ``int`` that fits, float64 when every value
    is a ``float`` and none is NaN (Python's ``min`` over a NaN depends on
    where it stands), else None."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return None
    if kinds == {float}:
        array = np.array(values, dtype=np.float64)
        if not np.isnan(array).any():
            return array
    return None


def hash_lane(values) -> np.ndarray:
    """``hash`` of every value, as int64."""
    return np.fromiter(map(hash, values), np.int64, len(values))


#: CPython's 64-bit tuple-hash constants (xxHash's primes).
_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = np.uint64(14029467366897019727)
_XXPRIME_5 = 2870177450012600261


def tuple_hashes(lanes: list) -> np.ndarray:
    """``hash(tuple(row))`` per row from its elements' lanes: CPython's
    tuple hash (``Objects/tupleobject.c``) in wrapping ``uint64``."""
    acc = np.full(len(lanes[0]), _XXPRIME_5, dtype=np.uint64)
    for lane in lanes:
        acc += lane.view(np.uint64) * _XXPRIME_2
        acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
        acc *= _XXPRIME_1
    acc += np.uint64(len(lanes) ^ (_XXPRIME_5 ^ 3527539))
    # -1 is CPython's error return: a tuple hashing to it hashes to this.
    acc[acc == np.uint64(2**64 - 1)] = 1546275796
    return acc.view(np.int64)


class Source:
    """One row list chunks index into, with its columns extracted on demand.

    An owned list (a batch, a build side) extracts a column once, over all
    of its narrow rows, and serves every later read from it in the form the
    reader computes in: the list itself for Python consumers (collectors,
    the sampler), its typed array for kernels (join keys, residual masks),
    its hash lane for distinct sketches —
    a 4 000-value list costs 320 us to turn into an int64 array and 7 us to
    gather from one, so neither form stands in for the other.

    A base table's ``heap`` (its :class:`~repro.storage.columnar.ColumnStore`)
    is never read whole: a read gathers the store's column at the ids it
    names — int32 widened, dictionary codes decoded per gather, floats
    through ``tolist()`` — and touches no tuple.  Where only the tuples give
    the values exactly (an object-encoded or NaN-bearing column, a store
    behind the heap, see :meth:`ColumnStore.exact
    <repro.storage.columnar.ColumnStore.exact>`) it reads the rows it
    names.  A heap read through a plain-column projection carries its
    ``view``: output column -> table column (None: every column, in order).
    """

    __slots__ = ("rows", "width", "heap", "view", "_columns")

    def __init__(self, rows: list, width: int, heap=None, view=None) -> None:
        self.rows = rows
        self.width = width
        self.heap = heap
        self.view = view
        #: ``(column, form)`` -> the column of every row, once read, as a
        #: list (``"values"``), a :func:`typed` or a :func:`numeric` array,
        #: or its :func:`hash_lane` (``"hashes"``).
        self._columns: dict[tuple[int, str], object] = {}

    def _base(self, column: int) -> int:
        """The heap's column behind ``column``, through the view."""
        return column if self.view is None else self.view[column]

    def _exact(self, column: int):
        """The store's ``(column, dictionary)`` behind heap column
        ``column``, or None where only the heap's tuples hold its values
        exactly."""
        verdict = self.heap.exact(self._base(column))
        if verdict is None or len(verdict[0]) != len(self.rows):
            return None  # ... or a store behind the heap: ids may be past it
        return verdict

    def stored(self, column: int, ids):
        """``(array, dictionary)``: the column at ``ids`` in an exact typed
        form — int64 (int32 as the store keeps a column whose values fit:
        exact under comparison and ``tolist()``, widened before a sum),
        NaN-free float64, or with a ``dictionary`` its int32 codes (-1 a
        NULL) — or None where only Python values hold it exactly.  A heap's
        comes from its store, a list's from its :func:`numeric` array."""
        if self.heap is None:
            array = self._columns.get((column, "numeric"), False)
            if array is False:
                array = self._columns[column, "numeric"] = numeric(
                    self.values(column, None)
                )
            if array is None:
                return None
            return (array if ids is None else array[ids]), None
        verdict = self._exact(column)
        if verdict is None:
            return None
        array, dictionary = verdict
        return (array if ids is None else array[ids]), dictionary

    def project(self, columns) -> "Source":
        """This heap source read through ``columns`` (output column -> a
        column of this source): a view remap that touches no data."""
        view = tuple(map(self._base, columns))
        if view == tuple(range(len(self.heap.table.schema))):
            view = None
        return Source(self.rows, len(view or self.heap.table.schema), self.heap, view)

    def values(self, column: int, ids) -> list:
        """Column ``column`` at row indices ``ids`` (None: every row), as
        the rows' own objects (strings, ints and floats: equal objects of
        the same type)."""
        if self.heap is not None:
            pair = self.stored(column, ids)
            if pair is not None:
                array, dictionary = pair
                if dictionary is not None:
                    array = dictionary.decode(array)
                return array.tolist()
            rows = self.rows if ids is None else map(self.rows.__getitem__, ids.tolist())
            return list(map(itemgetter(self._base(column)), rows))
        values = self._columns.get((column, "values"))
        if values is None:
            values = list(map(itemgetter(column), self.rows))
            self._columns[column, "values"] = values
        if ids is None:
            return values
        return list(map(values.__getitem__, ids.tolist()))

    def gather(self, column: int, ids):
        """The same column as an array (see :func:`typed`)."""
        if self.heap is not None:
            pair = self.stored(column, ids)
            if pair is None:
                return typed(self.values(column, ids))
            array, dictionary = pair
            if dictionary is not None:
                return dictionary.decode(array)
            # typed()'s forms: int64, or objects (floats as Python floats).
            if array.dtype == np.float64:
                return array.astype(object)
            return array.astype(np.int64, copy=False)
        array = self._columns.get((column, "typed"))
        if array is None:
            array = self._columns[column, "typed"] = typed(self.values(column, None))
        return array if ids is None else array[ids]

    def bounds(self, column: int, ids):
        """``(min, max)`` of the column at ``ids`` as Python's ``min`` /
        ``max`` return them over :meth:`values` — value and type — or None
        when it has no :func:`numeric` array."""
        if self.heap is not None:
            # Not a dictionary's codes, which order unlike their values, nor
            # an empty column, which has no extremes.
            verdict = self._exact(column)
            array = None
            if verdict is not None and verdict[1] is None and self.rows:
                array = verdict[0]
        else:
            pair = self.stored(column, None)
            array = None if pair is None else pair[0]
        if array is None:
            return None
        if ids is not None:
            array = array[ids]
        # arg* pick the first of equal extremes, as min / max keep theirs:
        # a 0.0 / -0.0 tie comes out with the sign Python's would.
        return array[array.argmin()].item(), array[array.argmax()].item()

    def hashes(self, column: int, ids):
        """:func:`hash_lane` of :meth:`values`: the heap's, kept by its store
        (:meth:`~repro.storage.columnar.ColumnStore.hashes`), or the list's."""
        if self.heap is None:
            lane = self._columns.get((column, "hashes"))
            if lane is None:
                lane = hash_lane(self.values(column, None))
                self._columns[column, "hashes"] = lane
        else:
            lane = self.heap.hashes(self._base(column))
            if len(lane) != len(self.rows):  # a store behind the heap
                return hash_lane(self.values(column, ids))
        return lane if ids is None else lane[ids]

    def tuples(self, ids) -> list:
        """The rows at ``ids`` (None: every row) as tuples: the list's own,
        or built through the ``view`` from the heap's."""
        rows = self.rows if ids is None else list(map(self.rows.__getitem__, ids.tolist()))
        view = self.view
        if view is None:
            return rows
        if len(view) == 1:
            return [(row[view[0]],) for row in rows]
        return list(map(itemgetter(*view), rows))


class Chunk:
    """A batch of rows as index vectors over row sources (see module doc)."""

    __slots__ = ("sources", "ids", "length", "stats", "_columns", "_rows")

    def __init__(self, sources, ids, length: int, stats=None) -> None:
        self.sources: tuple[Source, ...] = sources
        self.ids: list = ids
        self.length = length
        #: The emitting join's ``VectorExecStats.by_node`` record.
        self.stats = stats
        self._columns = None
        self._rows: list | None = None

    @property
    def columns(self) -> list[tuple[int, int]]:
        """The schema map: output column -> (index into ``sources``, column
        of that source).  A chunk's row is its sources' rows concatenated,
        so the map follows from their widths; spelled out on first use."""
        if self._columns is None:
            self._columns = [
                (j, c) for j, s in enumerate(self.sources) for c in range(s.width)
            ]
        return self._columns

    @classmethod
    def join(cls, left, left_ids, right, right_ids, stats=None) -> "Chunk":
        """Rows ``left[left_ids[i]] + right[right_ids[i]]``; None ids pair
        that side's rows as they stand."""
        lids, rids, length = left.ids, right.ids, left.length
        if left_ids is not None:
            lids = [left_ids if v is None else v[left_ids] for v in lids]
            length = len(left_ids)
        if right_ids is not None:
            rids = [right_ids if v is None else v[right_ids] for v in rids]
        return cls(left.sources + right.sources, lids + rids, length, stats)

    @classmethod
    def concat(cls, batches: list, width: int) -> "Chunk":
        """All of ``batches`` (chunks of one shape, or row lists) as one
        chunk.  A source every batch shares keeps its index vectors, end to
        end; per-batch sources are appended into one and their vectors
        shifted."""
        if len(batches) == 1:
            return as_chunk(batches[0], width)
        # A heap source is its own shape: only one all batches share keeps
        # its vectors (its rows are a table's, never appended).
        shapes = {
            tuple(s.width if s.heap is None else s for s in batch.sources)
            if type(batch) is Chunk
            else None
            for batch in batches
        }
        if len(shapes) != 1 or None in shapes:
            rows: list = []
            for batch in batches:
                rows.extend(batch)
            return as_chunk(rows, width)
        sources = []
        vectors = []
        for j, source in enumerate(batches[0].sources):
            shared = all(batch.sources[j] is source for batch in batches)
            # Whole row lists, appended, are still "every row, in order"
            # (what a unique-key probe emits; Q3's collector reads them
            # 1.3 ms a statement faster as lists than through a vector).
            whole = not shared and all(batch.ids[j] is None for batch in batches)
            rows = source.rows if shared else []
            parts = []
            for batch in batches:
                ids, own = batch.ids[j], batch.sources[j].rows
                base = 0 if shared else len(rows)
                if not shared:
                    rows.extend(own)
                if whole:
                    continue
                if ids is None:
                    ids = np.arange(base, base + len(own), dtype=np.int64)
                elif base:
                    ids = ids + base
                parts.append(ids)
            sources.append(source if shared else Source(rows, source.width))
            vectors.append(None if whole else np.concatenate(parts))
        return cls(tuple(sources), vectors, sum(map(len, batches)), batches[0].stats)

    def take(self, selection) -> "Chunk":
        """The rows at positions ``selection`` (an int64 array), unbuilt."""
        return Chunk(
            self.sources,
            [selection if v is None else v[selection] for v in self.ids],
            len(selection),
            self.stats,
        )

    def column(self, position: int):
        """One output column as an array (int64 or object, see
        :func:`typed`), gathered through its source's index vector."""
        j, c = self.columns[position]
        return self.sources[j].gather(c, self.ids[j])

    def stored(self, position: int):
        """One output column in its exact typed form (see
        :meth:`Source.stored`), or None."""
        j, c = self.columns[position]
        return self.sources[j].stored(c, self.ids[j])

    def key(self, position: int):
        """A join key column: a dictionary column as ``(codes,
        dictionary)``, which a probe translates once per dictionary value,
        any other as :meth:`column`."""
        pair = self.stored(position)
        if pair is not None and pair[1] is not None:
            return pair
        return self.column(position)

    def bounds(self, position: int):
        """``(min, max)`` of one output column (see :meth:`Source.bounds`),
        gathered from a typed array through its index vector; None when
        the column must be folded as Python values."""
        j, c = self.columns[position]
        return self.sources[j].bounds(c, self.ids[j])

    def values(self, position: int, at=None) -> list:
        """One output column as Python values (the source rows' own
        objects), for every row or for the rows at offsets ``at``."""
        j, c = self.columns[position]
        ids = self.ids[j]
        if at is not None:
            at = np.asarray(at, dtype=np.int64)
            ids = at if ids is None else ids[at]
        return self.sources[j].values(c, ids)

    def hashes(self, positions: tuple) -> np.ndarray:
        """``hash`` per row of the value at one position, of the tuple of
        the values at several: from the columns' lanes, building no value
        or tuple.  Read only (a lane may be its source's own)."""
        lanes = [
            self.sources[j].hashes(c, self.ids[j])
            for j, c in map(self.columns.__getitem__, positions)
        ]
        return lanes[0] if len(lanes) == 1 else tuple_hashes(lanes)

    def rows(self) -> list:
        """The chunk's rows as tuples, built once from the sources' own
        tuples (so every value is the original object)."""
        out = self._rows
        if out is None:
            parts = [
                source.tuples(ids) for source, ids in zip(self.sources, self.ids)
            ]
            out = parts[0]
            for part in parts[1:]:
                out = list(map(add, out, part))
            if self.stats is not None:
                self.stats["rows_materialised"] += self.length
            self._rows = out
        return out

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, item):
        """A row, or for a slice the chunk of those rows: unbuilt, or
        carrying the matching slice of this chunk's rows once built (so
        they are not built, nor counted, twice)."""
        if type(item) is not slice:
            return self.rows()[item]
        part = self.take(np.arange(*item.indices(self.length), dtype=np.int64))
        if self._rows is not None:
            part._rows = self._rows[item]
        return part


def as_chunk(batch, width: int, heap=None) -> Chunk:
    """``batch`` as a chunk: itself, or a row list wrapped as the single
    source it already is (nothing is allocated per row); ``heap`` marks a
    base table's rows, by the table's column store (see :class:`Source`)."""
    if type(batch) is Chunk:
        return batch
    return Chunk((Source(batch, width, heap),), [None], len(batch))
