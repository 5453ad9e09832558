"""Vectorized group-by folding and join-probe kernels (NumPy).

The kernels the column-space leaf pipelines (:mod:`repro.executor.columnar`)
fold aggregates and probe hash joins with, under the engine's unconditional
bit-parity contract: every result byte — including float64 SUM/AVG totals
— must match the serial ``_AggState`` accumulator exactly.

Float SUM parity argument
-------------------------
The serial fold is a strict left-to-right accumulation::

    total = 0
    for value in run:          # run = the group's values in row order
        total += value

Floating-point addition is not associative, so a vectorized SUM is only
bit-identical if it performs *the same additions in the same order*.
``np.add.reduceat`` does **not** guarantee that: NumPy reduces contiguous
float64 segments with pairwise/SIMD blocking, so reduceat totals diverge
from the serial fold in the low bits.  What *is* a strict sequential fold
(verified by :func:`_probe_axis0_left_fold` at import time) is the axis-0
reduction of a C-contiguous 2-D float64 matrix with at least two columns:
``np.add.reduce(m, axis=0)`` walks rows top to bottom, adding row ``i`` to
the running accumulator row — the inner (column) dimension is what gets
vectorized, the group dimension, so the per-column fold order is exactly
the serial order.  (A single-column matrix falls back to NumPy's pairwise
1-D path, so kernels always pad the group dimension to >= 2.)

:func:`float_group_sums` therefore gathers each group's values in row
order into its own matrix column, front-padded with ``+0.0`` so every
column folds ``0.0 + v0 + v1 + ...`` — bit-identical to the serial fold's
``0 + v0 + ...`` start (``0 + (-0.0)`` is ``+0.0`` under both Python and
IEEE 754 addition, so the zero padding is exact, never a no-op
approximation).  Groups are bucketed into power-of-two length classes so
the padding overhead is bounded by 2x even under heavy group skew.

The matrix pays a scatter and a reduction over up to twice the input, which
only amortises across *many short* runs.  A run of :data:`LONG_RUN` values
or more folds instead with ``np.add.accumulate`` over ``[+0.0, v0, v1, ...]``
— a prefix sum is a strict left fold by definition (element ``i`` is
element ``i - 1`` plus ``v_i``, one IEEE 754 addition each, exactly the
serial loop's), also verified at import (:func:`_probe_accumulate_left_fold`).
The choice is made per group from its run length, never by an option.

If a future NumPy changes the axis-0 fold (e.g. blocks over rows), the
import-time probe fails closed: :func:`kernels_available` returns False
and every caller falls back to the serial fold, keeping parity at the
cost of speed.  If only the accumulate probe fails, long runs take the
(still verified) matrix fold.

MIN/MAX and integers
--------------------
``np.minimum/np.maximum.reduceat`` are order-insensitive *except* for
signed-zero ties (NumPy keeps the second operand, the serial strict
comparison keeps the first) and NaNs (SIMD min/max may drop them, the
serial keep-first fold propagates position-dependently).  Groups
containing ``±0.0`` or NaN are detected vectorially and recomputed with
an exact serial-replica loop; everything else takes the reduceat result,
which is bitwise unique when no such tie exists.  Integer SUM is fully
associative, so ``np.add.reduceat`` is exact — guarded by an overflow
bound (NumPy int64 wraps silently, Python ints do not) with an
object-dtype reduceat fallback that folds arbitrary-precision Python
ints.  COUNT is ``np.bincount`` (counting NULLs, like the serial
``update``'s unconditional ``count += 1``).

Join probe
----------
:class:`ProbeIndex` *is* the hash-join build structure: born from the build
side's key columns, it codes each column exactly (int64 values by
arithmetic, everything else through a Python dict — the serial lookup's
own equality), folds the codes into one key per row and sorts the build
row ids once with a stable argsort — equal keys keep build-input order.
Each probe batch is one table gather and a ``np.repeat`` expansion into
``(build slots, probe positions)``, in probe-row order with build matches
in build order: exactly the serial ``hash_table.get`` loop's emission
order.  No joined tuple is built here (see :mod:`repro.executor.chunk`).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Sequence

import numpy as _np

from ..errors import ExecutionError
from ..plans.logical import AggFunc, AggregateExpr, ColumnExpr
from ..plans.physical import HashAggregateNode
from ..storage.index import expand_runs


# ----------------------------------------------------------------------
# The serial accumulator every kernel must match
# ----------------------------------------------------------------------


#: Whether builtin sum() performs a plain left-to-right addition fold.
#: Python 3.12+ switched float sum() to Neumaier compensated summation —
#: more accurate, but not bit-identical to :meth:`_AggState.update`'s
#: running ``total += value`` — so :meth:`_AggState.update_batch` only takes
#: the sum() fast path when the two folds provably agree.
_SUM_IS_LEFT_FOLD = sum([1e16, 1.0, -1e16]) == ((1e16 + 1.0) + -1e16)


class _AggState:
    """Running state for one aggregate expression within one group."""

    __slots__ = ("func", "count", "total", "minimum", "maximum")

    def __init__(self, func: AggFunc) -> None:
        self.func = func
        self.count = 0
        self.total = 0  # stays int for integer inputs, like Python sum()
        self.minimum = None
        self.maximum = None

    def update(self, value) -> None:
        self.count += 1
        if value is None:
            return
        if self.func in (AggFunc.SUM, AggFunc.AVG):
            self.total += value
        elif self.func is AggFunc.MIN:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.func is AggFunc.MAX:
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def update_batch(self, values: Sequence) -> None:
        """Fold a whole batch of argument values into the state.

        Equivalent to calling :meth:`update` once per value in order:
        additions and comparisons happen left-to-right over the same
        operands, so float totals and min/max are bit-identical to the
        row path's.  NULL (None) arguments still count but do not fold.
        """
        self.count += len(values)
        func = self.func
        if func is AggFunc.COUNT or not values:
            return
        if func is AggFunc.SUM or func is AggFunc.AVG:
            if _SUM_IS_LEFT_FOLD:
                try:
                    self.total = sum(values, self.total)
                    return
                except TypeError:
                    pass  # None present, or non-numeric values: exact loop.
            total = self.total
            for value in values:
                if value is not None:
                    total += value
            self.total = total
        elif func is AggFunc.MIN:
            # Seeded with the running minimum, so a NaN leading the batch
            # meets the same comparisons it meets in update().
            best = self.minimum
            try:
                best = min(values) if best is None else min(chain((best,), values))
            except TypeError:
                # None mixed with values: replicate the row path's skip.
                for value in values:
                    if value is not None and (best is None or value < best):
                        best = value
            self.minimum = best
        else:
            best = self.maximum
            try:
                best = max(values) if best is None else max(chain((best,), values))
            except TypeError:
                for value in values:
                    if value is not None and (best is None or value > best):
                        best = value
            self.maximum = best

    def result(self):
        if self.func is AggFunc.COUNT:
            return self.count
        if self.count == 0:
            return None
        if self.func is AggFunc.SUM:
            return self.total
        if self.func is AggFunc.AVG:
            return self.total / self.count
        if self.func is AggFunc.MIN:
            return self.minimum
        return self.maximum


AggItem = tuple[int, AggFunc, "Callable | None"]


def aggregate_items(
    node: HashAggregateNode,
) -> tuple[
    tuple[int, ...],
    tuple[AggItem, ...],
    tuple[tuple[int, int], ...],
    tuple[int | None, ...],
]:
    """Group positions, aggregate items, group outputs and each aggregate's
    argument column (None for COUNT(*) or a computed argument), cached on
    the node."""

    def build():
        child_schema = node.child.schema
        group_positions = tuple(child_schema.index_of(col) for col in node.group_by)
        agg_items: list[AggItem] = []
        group_outputs: list[tuple[int, int]] = []
        arg_columns: list[int | None] = []
        for out_index, item in enumerate(node.output):
            if isinstance(item.expr, AggregateExpr):
                arg = item.expr.arg
                column = None
                if arg is None:
                    arg_fn = None
                elif isinstance(arg, ColumnExpr):
                    # itemgetter extracts at C speed under map() in the
                    # batch path's per-group folds.
                    column = child_schema.index_of(arg.name)
                    arg_fn = itemgetter(column)
                else:
                    arg_fn = arg.compile(child_schema)
                agg_items.append((out_index, item.expr.func, arg_fn))
                arg_columns.append(column)
            elif isinstance(item.expr, ColumnExpr):
                group_outputs.append(
                    (out_index, child_schema.index_of(item.expr.name))
                )
            else:
                raise ExecutionError(
                    f"non-aggregate output {item.name!r} must be a group column"
                )
        return (
            group_positions,
            tuple(agg_items),
            tuple(group_outputs),
            tuple(arg_columns),
        )

    return node.compiled("aggregate_items", build)


# ----------------------------------------------------------------------
# Kernel self-checks
# ----------------------------------------------------------------------



#: Operand sets whose sums differ between sequential and pairwise,
#: blocked or compensated summation orders.
_PROBE_CASES = (
    [1e16, 1.0, 1.0, -1e16],
    [1.0, 1e100, 1.0, -1e100, 1.0],
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    [1e308, 1e308, -1e308, -1e308, 1.0],
    [0.1] * 300 + [1e16, 1.0, -1e16] + [0.3] * 300,
)


def _probe_axis0_left_fold() -> bool:
    """Whether ``np.add.reduce(matrix, axis=0)`` is a strict top-to-bottom
    sequential fold for float64 — the property the float SUM kernels need.

    Probes adversarial operand sets whose sums differ between sequential
    and pairwise/compensated orders, at several matrix widths, plus the
    signed-zero prefix identity (``0.0 + -0.0`` must normalise to
    ``+0.0``).  Any mismatch fails closed to the serial fold.
    """
    for values in _PROBE_CASES:
        total = 0.0
        for value in values:
            total = total + value
        for width in (2, 3, 7):
            matrix = _np.zeros((len(values) + 1, width), dtype=_np.float64)
            matrix[1:, 0] = values
            with _np.errstate(over="ignore", invalid="ignore"):
                folded = _np.add.reduce(matrix, axis=0)[0]
            if folded != total and not (
                _np.isnan(folded) and total != total
            ):
                return False
    matrix = _np.zeros((2, 2), dtype=_np.float64)
    matrix[1, 0] = -0.0
    zero = _np.add.reduce(matrix, axis=0)[0]
    return zero == 0.0 and not _np.signbit(zero)


def _accumulate_sum(run, buffer):
    """``0.0 + run[0] + run[1] + ...`` by prefix sum; ``buffer`` is float64
    scratch of at least ``len(run) + 1`` elements whose slot 0 holds +0.0."""
    end = len(run) + 1
    buffer[1:end] = run
    with _np.errstate(over="ignore", invalid="ignore"):
        _np.add.accumulate(buffer[:end], out=buffer[:end])
    return buffer[end - 1]


def _probe_accumulate_left_fold() -> bool:
    """Whether ``np.add.accumulate`` over a 1-D float64 array reproduces
    the serial ``total += value`` loop bit for bit, signed-zero start
    included.  Any mismatch fails closed to the matrix fold."""
    for values in _PROBE_CASES + ([-0.0],):
        total = 0.0
        for value in values:
            total = total + value
        buffer = _np.zeros(len(values) + 1, dtype=_np.float64)
        folded = _accumulate_sum(_np.array(values, dtype=_np.float64), buffer)
        if folded.tobytes() != _np.float64(total).tobytes() and not (
            _np.isnan(folded) and total != total
        ):
            return False
    return True


_KERNELS_OK = _probe_axis0_left_fold()
_ACCUMULATE_OK = _probe_accumulate_left_fold()

#: Shortest run the accumulate fold takes over the padded-matrix fold
#: (measured crossover on 300 000 values: 64-value runs fold in 7.8 ms by
#: accumulate vs 11.2 ms by matrix, 32-value runs in 13.7 vs 11.1 ms).
LONG_RUN = 64

#: Dense factorization allocates two arrays over the key span; beyond
#: ``max(_DENSE_SPAN_FLOOR, _DENSE_SPAN_PER_ROW * rows)`` the sort-based path
#: is cheaper.
_DENSE_SPAN_FLOOR = 1 << 16
_DENSE_SPAN_PER_ROW = 8
#: A probe index is read once per probe row, so it affords a sparser
#: direct-address table than a factorization: up to 64 slots per build row
#: (a 2 % selection of a surrogate-key domain), never more than 4M slots.
_PROBE_SPAN_PER_KEY = 64
_PROBE_SPAN_CEILING = 1 << 22


def _probe_span_limit(rows: int) -> int:
    """The widest key span a build side of ``rows`` addresses directly."""
    return min(_PROBE_SPAN_CEILING, max(_DENSE_SPAN_FLOOR, _PROBE_SPAN_PER_KEY * rows))


def kernels_available() -> bool:
    """Whether the vectorized fold kernels may run (the axis-0
    sequential-fold property verified)."""
    return _KERNELS_OK


# ----------------------------------------------------------------------
# Group-key factorization (first-occurrence order)
# ----------------------------------------------------------------------


def factorize_array(array):
    """Factorize an integer array into first-occurrence-ordered group codes.

    Returns ``(codes, keys, firsts)``: ``codes[i]`` is the group of row
    ``i``, ``keys`` the distinct values with ``keys[g]`` the value first
    seen among rows of group ``g``, and ``firsts[g]`` that first row's
    index.  Exact for integer dtypes (int64 values, dictionary codes);
    float arrays must go through :func:`factorize_values`, whose Python
    dict replicates the serial path's NaN/signed-zero key semantics.

    A dense value domain (dictionary codes, surrogate keys) factorizes
    without sorting: one ``minimum.at`` scatter finds every value's first
    row; only the distinct values are then ordered.  Sparse domains sort
    through ``np.unique``.  Both return identical arrays.
    """
    rows = len(array)
    if rows:
        low = int(array.min())
        span = int(array.max()) - low + 1
        if span <= max(_DENSE_SPAN_FLOOR, _DENSE_SPAN_PER_ROW * rows):
            offsets = array.astype(_np.int64) - low
            first = _np.full(span, rows, dtype=_np.int64)
            _np.minimum.at(first, offsets, _np.arange(rows, dtype=_np.int64))
            present = _np.nonzero(first < rows)[0]
            present = present[_np.argsort(first[present], kind="stable")]
            rank = _np.empty(span, dtype=_np.int64)
            rank[present] = _np.arange(len(present), dtype=_np.int64)
            return rank[offsets], (present + low).astype(array.dtype), first[present]
    uniq, first, inverse = _np.unique(
        array, return_index=True, return_inverse=True
    )
    order = _np.argsort(first, kind="stable")
    rank = _np.empty(len(order), dtype=_np.int64)
    rank[order] = _np.arange(len(order), dtype=_np.int64)
    return rank[inverse], uniq[order], first[order]


def factorize_values(values: Sequence):
    """Factorize a Python value sequence with serial-dict key semantics.

    The mapping dict buckets exactly like the serial fold's ``groups``
    dict (hash then identity-or-equality), so ``0.0``/``-0.0`` share a
    group keyed by the first occurrence and each distinct NaN object forms
    its own group — byte-identical grouping for every input the serial
    path accepts.  Returns ``(codes, keys)``.
    """
    codes = _np.empty(len(values), dtype=_np.int64)
    mapping: dict = {}
    keys: list = []
    get = mapping.get
    for i, value in enumerate(values):
        code = get(value, -1)
        if code < 0:
            code = len(keys)
            mapping[value] = code
            keys.append(value)
        codes[i] = code
    return codes, keys


# ----------------------------------------------------------------------
# Grouped folds
# ----------------------------------------------------------------------


def group_layout(codes, n_groups: int):
    """Stable-gather layout: ``(counts, order, starts)`` where ``order``
    sorts rows by group with original row order preserved inside each
    group and ``starts[g]`` is group ``g``'s first slot in that order.

    Up to 65 536 groups the codes sort as 8- or 16-bit integers, for which
    NumPy's stable sort is an O(n) radix sort; the permutation is the one
    the int64 stable argsort returns (a stable order is unique)."""
    counts = _np.bincount(codes, minlength=n_groups)
    if n_groups <= 1 << 8:
        codes = codes.astype(_np.uint8)
    elif n_groups <= 1 << 16:
        codes = codes.astype(_np.uint16)
    order = _np.argsort(codes, kind="stable")
    starts = _np.zeros(n_groups, dtype=_np.int64)
    if n_groups > 1:
        _np.cumsum(counts[:-1], out=starts[1:])
    return counts, order, starts


def float_group_sums(values, codes, n_groups: int, layout=None) -> list:
    """Exact serial-order SUM per group for a float64 array (no NULLs).

    Runs of :data:`LONG_RUN` values or more fold one by one with the
    accumulate prefix sum.  The remaining (short) groups are gathered in
    row order into the columns of a front-zero-padded matrix and folded
    with ``np.add.reduce(axis=0)``, bucketed by power-of-two length class
    to bound padding waste; every matrix keeps >= 2 columns and one
    all-zero top row so each column folds ``0.0 + v0 + ...`` like the
    serial accumulator.  Both folds are verified strict sequential folds
    (see module docstring).  Every group must own at least one row.
    ``layout`` optionally supplies a precomputed
    ``group_layout(codes, n_groups)`` so callers folding several columns
    over the same codes pay for the argsort once.  Returns Python floats.
    """
    counts, order, starts = (
        layout if layout is not None else group_layout(codes, n_groups)
    )
    sorted_values = values[order]
    totals = _np.zeros(n_groups, dtype=_np.float64)
    short = _np.ones(n_groups, dtype=bool)
    if _ACCUMULATE_OK:
        long_groups = _np.nonzero(counts >= LONG_RUN)[0]
        if len(long_groups):
            short[long_groups] = False
            buffer = _np.zeros(int(counts.max()) + 1, dtype=_np.float64)
            for g, start, count in zip(
                long_groups.tolist(),
                starts[long_groups].tolist(),
                counts[long_groups].tolist(),
            ):
                totals[g] = _accumulate_sum(
                    sorted_values[start : start + count], buffer
                )
            if len(long_groups) == n_groups:
                return totals.tolist()
    # Position of each slot within its group, then the group's pow-2
    # length class (counts < 2**52 are exact in float64, so frexp's
    # exponent is bit_length(count - 1), i.e. ceil-log2).
    sorted_codes = codes[order]
    pos = _np.arange(len(values), dtype=_np.int64) - starts[sorted_codes]
    bits = _np.frexp((counts - 1).astype(_np.float64))[1]
    length_class = _np.where(counts <= 1, 1, _np.int64(1) << bits)
    length_class[~short] = 0  # already folded
    element_class = length_class[sorted_codes]
    for cls in _np.unique(length_class[short]).tolist():
        members = _np.nonzero(length_class == cls)[0]
        column_of = _np.zeros(n_groups, dtype=_np.int64)
        column_of[members] = _np.arange(len(members), dtype=_np.int64)
        in_class = element_class == cls
        member_codes = sorted_codes[in_class]
        # Front-pad: group g's run lands in the last counts[g] rows, with
        # row 0 always zero so the fold starts from +0.0.
        rows = cls - counts[member_codes] + pos[in_class] + 1
        matrix = _np.zeros((cls + 1, max(2, len(members))), dtype=_np.float64)
        matrix[rows, column_of[member_codes]] = sorted_values[in_class]
        # Serial Python float addition overflows to inf (and inf + -inf to
        # nan) silently; keep the vectorized fold as quiet.
        with _np.errstate(over="ignore", invalid="ignore"):
            folded = _np.add.reduce(matrix, axis=0)
        totals[members] = folded[: len(members)]
    return totals.tolist()


def int_group_sums(values, codes, n_groups: int, layout=None) -> list:
    """Exact SUM per group for an int64 array (no NULLs).

    Integer addition is associative, so ``np.add.reduceat`` is exact as
    long as no partial can wrap int64; otherwise the fold runs over the
    object-dtype view, adding arbitrary-precision Python ints.  Every
    group must own at least one row.  ``layout`` optionally supplies a
    precomputed ``group_layout(codes, n_groups)``.  Returns Python ints.
    """
    counts, order, starts = (
        layout if layout is not None else group_layout(codes, n_groups)
    )
    sorted_values = values[order]
    largest = max(-int(sorted_values.min()), int(sorted_values.max()))
    if largest and int(counts.max()) > (2**62) // largest:
        return [int(t) for t in _np.add.reduceat(
            sorted_values.astype(object), starts
        )]
    return _np.add.reduceat(sorted_values, starts).tolist()


def object_group_sums(values: Sequence, codes: Sequence, n_groups: int) -> list:
    """SUM per group for Python values — the serial fold verbatim, with
    per-group left-to-right order preserved (NULLs skip, all-NULL groups
    keep the integer 0 start, type errors propagate like serial)."""
    totals = [0] * n_groups
    for code, value in zip(codes, values):
        if value is not None:
            totals[code] = totals[code] + value
    return totals


def minmax_group_fold(
    values, codes, n_groups: int, maximum: bool, layout=None
) -> list:
    """MIN or MAX per group for an int64/float64 array (no NULLs).

    ``np.minimum/maximum.reduceat`` is bitwise-exact whenever the
    extremum is unique at the bit level; groups where it is not — any
    group containing ``±0.0`` (NumPy ties keep the second operand, the
    serial strict comparison keeps the first) or NaN (unordered under
    comparison) — are detected vectorially and recomputed with the serial
    keep-first loop.  Every group must own at least one row.  ``layout``
    optionally supplies a precomputed ``group_layout(codes, n_groups)``.
    """
    counts, order, starts = (
        layout if layout is not None else group_layout(codes, n_groups)
    )
    sorted_values = values[order]
    ufunc = _np.maximum if maximum else _np.minimum
    out = ufunc.reduceat(sorted_values, starts).tolist()
    if values.dtype == _np.float64:
        hazard = _np.isnan(values) | (values == 0.0)
        if hazard.any():
            flagged = _np.bincount(codes[hazard], minlength=n_groups)
            for g in _np.nonzero(flagged)[0].tolist():
                run = sorted_values[starts[g] : starts[g] + counts[g]].tolist()
                best = None
                for value in run:
                    if best is None or (
                        value > best if maximum else value < best
                    ):
                        best = value
                out[g] = best
    return out


def object_group_minmax(
    values: Sequence, codes: Sequence, n_groups: int, maximum: bool
) -> list:
    """MIN/MAX per group for Python values — the serial keep-first fold
    verbatim (NULLs skip; all-NULL groups stay None)."""
    best = [None] * n_groups
    if maximum:
        for code, value in zip(codes, values):
            if value is not None and (best[code] is None or value > best[code]):
                best[code] = value
    else:
        for code, value in zip(codes, values):
            if value is not None and (best[code] is None or value < best[code]):
                best[code] = value
    return best


# ----------------------------------------------------------------------
# The hash-join build structure
# ----------------------------------------------------------------------


class _KeyCodes:
    """One key column's code space, fixed by the build side.

    A value's code is the same integer on both sides of the join exactly
    when Python's ``==`` (as a dict applies it: identity, or equal hash and
    ``==``) says the values are equal; probe values the build side never
    held get a code outside ``[0, size)``.  int64 columns code by
    arithmetic — offset from the minimum over a dense domain (surrogate
    keys), rank among the sorted distinct values over a sparse one — and
    anything else (strings, floats, NULLs, bools, ints beyond int64)
    through a Python dict, the serial lookup's own notion of equality.  An int64 build column met by a
    non-int64 probe column derives that dict from its distinct values.
    """

    __slots__ = ("codes", "size", "low", "distinct", "table")

    def __init__(self, column) -> None:
        self.low = self.distinct = self.table = None
        rows = len(column)
        if rows and column.dtype.kind == "i":
            low = int(column.min())
            span = int(column.max()) - low + 1
            if span <= _probe_span_limit(rows):
                self.low, self.size = low, span
                self.codes = column.astype(_np.int64) - low
            else:
                self.distinct, self.codes = _np.unique(column, return_inverse=True)
                self.size = len(self.distinct)
        else:
            table: dict = {}
            self.codes = _np.fromiter(
                (table.setdefault(value, len(table)) for value in column.tolist()),
                _np.int64,
                rows,
            )
            self.table, self.size = table, len(table)

    def encode(self, column):
        """Codes of a probe-side column: an array of values, or a
        ``(codes, dictionary)`` pair for a dictionary-encoded column, whose
        entries (and NULL, its code -1) are looked up once each."""
        if type(column) is tuple:
            coded, dictionary = column
            get = self._table().get
            translation = _np.fromiter(
                (get(value, -1) for value in (*dictionary.values, None)),
                _np.int64,
                len(dictionary.values) + 1,
            )
            return translation[coded]  # code -1 reads the NULL slot, the last
        if self.table is None and column.dtype.kind == "i":
            if self.low is not None:
                return _np.subtract(column, self.low, dtype=_np.int64)
            distinct = self.distinct
            at = _np.minimum(_np.searchsorted(distinct, column), self.size - 1)
            return _np.where(distinct[at] == column, at, -1)
        get = self._table().get
        return _np.fromiter(
            (get(value, -1) for value in column.tolist()), _np.int64, len(column)
        )

    def _table(self) -> dict:
        if self.table is None:
            values = (
                range(self.low, self.low + self.size)
                if self.low is not None
                else self.distinct.tolist()
            )
            self.table = {value: code for code, value in enumerate(values)}
        return self.table


class ProbeIndex:
    """A hash join's build side, indexed: row ids stably sorted by key.

    Born from the build side's 1..n key columns (arrays over the build
    rows).  Each column is coded exactly (:class:`_KeyCodes`); a further
    column folds into the key so far by joint factorisation — ``key * size
    + code``, re-ranked among the combinations the build side holds once
    the product outgrows a direct-address table, so a key never outgrows
    the build side's row count.  One stable argsort
    then puts every key's rows in one run of ``order``, in build insertion
    order: the serial ``hash_table.get`` emission order.  The join
    re-indexes its build side by ``order`` once, so a probe answers in
    *slots* of that sorted side, found by direct addressing (``starts`` /
    ``counts``, with one trailing slot every absent key maps to).
    """

    __slots__ = ("encoders", "folds", "order", "starts", "counts", "unique")

    def __init__(self, key_columns) -> None:
        self.encoders = [_KeyCodes(column) for column in key_columns]
        keys, size = self.encoders[0].codes, self.encoders[0].size
        #: Per further column: the sorted distinct combined keys it made,
        #: or None where the plain product still addresses a table.
        self.folds = []
        limit = _probe_span_limit(len(keys))
        for encoder in self.encoders[1:]:
            keys, size, distinct = keys * encoder.size + encoder.codes, size * encoder.size, None
            if size > limit:
                distinct, keys = _np.unique(keys, return_inverse=True)
                size = len(distinct)
            self.folds.append(distinct)
        for encoder in self.encoders:
            encoder.codes = None  # build-sized, and spent
        self.counts, self.order, self.starts = group_layout(keys, size + 1)
        self.unique = int(self.counts.max()) <= 1

    def probe(self, key_columns):
        """All matches of one probe batch: ``(slots, matched, counts)``.

        ``key_columns`` are the batch's key columns, aligned with the build
        side's (each an array of values or a ``(codes, dictionary)`` pair).
        ``matched`` holds the ascending batch positions that found a match,
        ``counts`` how many each found — None when every one found exactly
        one — and ``slots`` the matching rows of the sorted build side,
        position by position, a key's rows in build order: the pairs
        ``(slots, repeat(matched, counts))`` in serial emission order.
        """
        if not len(self.order):
            return self.order, self.order, None
        encoders = self.encoders
        keys, size = encoders[0].encode(key_columns[0]), encoders[0].size
        for encoder, distinct, column in zip(encoders[1:], self.folds, key_columns[1:]):
            codes = encoder.encode(column)
            known = (keys >= 0) & (keys < size) & (codes >= 0) & (codes < encoder.size)
            keys, size = keys * encoder.size + codes, size * encoder.size
            if distinct is not None:
                size = len(distinct)
                at = _np.minimum(_np.searchsorted(distinct, keys), size - 1)
                known &= distinct[at] == keys
                keys = at
            keys = _np.where(known, keys, -1)
        counts = self.counts
        # Codes below the domain wrap to huge unsigned offsets, so one
        # minimum sends every absent key to the empty last slot.
        slot = _np.minimum(
            keys.view(_np.uint64), _np.uint64(len(counts) - 1)
        ).view(_np.int64)
        match_counts = counts[slot]
        matched = _np.nonzero(match_counts)[0]
        lo = self.starts[slot[matched]]
        if self.unique:  # a key side: every match is one build row
            return lo, matched, None
        match_counts = match_counts[matched]
        if int(match_counts.sum()) == len(matched):
            return lo, matched, None
        return expand_runs(lo, match_counts), matched, match_counts
