"""Source-compiled batch predicate evaluation.

The row path evaluates predicates through nested closures — one Python call
per predicate per row plus one per sub-expression.  For a batch path that is
the dominant cost, so filters are compiled *to Python source* instead: the
predicate tree is rendered into a single boolean expression over a row
variable ``r`` and wrapped in a list comprehension, e.g. ::

    def _batch_filter(batch):
        return [r for r in batch if r[3] < _k0 and r[5] == _k1]

which CPython executes with zero function-call overhead per row.  Constants
are bound as namespace cells (``_k0``) rather than rendered with ``repr``,
so any value round-trips exactly.  Sub-expressions that cannot be rendered
(UDF calls) fall back to a bound closure cell called inline, so every
predicate shape compiles.

Semantics parity with the closure path is structural: the rendered
expression performs the same comparisons on the same operands in the same
order (``and`` chains mirror ``all(...)`` short-circuiting, ``or`` mirrors
``any(...)``), so rows pass or fail identically.

Because constants live in namespace cells, the rendered *source* depends
only on the expression structure and the column positions — not on the
constant values.  Two queries filtering ``l.shipdate < :d`` against the
same schema therefore render byte-identical source, and ``compile()`` of
that source is served from a small cross-query code-object cache
(:data:`code_cache_stats` exposes hits/misses); only the cheap ``exec`` of
the pre-compiled ``def`` with fresh cells runs per plan node.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from types import CodeType
from typing import Callable, Sequence

import numpy as _np

from ..plans.logical import (
    AndPredicate,
    ArithExpr,
    ColumnExpr,
    CompareOp,
    Comparison,
    ConstExpr,
    InPredicate,
    NegExpr,
    NotPredicate,
    AggregateExpr,
    OrPredicate,
    OutputColumn,
    Predicate,
    ScalarExpr,
)
from ..errors import ExecutionError
from ..storage.schema import DataType, Schema

#: Cross-query cache of compiled code objects, keyed by source text.
_CODE_CACHE: "OrderedDict[str, CodeType]" = OrderedDict()
_CODE_CACHE_CAPACITY = 512

#: Serializes cache access across concurrent server sessions (the LRU
#: move-to-end/evict sequence is not atomic).
_CODE_CACHE_LOCK = threading.Lock()

#: Observability counters for the code-object cache (tests, benchmarks).
code_cache_stats = {"hits": 0, "misses": 0}


def _instantiate(source: str, filename: str, fn_name: str, cells: dict) -> Callable:
    """Exec ``source`` (compiled once per distinct text) with ``cells`` bound."""
    with _CODE_CACHE_LOCK:
        code = _CODE_CACHE.get(source)
        if code is not None:
            _CODE_CACHE.move_to_end(source)
            code_cache_stats["hits"] += 1
        else:
            code_cache_stats["misses"] += 1
            code = compile(source, filename, "exec")
            _CODE_CACHE[source] = code
            while len(_CODE_CACHE) > _CODE_CACHE_CAPACITY:
                _CODE_CACHE.popitem(last=False)
    namespace = dict(cells)
    exec(code, namespace)  # noqa: S102
    return namespace[fn_name]

#: Python source text for each comparison operator.
_OP_TEXT = {
    CompareOp.EQ: "==",
    CompareOp.NE: "!=",
    CompareOp.LT: "<",
    CompareOp.LE: "<=",
    CompareOp.GT: ">",
    CompareOp.GE: ">=",
}


class _Namespace:
    """Cells (constants, fallback closures) bound into the compiled code."""

    def __init__(self) -> None:
        self.cells: dict[str, object] = {}

    def bind(self, prefix: str, value: object) -> str:
        name = f"_{prefix}{len(self.cells)}"
        self.cells[name] = value
        return name


def _render_expr(expr: ScalarExpr, schema: Schema, ns: _Namespace) -> str:
    if isinstance(expr, ColumnExpr):
        return f"r[{schema.index_of(expr.name)}]"
    if isinstance(expr, ConstExpr):
        return ns.bind("k", expr.value)
    if isinstance(expr, ArithExpr):
        left = _render_expr(expr.left, schema, ns)
        right = _render_expr(expr.right, schema, ns)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, NegExpr):
        return f"(-{_render_expr(expr.child, schema, ns)})"
    # FuncExpr or anything future: call the compiled closure inline.
    return f"{ns.bind('f', expr.compile(schema))}(r)"


def _render_predicate(pred: Predicate, schema: Schema, ns: _Namespace) -> str:
    if isinstance(pred, Comparison):
        left = _render_expr(pred.left, schema, ns)
        right = _render_expr(pred.right, schema, ns)
        return f"{left} {_OP_TEXT[pred.op]} {right}"
    if isinstance(pred, InPredicate):
        # Same membership set as InPredicate.compile builds.
        values = ns.bind("s", set(pred.values))
        return f"{_render_expr(pred.expr, schema, ns)} in {values}"
    if isinstance(pred, AndPredicate):
        return "(" + " and ".join(
            _render_predicate(c, schema, ns) for c in pred.children
        ) + ")"
    if isinstance(pred, OrPredicate):
        return "(" + " or ".join(
            _render_predicate(c, schema, ns) for c in pred.children
        ) + ")"
    if isinstance(pred, NotPredicate):
        return f"(not {_render_predicate(pred.child, schema, ns)})"
    return f"{ns.bind('f', pred.compile(schema))}(r)"


def compile_batch_filter(
    predicates: Sequence[Predicate], schema: Schema
) -> Callable[[list], list]:
    """A function mapping a row batch to the rows passing every predicate.

    Conjuncts short-circuit in sequence order, like the row path's
    ``all(fn(row) for fn in fns)``.
    """
    if not predicates:
        return list
    ns = _Namespace()
    condition = " and ".join(
        f"({_render_predicate(p, schema, ns)})" for p in predicates
    )
    source = f"def _batch_filter(batch):\n    return [r for r in batch if {condition}]"
    return _instantiate(source, "<batch-filter>", "_batch_filter", ns.cells)


def compile_batch_projector(
    output: Sequence[OutputColumn], schema: Schema
) -> Callable[[list], list]:
    """A function mapping a row batch to its projected output rows.

    Renders the whole projection as one tuple-building list comprehension —
    ``[(r[3], (r[1] * _k0)) for r in batch]`` — so no per-row Python call
    remains, matching the row path's per-item expression semantics exactly.
    """
    ns = _Namespace()
    parts = []
    for item in output:
        if isinstance(item.expr, AggregateExpr):
            raise ExecutionError("aggregate reached a batch projector")
        parts.append(_render_expr(item.expr, schema, ns))
    row = f"({parts[0]},)" if len(parts) == 1 else "(" + ", ".join(parts) + ")"
    source = f"def _batch_project(batch):\n    return [{row} for r in batch]"
    return _instantiate(source, "<batch-project>", "_batch_project", ns.cells)


# ----------------------------------------------------------------------
# NumPy mask kernels
# ----------------------------------------------------------------------
#
# Filters and join residuals evaluate as one boolean mask over a batch's
# columns instead of one Python expression per row.  A predicate compiles
# to a closure tree — per-call overhead is O(tree size), per-row work runs
# inside NumPy — taking a ``resolve(position) -> ndarray`` callback so the
# caller controls where arrays come from.  A resolver may also offer
# ``resolve.codes(position) -> (codes, dictionary) | None``: a
# column-vs-constant comparison or IN-list over a dictionary-encoded column
# then evaluates once per *dictionary value* and gathers the answers by
# code, never decoding the strings (see ``_code_space``).
#
# A predicate compiles only where NumPy answers exactly as Python does;
# otherwise the compiler returns None and the caller runs the row kernel
# (:func:`compile_batch_filter`) for that operator.  That leaves out UDF
# calls, all arithmetic (int64 wraps where Python's ints do not, and NumPy
# divides by zero where Python raises) and comparisons NumPy would round
# (see ``_exact_pair``).  What compiles compares columns and constants:
# int64 and float64 arrays follow Python's integer / IEEE-754 rules, object
# arrays apply the Python operators elementwise.

_MASK_OPS = {
    CompareOp.EQ: operator.eq,
    CompareOp.NE: operator.ne,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
}

#: Below this magnitude a float and an int compare alike as Python's
#: exact comparison and after NumPy casts the int to float64.
_EXACT_MAGNITUDE = 2**53


def _mask_expr(expr: ScalarExpr, schema: Schema):
    """Compile a column or a constant to ``fn(resolve) -> ndarray | scalar``;
    None for anything computed."""
    if isinstance(expr, ColumnExpr):
        position = schema.index_of(expr.name)
        return lambda resolve: resolve(position)
    if isinstance(expr, ConstExpr):
        value = expr.value
        return lambda resolve: value
    return None


def _numeric_kind(expr: ScalarExpr, schema: Schema) -> str | None:
    """``"int"`` or ``"float"`` for a numeric column or constant."""
    if isinstance(expr, ColumnExpr):
        dtype = schema.column(expr.name).dtype
        if dtype is DataType.FLOAT:
            return "float"
        return "int" if dtype in (DataType.INTEGER, DataType.DATE) else None
    if isinstance(expr.value, int):
        return "int"
    return "float" if isinstance(expr.value, float) else None


def _exact_pair(left: ScalarExpr, right: ScalarExpr, schema: Schema) -> bool:
    """Whether NumPy compares ``left`` with ``right`` as Python does.

    Against a float, NumPy casts an int64 operand to float64, which rounds
    above 2**53 where Python compares exactly.  Two ints compare exactly;
    a constant below 2**53 in magnitude cannot flip the outcome of the
    cast.  Anything else with a FLOAT side declines — a FLOAT column may
    hold Python ints too (a SUM or arithmetic over INTEGER columns is typed
    FLOAT), so even FLOAT against FLOAT can be a mix."""
    kinds = (_numeric_kind(left, schema), _numeric_kind(right, schema))
    if None in kinds or kinds == ("int", "int"):
        return True
    constant = left if isinstance(left, ConstExpr) else right
    return isinstance(constant, ConstExpr) and abs(constant.value) < _EXACT_MAGNITUDE


def _code_space(position: int, key: tuple, test, value_space):
    """``value_space``, or its dictionary-code-space equivalent.

    ``test(value) -> bool`` is the predicate on one column value.  When the
    resolver serves ``position`` as dictionary codes (only when no NULL is
    read, so every code indexes the dictionary), the mask is the
    per-value truth table gathered by code: the same booleans the decoded
    strings would compare to, one Python comparison per *distinct* value.
    A constant the values cannot be compared with makes the table raise;
    the value-space kernel then raises (or not) row by row, like serial.
    """

    def kernel(resolve):
        codes_of = getattr(resolve, "codes", None)
        coded = codes_of(position) if codes_of is not None else None
        if coded is not None:
            codes, dictionary = coded
            try:
                return dictionary.truth_table(key, test)[codes]
            except TypeError:
                pass
        return value_space(resolve)

    return kernel


def _mask_predicate(pred: Predicate, schema: Schema):
    """Compile a predicate to ``fn(resolve) -> bool ndarray``, or None."""
    if isinstance(pred, Comparison):
        if not pred.columns():
            return None  # a constant-only comparison never yields an array
        left = _mask_expr(pred.left, schema)
        right = _mask_expr(pred.right, schema)
        if left is None or right is None or not _exact_pair(pred.left, pred.right, schema):
            return None
        op = _MASK_OPS[pred.op]

        def compare(resolve):
            return op(left(resolve), right(resolve))

        pair = pred.column_and_constant()
        if pair is None:
            return compare
        flipped = _MASK_OPS[pred.normalized().op]
        constant = pair[1]
        return _code_space(
            schema.index_of(pair[0]),
            (pred.normalized().op, constant),
            lambda value: flipped(value, constant),
            compare,
        )
    if isinstance(pred, InPredicate):
        values = list(pred.values)
        kinds = {type(value) is str for value in values}
        if (
            not isinstance(pred.expr, ColumnExpr)
            or len(kinds) != 1
            or not all(_exact_pair(pred.expr, ConstExpr(v), schema) for v in values)
        ):
            return None  # NumPy's isin casts a mixed list to one type
        position = schema.index_of(pred.expr.name)

        def member(resolve):
            return _np.isin(resolve(position), values)

        return _code_space(
            position, ("in", pred.values), set(values).__contains__, member
        )
    if isinstance(pred, (AndPredicate, OrPredicate)):
        children = [_mask_predicate(c, schema) for c in pred.children]
        if any(c is None for c in children):
            return None
        combine = operator.and_ if isinstance(pred, AndPredicate) else operator.or_

        def combined(resolve):
            mask = children[0](resolve)
            for child in children[1:]:
                mask = combine(mask, child(resolve))
            return mask

        return combined
    if isinstance(pred, NotPredicate):
        child = _mask_predicate(pred.child, schema)
        if child is None:
            return None
        return lambda resolve: ~child(resolve)
    return None  # UDF predicates and future shapes


def compile_mask_conjuncts(
    predicates: Sequence[Predicate], schema: Schema
) -> list | None:
    """Compile a conjunction to one NumPy mask function *per conjunct*.

    Each returned ``fn(resolve) -> bool ndarray`` evaluates over the arrays
    ``resolve`` serves for ``schema``'s positions.  Callers must apply the
    conjuncts *in order*, and may show a conjunct rows an earlier one
    excluded only when it cannot raise on them (numeric arrays, NULL-free
    dictionary codes) — otherwise they narrow the rows first: that
    reproduces the serial per-row short-circuit, where a row failing
    conjunct *i* never sees conjunct *i+1* — observable when a later
    conjunct would raise (e.g. a NULL comparison).  Returns None — the
    caller runs :func:`compile_batch_filter` instead — when any conjunct
    lacks an exact kernel.
    """
    if not predicates:
        return None
    compiled = [_mask_predicate(p, schema) for p in predicates]
    if any(fn is None for fn in compiled):
        return None
    return compiled
